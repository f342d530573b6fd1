//! # sb-ir — intermediate representation for the SoftBound reproduction
//!
//! A typed register-machine IR playing the role LLVM IR plays in the
//! paper: the substrate on which SoftBound (and the baseline schemes) are
//! implemented as IR→IR instrumentation passes. Provides:
//!
//! * the [IR itself](ir) (modules, functions, blocks, instructions,
//!   runtime-call instructions for instrumentation passes);
//! * [lowering](mod@lower) from `sb-cir`'s typed HIR, with register promotion
//!   (so instrumentation runs post-optimization, as in §6.1 of the paper);
//! * a [verifier](mod@verify), an [optimizer](opt) and a [printer](mod@print);
//! * a [linker](mod@link) implementing the separate-compilation story (§5.2).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = sb_cir::compile("int main() { return 6 * 7; }")?;
//! let mut module = sb_ir::lower(&prog, "demo");
//! sb_ir::verify(&module)?;
//! sb_ir::optimize(&mut module, sb_ir::OptLevel::PreInstrument);
//! assert!(module.func("main").is_some());
//! # Ok(())
//! # }
//! ```

pub mod ir;
pub mod link;
pub mod lower;
pub mod opt;
pub mod print;
pub mod verify;

pub use ir::{
    AllocaInfo, ArithOp, Block, BlockId, Callee, CmpOp, FuncId, Function, GInit, Global, GlobalId,
    Inst, IntKind, MemTy, Module, RegId, RegKind, RtFn, Value,
};
pub use link::{link, LinkError};
pub use lower::lower;
pub use opt::{optimize, optimize_with_stats, OptLevel, PassStats};
pub use verify::{verify, VerifyError};
