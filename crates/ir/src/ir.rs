//! Core IR definitions.
//!
//! The IR is a typed register machine organized as modules → functions →
//! basic blocks → instructions, deliberately close to the fragment of LLVM
//! IR that SoftBound instruments: explicit `Load`/`Store`/`Gep` memory
//! operations, multi-value returns (so a pointer-returning function can be
//! rewritten to return `(ptr, base, bound)` per §3.3), and a family of
//! *runtime calls* ([`RtFn`]) that instrumentation passes insert and the
//! VM dispatches to the installed safety runtime.
//!
//! Registers are mutable (non-SSA): a register may be assigned in several
//! blocks, which lets metadata shadow registers (`r_base`, `r_bound`) join
//! at control-flow merges without phi nodes — the same effect as the
//! paper's per-pointer intermediate values.

use sb_cir::hir::Builtin;
pub use sb_cir::hir::{ArithOp, CmpOp};
pub use sb_cir::types::IntKind;
use std::collections::HashMap;
use std::fmt;

/// A virtual register, unique within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

/// A basic block id, unique within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A function id, unique within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// A global id, unique within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Value class of a register: the SoftBound pass must know which registers
/// carry pointers (they get base/bound shadows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RegKind {
    /// Integer (or other non-pointer) value.
    #[default]
    Int,
    /// Pointer value.
    Ptr,
}

/// An operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// A register.
    Reg(RegId),
    /// A 64-bit integer constant (also used for null pointers).
    Const(i64),
    /// Address of (an offset into) a global.
    GlobalAddr { id: GlobalId, offset: u64 },
    /// Address of a function (function pointer).
    FuncAddr(FuncId),
}

impl Value {
    /// Constant zero / null.
    pub const NULL: Value = Value::Const(0);
}

impl From<RegId> for Value {
    fn from(r: RegId) -> Self {
        Value::Reg(r)
    }
}

/// Memory access granularity for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTy {
    I8,
    U8,
    I16,
    U16,
    I32,
    U32,
    I64,
    /// A pointer slot: 8 bytes; loads of pointers are what SoftBound pairs
    /// with metadata loads (§3.2).
    Ptr,
}

impl MemTy {
    /// Bytes moved by this access.
    pub fn size(self) -> u64 {
        match self {
            MemTy::I8 | MemTy::U8 => 1,
            MemTy::I16 | MemTy::U16 => 2,
            MemTy::I32 | MemTy::U32 => 4,
            MemTy::I64 | MemTy::Ptr => 8,
        }
    }

    /// True if a load of this type produces a pointer register.
    pub fn is_ptr(self) -> bool {
        matches!(self, MemTy::Ptr)
    }
}

/// Per-alloca metadata used by runtimes (object registration, metadata
/// clearing) and by the SoftBound pass (bound creation, §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocaInfo {
    /// Source-level name, for diagnostics.
    pub name: String,
    /// Allocation size in bytes.
    pub size: u64,
    /// Required alignment.
    pub align: u64,
    /// Byte offsets of pointer-typed slots inside the allocation (for
    /// metadata clearing on frame exit, §5.2 "memory reuse and stale
    /// metadata").
    pub ptr_slots: Vec<u64>,
}

/// Runtime helper functions inserted by instrumentation passes. The VM
/// forwards these to the installed `RuntimeHooks` implementation (see
/// `sb-vm`), which supplies semantics and cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtFn {
    /// SoftBound spatial check (§3.1): args `[ptr, base, bound, size]`;
    /// aborts unless `base <= ptr && ptr+size <= bound`.
    SbCheck {
        /// True for store checks (store-only mode keeps only these).
        is_store: bool,
    },
    /// SoftBound metadata load (§3.2): args `[addr]`, dsts `[base, bound]`.
    SbMetaLoad,
    /// SoftBound metadata store (§3.2): args `[addr, base, bound]`.
    SbMetaStore,
    /// SoftBound function-pointer check (§5.2): args `[ptr, base, bound]`;
    /// requires `base == bound == ptr`.
    SbFnCheck,
    /// Clear metadata for every pointer slot in `[addr, addr+len)`:
    /// args `[addr, len]`.
    SbMetaClear,
    /// Copy metadata for pointer slots from `src` to `dst` over `len`
    /// bytes: args `[dst, src, len]` (memcpy handling, §5.2).
    SbMemcpyMeta,
    /// Variadic-argument decode check (§5.2): args `[index, count]`.
    SbVaCheck,
    /// Object-table arithmetic check (Jones-Kelly): args `[src, result]`;
    /// result must stay in (or one past) src's object.
    ObjCheckArith,
    /// Object-table dereference check (Mudflap-style): args `[ptr, size]`.
    ObjCheckDeref {
        /// True for store checks.
        is_store: bool,
    },
    /// Valgrind/Memcheck-style addressability check: args `[ptr, size]`.
    VgCheck {
        /// True for store checks.
        is_store: bool,
    },
    /// MSCC-style metadata load: args `[addr]`, dsts `[base, bound]`.
    MsccMetaLoad,
    /// MSCC-style metadata store: args `[addr, base, bound]`.
    MsccMetaStore,
    /// MSCC-style spatial check: args `[ptr, base, bound, size]`.
    MsccCheck {
        /// True for store checks.
        is_store: bool,
    },
    /// MSCC-style variadic decode check: args `[index]`.
    MsccVaCheck,
    /// Fat-pointer (SafeC/CCured-SEQ) spatial check: args
    /// `[ptr, base, bound, size]`. Metadata movement itself is plain
    /// loads/stores of the inline fat-pointer words.
    FatCheck {
        /// True for store checks.
        is_store: bool,
    },
}

impl RtFn {
    /// Number of result registers this helper produces.
    pub fn result_count(self) -> usize {
        match self {
            RtFn::SbMetaLoad | RtFn::MsccMetaLoad => 2,
            _ => 0,
        }
    }

    /// True for the bounds/addressability checks every scheme counts as a
    /// "check" in its dynamic statistics (the interpreter's `checks`
    /// counter and the pre-decoded lane must agree on this set).
    pub fn is_check(self) -> bool {
        matches!(
            self,
            RtFn::SbCheck { .. }
                | RtFn::ObjCheckDeref { .. }
                | RtFn::VgCheck { .. }
                | RtFn::MsccCheck { .. }
                | RtFn::FatCheck { .. }
                | RtFn::ObjCheckArith
                | RtFn::SbFnCheck
        )
    }

    /// True for metadata-table loads (`meta_loads` statistic).
    pub fn is_meta_load(self) -> bool {
        matches!(self, RtFn::SbMetaLoad | RtFn::MsccMetaLoad)
    }

    /// True for metadata-table stores (`meta_stores` statistic).
    pub fn is_meta_store(self) -> bool {
        matches!(self, RtFn::SbMetaStore | RtFn::MsccMetaStore)
    }
}

/// Call targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// Direct call to a module function.
    Direct(FuncId),
    /// Indirect call through a function-pointer value.
    Indirect(Value),
    /// A frontend builtin implemented by the VM (the "C library").
    Builtin(Builtin),
}

/// An instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `dst = lhs op rhs`, wrapped to kind `k`.
    Bin {
        dst: RegId,
        op: ArithOp,
        k: IntKind,
        lhs: Value,
        rhs: Value,
    },
    /// `dst = (lhs op rhs) ? 1 : 0`, comparing in kind `k`.
    Cmp {
        dst: RegId,
        op: CmpOp,
        k: IntKind,
        lhs: Value,
        rhs: Value,
    },
    /// `dst = wrap_k(src)` — integer width/signedness conversion.
    Cast { dst: RegId, k: IntKind, src: Value },
    /// `dst = src` (also used to move pointers between registers).
    Mov { dst: RegId, src: Value },
    /// Stack allocation; yields the slot address. All allocas appear in the
    /// entry block, in frame layout order (lowest address first).
    Alloca { dst: RegId, info: AllocaInfo },
    /// `dst = *(mem)addr` with sign/zero extension per `mem`.
    Load { dst: RegId, mem: MemTy, addr: Value },
    /// `*(mem)addr = value`.
    Store {
        mem: MemTy,
        addr: Value,
        value: Value,
    },
    /// `dst = base + index*scale + offset`. `field_size` is `Some(sz)` when
    /// this GEP computes the address of a sub-object (struct field) of size
    /// `sz` — the SoftBound pass shrinks bounds at exactly these points
    /// (§3.1 "Shrinking Pointer Bounds").
    Gep {
        dst: RegId,
        base: Value,
        index: Value,
        scale: u64,
        offset: i64,
        field_size: Option<u64>,
    },
    /// Call; `dsts` receives the callee's return values (0..n).
    ///
    /// `ptr_hint` marks memcpy/free calls whose operand's static type
    /// contains pointers (§5.2 heuristics). `wrapped` is set by the
    /// SoftBound pass on *builtin* calls to signal that base/bound
    /// metadata arguments have been appended (the paper's library
    /// wrappers) and that pointer-returning builtins should produce
    /// `(ptr, base, bound)`.
    Call {
        dsts: Vec<RegId>,
        callee: Callee,
        args: Vec<Value>,
        ptr_hint: bool,
        wrapped: bool,
    },
    /// Runtime-helper call inserted by an instrumentation pass.
    Rt {
        dsts: Vec<RegId>,
        rt: RtFn,
        args: Vec<Value>,
    },
    /// Return `vals` (arity must match the function's `ret` signature).
    Ret { vals: Vec<Value> },
    /// Unconditional jump.
    Jmp { to: BlockId },
    /// Conditional branch on `cond != 0`.
    Br {
        cond: Value,
        then_to: BlockId,
        else_to: BlockId,
    },
    /// Unreachable (e.g. after `abort()`); trips a VM error if executed.
    Unreachable,
}

impl Inst {
    /// True for block terminators.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Ret { .. } | Inst::Jmp { .. } | Inst::Br { .. } | Inst::Unreachable
        )
    }

    /// Registers written by this instruction, borrowed from it: one `dst`,
    /// a call's or runtime helper's `dsts`, or none. The optimizer asks
    /// every instruction for its defs on every round, so this never
    /// allocates.
    pub fn defs(&self) -> &[RegId] {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Alloca { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Gep { dst, .. } => std::slice::from_ref(dst),
            Inst::Call { dsts, .. } | Inst::Rt { dsts, .. } => dsts,
            _ => &[],
        }
    }

    /// Applies `f` to every operand [`Value`] of this instruction.
    pub fn for_each_use(&self, mut f: impl FnMut(&Value)) {
        match self {
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::Cast { src, .. } | Inst::Mov { src, .. } => f(src),
            Inst::Load { addr, .. } => f(addr),
            Inst::Store { addr, value, .. } => {
                f(addr);
                f(value);
            }
            Inst::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Indirect(v) = callee {
                    f(v);
                }
                for a in args {
                    f(a);
                }
            }
            Inst::Rt { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Inst::Ret { vals } => {
                for v in vals {
                    f(v);
                }
            }
            Inst::Br { cond, .. } => f(cond),
            Inst::Alloca { .. } | Inst::Jmp { .. } | Inst::Unreachable => {}
        }
    }

    /// Applies `f` to every operand [`Value`] of this instruction, mutably.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::Cast { src, .. } | Inst::Mov { src, .. } => f(src),
            Inst::Load { addr, .. } => f(addr),
            Inst::Store { addr, value, .. } => {
                f(addr);
                f(value);
            }
            Inst::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Indirect(v) = callee {
                    f(v);
                }
                for a in args {
                    f(a);
                }
            }
            Inst::Rt { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Inst::Ret { vals } => {
                for v in vals {
                    f(v);
                }
            }
            Inst::Br { cond, .. } => f(cond),
            Inst::Alloca { .. } | Inst::Jmp { .. } | Inst::Unreachable => {}
        }
    }
}

/// A basic block: straight-line instructions ending in a terminator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Block {
    /// Instructions; the last one must be a terminator in a valid function.
    pub insts: Vec<Inst>,
}

/// A function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Symbol name (SoftBound renames transformed functions to `_sb_<name>`,
    /// §3.3).
    pub name: String,
    /// Parameter registers (prefix of the register file).
    pub params: Vec<RegId>,
    /// Kinds of the parameters (pointer params get appended base/bound
    /// params under SoftBound).
    pub param_kinds: Vec<RegKind>,
    /// Kinds of the return values (empty = void).
    pub ret_kinds: Vec<RegKind>,
    /// Kind of every register (indexed by `RegId`).
    pub reg_kinds: Vec<RegKind>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// True for C-style variadic functions.
    pub vararg: bool,
    /// False for external declarations (resolved by [`link`](crate::link())).
    pub defined: bool,
}

impl Function {
    /// Allocates a fresh register of the given kind.
    pub fn new_reg(&mut self, kind: RegKind) -> RegId {
        let id = RegId(self.reg_kinds.len() as u32);
        self.reg_kinds.push(kind);
        id
    }

    /// Kind of a register.
    pub fn reg_kind(&self, r: RegId) -> RegKind {
        self.reg_kinds[r.0 as usize]
    }

    /// Appends a new empty block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Total instruction count (for pass statistics).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// One item of a global initializer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GInit {
    /// Raw little-endian bytes at the offset.
    Bytes(Vec<u8>),
    /// Address of (an offset into) another global, stored as 8 bytes.
    GlobalAddr { id: GlobalId, offset: u64 },
    /// Address of a function, stored as 8 bytes.
    FuncAddr(FuncId),
}

/// A global variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// Sparse initializer; memory is zero elsewhere.
    pub init: Vec<(u64, GInit)>,
    /// Byte offsets of pointer-typed slots (for SoftBound's global metadata
    /// initialization, §5.2, and for object-table registration).
    pub ptr_slots: Vec<u64>,
}

/// A compiled module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Module name (for diagnostics).
    pub name: String,
    /// Globals, laid out in order in the VM's data segment.
    pub globals: Vec<Global>,
    /// Functions.
    pub funcs: Vec<Function>,
}

impl Module {
    /// Finds a function id by name.
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Finds a function by name.
    pub fn func(&self, name: &str) -> Option<&Function> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Finds a global id by name.
    pub fn global_id(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Map from function name to id.
    pub fn func_ids(&self) -> HashMap<String, FuncId> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
            .collect()
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(Function::inst_count).sum()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::print::print_module(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_ty_sizes() {
        assert_eq!(MemTy::I8.size(), 1);
        assert_eq!(MemTy::U16.size(), 2);
        assert_eq!(MemTy::I32.size(), 4);
        assert_eq!(MemTy::Ptr.size(), 8);
        assert!(MemTy::Ptr.is_ptr());
        assert!(!MemTy::I64.is_ptr());
    }

    #[test]
    fn inst_defs_and_uses() {
        let i = Inst::Bin {
            dst: RegId(3),
            op: ArithOp::Add,
            k: IntKind::I32,
            lhs: Value::Reg(RegId(1)),
            rhs: Value::Const(5),
        };
        assert_eq!(i.defs(), [RegId(3)]);
        assert!(Inst::Jmp { to: BlockId(0) }.defs().is_empty());
        let mut uses = Vec::new();
        i.for_each_use(|v| uses.push(*v));
        assert_eq!(uses, vec![Value::Reg(RegId(1)), Value::Const(5)]);
    }

    #[test]
    fn terminators() {
        assert!(Inst::Ret { vals: vec![] }.is_terminator());
        assert!(Inst::Jmp { to: BlockId(0) }.is_terminator());
        assert!(!Inst::Mov {
            dst: RegId(0),
            src: Value::Const(1)
        }
        .is_terminator());
    }

    #[test]
    fn rtfn_result_counts() {
        assert_eq!(RtFn::SbMetaLoad.result_count(), 2);
        assert_eq!(RtFn::SbCheck { is_store: false }.result_count(), 0);
        assert_eq!(RtFn::MsccMetaLoad.result_count(), 2);
    }

    #[test]
    fn function_reg_allocation() {
        let mut f = Function {
            name: "f".into(),
            params: vec![],
            param_kinds: vec![],
            ret_kinds: vec![],
            reg_kinds: vec![],
            blocks: vec![],
            vararg: false,
            defined: true,
        };
        let a = f.new_reg(RegKind::Int);
        let b = f.new_reg(RegKind::Ptr);
        assert_eq!(a, RegId(0));
        assert_eq!(b, RegId(1));
        assert_eq!(f.reg_kind(b), RegKind::Ptr);
    }
}
