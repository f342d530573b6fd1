//! # sb-cir — C-subset frontend for the SoftBound reproduction
//!
//! This crate implements "CIR-C": a pragmatic subset of C rich enough to
//! express every program the SoftBound paper evaluates — pointer-chasing
//! Olden-style kernels, array-heavy SPEC-style kernels, the Wilander &
//! Kamkar attack suite, BugBench-style buggy programs, and small network
//! daemons. It provides:
//!
//! * a [lexer](mod@lexer) and [recursive-descent parser](parser) producing an
//!   untyped [AST](ast);
//! * a [type system](types) with an LP64 layout engine (parameterizable
//!   pointer layout so the fat-pointer baseline can reuse the frontend);
//! * a [type checker](typeck) producing a fully typed, desugared
//!   [HIR](hir) consumed by `sb-ir`'s lowering.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), sb_cir::CompileError> {
//! let program = sb_cir::compile(r#"
//!     int sum(int* xs, int n) {
//!         int s = 0;
//!         for (int i = 0; i < n; i++) s += xs[i];
//!         return s;
//!     }
//! "#)?;
//! assert!(program.func("sum").is_some());
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod error;
pub mod hir;
pub mod lexer;
pub mod parser;
pub mod token;
pub mod typeck;
pub mod types;

pub use error::{CompileError, Pos};
pub use parser::parse;
pub use typeck::{check, check_with_layout};
pub use types::{IntKind, PtrLayout, Ty, TypeTable};

/// Guest memory a program may use in each segment, 256 MiB: a declared
/// object or a global segment past it is a compile error, the heap
/// returns NULL past it, and a call whose frame would grow the stack past
/// it traps `OutOfMemory`. What a guest commits of host memory is bounded
/// by this, not by a size the guest names.
pub const MEMORY_LIMIT: u64 = 256 << 20;

/// Parses and type-checks a CIR-C source string in one call.
///
/// # Errors
///
/// Returns the first lexical, syntactic or type error.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), sb_cir::CompileError> {
/// let p = sb_cir::compile("int main() { return 0; }")?;
/// assert_eq!(p.funcs.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn compile(src: &str) -> Result<hir::Program, CompileError> {
    let unit = parse(src)?;
    check(&unit)
}

/// Like [`compile`], but with an explicit pointer layout (used by the
/// fat-pointer baseline to demonstrate the paper's §2.2 layout
/// incompatibility).
///
/// # Errors
///
/// Returns the first lexical, syntactic or type error.
pub fn compile_with_layout(src: &str, layout: PtrLayout) -> Result<hir::Program, CompileError> {
    let unit = parse(src)?;
    check_with_layout(&unit, layout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_compile() {
        let p = compile(
            r#"
            struct node { int v; struct node* next; };
            struct node* cons(int v, struct node* rest) {
                struct node* n = (struct node*)malloc(sizeof(struct node));
                n->v = v;
                n->next = rest;
                return n;
            }
            int main() {
                struct node* l = cons(1, cons(2, NULL));
                return l->v + l->next->v;
            }
        "#,
        )
        .expect("compiles");
        assert_eq!(p.funcs.iter().filter(|f| f.defined).count(), 2);
    }

    #[test]
    fn layout_affects_sizeof() {
        let src = "struct s { char* p; }; long size_probe() { return sizeof(struct s); }";
        let thin = compile(src).expect("thin compiles");
        let fat = compile_with_layout(src, PtrLayout::Fat).expect("fat compiles");
        let sid_thin = thin.types.lookup("s").expect("s exists");
        let sid_fat = fat.types.lookup("s").expect("s exists");
        assert_eq!(thin.types.def(sid_thin).size, 8);
        assert_eq!(fat.types.def(sid_fat).size, 24);
    }
}
