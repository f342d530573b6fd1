//! Typed, desugared program representation ("HIR") produced by the type
//! checker and consumed by IR lowering.
//!
//! Compared to the AST, the HIR: resolves all names (locals get slot ids,
//! globals and functions are split), makes lvalues explicit ([`Place`]),
//! inserts all implicit conversions as explicit [`Cast`](ExprKind::Cast)s,
//! performs array-to-pointer decay, resolves struct field offsets, and
//! classifies calls into direct / builtin / indirect.

use crate::error::Pos;
use crate::types::{FuncSig, IntKind, StructId, Ty, TypeTable};

/// Slot id of a local variable (parameters included), unique per function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub u32);

/// Id of an interned string literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrId(pub u32);

/// Comparison operators with signedness resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic/bitwise binary operators (type-checked, no comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Unary operators surviving into HIR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (yields `int` 0/1).
    Not,
    /// Bitwise complement.
    BitNot,
}

/// Cast kinds with all type information resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum CastKind {
    /// Integer width/signedness change.
    IntToInt(IntKind),
    /// Integer to pointer: SoftBound gives the result NULL bounds (§5.2).
    IntToPtr,
    /// Pointer to integer.
    PtrToInt(IntKind),
    /// Pointer to pointer (including wild casts): bounds are inherited.
    PtrToPtr,
}

/// Builtin functions known to the frontend; the SoftBound pass and the VM
/// give each one its runtime semantics (and, where applicable, its wrapper
/// metadata behaviour per §5.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    Malloc,
    Calloc,
    Free,
    Memcpy,
    Memset,
    Strcpy,
    Strncpy,
    Strlen,
    Strcmp,
    Strncmp,
    Strcat,
    Printf,
    Puts,
    Putchar,
    Abort,
    Exit,
    Assert,
    Setjmp,
    Longjmp,
    Rand,
    Srand,
    /// `setbound(p, size)`: explicitly (re)bounds a pointer — the paper's
    /// escape hatch for custom allocators and int-to-pointer casts.
    Setbound,
    /// Number of variadic arguments passed to the current function.
    VaCount,
    /// `va_arg_long(i)`: i-th variadic argument as a long.
    VaArgLong,
    /// `va_arg_ptr(i)`: i-th variadic argument as a pointer (with bounds
    /// under SoftBound).
    VaArgPtr,
}

impl Builtin {
    /// Resolves a source-level name to a builtin.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "malloc" => Builtin::Malloc,
            "calloc" => Builtin::Calloc,
            "free" => Builtin::Free,
            "memcpy" => Builtin::Memcpy,
            "memset" => Builtin::Memset,
            "strcpy" => Builtin::Strcpy,
            "strncpy" => Builtin::Strncpy,
            "strlen" => Builtin::Strlen,
            "strcmp" => Builtin::Strcmp,
            "strncmp" => Builtin::Strncmp,
            "strcat" => Builtin::Strcat,
            "printf" => Builtin::Printf,
            "puts" => Builtin::Puts,
            "putchar" => Builtin::Putchar,
            "abort" => Builtin::Abort,
            "exit" => Builtin::Exit,
            "assert" => Builtin::Assert,
            "setjmp" => Builtin::Setjmp,
            "longjmp" => Builtin::Longjmp,
            "rand" => Builtin::Rand,
            "srand" => Builtin::Srand,
            "setbound" => Builtin::Setbound,
            "va_count" => Builtin::VaCount,
            "va_arg_long" => Builtin::VaArgLong,
            "va_arg_ptr" => Builtin::VaArgPtr,
            _ => return None,
        })
    }

    /// How many of [`sig`](Builtin::sig)'s parameters are pointers,
    /// without building the signature: a call a pointer-based pass wraps
    /// (§5.2) carries one `(base, bound)` pair for each.
    pub fn ptr_params(self) -> usize {
        match self {
            Builtin::Memcpy
            | Builtin::Strcpy
            | Builtin::Strncpy
            | Builtin::Strcmp
            | Builtin::Strncmp
            | Builtin::Strcat => 2,
            Builtin::Free
            | Builtin::Memset
            | Builtin::Strlen
            | Builtin::Printf
            | Builtin::Puts
            | Builtin::Setjmp
            | Builtin::Longjmp
            | Builtin::Setbound => 1,
            _ => 0,
        }
    }

    /// The builtin's signature (`vararg` for printf).
    pub fn sig(self) -> FuncSig {
        let vp = Ty::void_ptr;
        let cp = || Ty::char().ptr_to();
        let (ret, params, vararg) = match self {
            Builtin::Malloc => (vp(), vec![Ty::long()], false),
            Builtin::Calloc => (vp(), vec![Ty::long(), Ty::long()], false),
            Builtin::Free => (Ty::Void, vec![vp()], false),
            Builtin::Memcpy => (vp(), vec![vp(), vp(), Ty::long()], false),
            Builtin::Memset => (vp(), vec![vp(), Ty::int(), Ty::long()], false),
            Builtin::Strcpy => (cp(), vec![cp(), cp()], false),
            Builtin::Strncpy => (cp(), vec![cp(), cp(), Ty::long()], false),
            Builtin::Strlen => (Ty::long(), vec![cp()], false),
            Builtin::Strcmp => (Ty::int(), vec![cp(), cp()], false),
            Builtin::Strncmp => (Ty::int(), vec![cp(), cp(), Ty::long()], false),
            Builtin::Strcat => (cp(), vec![cp(), cp()], false),
            Builtin::Printf => (Ty::int(), vec![cp()], true),
            Builtin::Puts => (Ty::int(), vec![cp()], false),
            Builtin::Putchar => (Ty::int(), vec![Ty::int()], false),
            Builtin::Abort => (Ty::Void, vec![], false),
            Builtin::Exit => (Ty::Void, vec![Ty::int()], false),
            Builtin::Assert => (Ty::Void, vec![Ty::int()], false),
            Builtin::Setjmp => (Ty::int(), vec![Ty::long().ptr_to()], false),
            Builtin::Longjmp => (Ty::Void, vec![Ty::long().ptr_to(), Ty::int()], false),
            Builtin::Rand => (Ty::int(), vec![], false),
            Builtin::Srand => (Ty::Void, vec![Ty::int()], false),
            Builtin::Setbound => (vp(), vec![vp(), Ty::long()], false),
            Builtin::VaCount => (Ty::int(), vec![], false),
            Builtin::VaArgLong => (Ty::long(), vec![Ty::int()], false),
            Builtin::VaArgPtr => (vp(), vec![Ty::int()], false),
        };
        FuncSig {
            ret,
            params,
            vararg,
        }
    }
}

/// An lvalue: a typed recipe for computing an address.
#[derive(Debug, Clone, PartialEq)]
pub enum Place {
    /// A local variable slot.
    Var { id: LocalId, ty: Ty },
    /// A global variable.
    Global { name: String, ty: Ty },
    /// `*ptr`
    Deref { ptr: Box<Expr>, ty: Ty },
    /// `base[index]` where `base` is an *array* place (not pointer).
    Index {
        base: Box<Place>,
        index: Box<Expr>,
        elem: Ty,
    },
    /// `base.field` (and `p->field` as `Field` over `Deref`). Carries the
    /// resolved byte offset and the struct id for diagnostics.
    Field {
        base: Box<Place>,
        sid: StructId,
        offset: u64,
        ty: Ty,
    },
}

impl Place {
    /// The type of the value stored at this place.
    pub fn ty(&self) -> &Ty {
        match self {
            Place::Var { ty, .. }
            | Place::Global { ty, .. }
            | Place::Deref { ty, .. }
            | Place::Field { ty, .. } => ty,
            Place::Index { elem, .. } => elem,
        }
    }
}

/// How a call resolves.
#[derive(Debug, Clone, PartialEq)]
pub enum CallTarget {
    /// A user-defined function by name.
    Direct(String),
    /// A frontend builtin.
    Builtin(Builtin),
    /// An indirect call through a function-pointer value.
    Indirect(Box<Expr>),
}

/// A typed expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression's type (post-conversion).
    pub ty: Ty,
    /// Node kind.
    pub kind: ExprKind,
    /// Source position.
    pub pos: Pos,
}

/// Typed expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer constant (value already wrapped to `ty`).
    Int(i64),
    /// Pointer to an interned string literal (`ty` = `char*`).
    Str(StrId),
    /// Null pointer constant.
    NullPtr,
    /// Read from an lvalue.
    Load(Box<Place>),
    /// Address of an lvalue (`&x`, array decay, `&s.f`…).
    AddrOf(Box<Place>),
    /// Address of a function (function designator / `&f`).
    FuncAddr(String),
    /// Integer unary op.
    Unary(UnaryOp, Box<Expr>),
    /// Integer binary op in kind `k` (operands already converted).
    Binary {
        op: ArithOp,
        k: IntKind,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `ptr ± index` scaled by `elem_size`; bounds are inherited (§3.1).
    PtrAdd {
        ptr: Box<Expr>,
        index: Box<Expr>,
        elem_size: u64,
    },
    /// `(p - q) / elem_size`, type `long`.
    PtrDiff {
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        elem_size: u64,
    },
    /// Comparison yielding `int` 0/1; `signed` applies to the operand kind.
    Cmp {
        op: CmpOp,
        signed: bool,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Short-circuit `&&`/`||` yielding `int` 0/1.
    Logical {
        and: bool,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `c ? t : e`
    Cond {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    /// Assignment expression; value is the stored value.
    Assign { place: Box<Place>, value: Box<Expr> },
    /// `++`/`--` in all four forms. For pointers, steps by `elem_size`.
    IncDec {
        place: Box<Place>,
        inc: bool,
        post: bool,
        elem_size: u64,
    },
    /// Function call.
    Call { target: CallTarget, args: Vec<Expr> },
    /// Conversion.
    Cast { kind: CastKind, arg: Box<Expr> },
}

/// Initializer for a local declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalInit {
    /// Single scalar store.
    Scalar(Expr),
    /// Flattened element stores `(byte offset, value)`; remaining bytes are
    /// zeroed first.
    List(Vec<(u64, Expr)>),
    /// `char buf[] = "text"` — bytes incl. NUL, zero-padded to array size.
    Str(Vec<u8>),
}

/// A typed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Expression evaluated for effect.
    Expr(Expr),
    /// Local declaration (slot exists from function entry; this runs the
    /// initializer at the declaration point).
    DeclInit {
        id: LocalId,
        init: Option<LocalInit>,
    },
    /// Two-armed conditional.
    If {
        cond: Expr,
        then: Vec<Stmt>,
        els: Vec<Stmt>,
    },
    /// `while`
    While { cond: Expr, body: Vec<Stmt> },
    /// `do … while`
    DoWhile { cond: Expr, body: Vec<Stmt> },
    /// `for`, with `continue` targeting `step`.
    For {
        init: Vec<Stmt>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Vec<Stmt>,
    },
    /// Return.
    Return(Option<Expr>),
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// Scoped block.
    Block(Vec<Stmt>),
}

/// A local variable (or parameter) of a function.
#[derive(Debug, Clone, PartialEq)]
pub struct Local {
    /// Source name (for diagnostics and IR dumps).
    pub name: String,
    /// Declared type.
    pub ty: Ty,
    /// True if `&local` occurs anywhere (forces a stack slot; otherwise the
    /// optimizer may promote it to a register, mirroring the paper's note
    /// that register promotion happens before instrumentation).
    pub addr_taken: bool,
}

/// A type-checked function.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Source name.
    pub name: String,
    /// Signature.
    pub sig: FuncSig,
    /// Locals; the first `sig.params.len()` entries are the parameters.
    pub locals: Vec<Local>,
    /// Body (empty for prototypes).
    pub body: Vec<Stmt>,
    /// False for prototypes whose definition lives in another unit.
    pub defined: bool,
}

/// One item of a constant global initializer.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstItem {
    /// Little-endian integer of `size` bytes.
    Int { value: i64, size: u8 },
    /// Pointer to string literal.
    Str(StrId),
    /// Address of (an offset into) another global.
    GlobalAddr { name: String, offset: u64 },
    /// Address of a function.
    FuncAddr(String),
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Source name.
    pub name: String,
    /// Type (size known).
    pub ty: Ty,
    /// Sparse constant initializer: `(offset, item)`, zero elsewhere.
    pub init: Vec<(u64, ConstItem)>,
}

/// A fully type-checked translation unit.
#[derive(Debug, Clone)]
pub struct Program {
    /// Struct/union registry and layout engine.
    pub types: TypeTable,
    /// Globals in declaration order (layout order in the VM's data segment).
    pub globals: Vec<GlobalDef>,
    /// Functions (defined and prototypes).
    pub funcs: Vec<FuncDef>,
    /// Interned string literals (NUL **not** included; the VM appends one).
    pub strings: Vec<Vec<u8>>,
}

impl Program {
    /// Finds a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Finds a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalDef> {
        self.globals.iter().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_lookup() {
        assert_eq!(Builtin::from_name("malloc"), Some(Builtin::Malloc));
        assert_eq!(Builtin::from_name("setbound"), Some(Builtin::Setbound));
        assert_eq!(Builtin::from_name("frobnicate"), None);
    }

    #[test]
    fn builtin_sigs() {
        let m = Builtin::Malloc.sig();
        assert_eq!(m.ret, Ty::void_ptr());
        assert_eq!(m.params, vec![Ty::long()]);
        assert!(!m.vararg);
        assert!(Builtin::Printf.sig().vararg);
        let names = "malloc calloc free memcpy memset strcpy strncpy strlen strcmp strncmp \
                     strcat printf puts putchar abort exit assert setjmp longjmp rand srand \
                     setbound va_count va_arg_long va_arg_ptr";
        for name in names.split_whitespace() {
            let b = Builtin::from_name(name).expect("a builtin");
            let ptrs = b.sig().params.iter().filter(|t| t.is_ptr()).count();
            assert_eq!(b.ptr_params(), ptrs, "{name}");
        }
    }

    #[test]
    fn place_ty() {
        let p = Place::Var {
            id: LocalId(0),
            ty: Ty::int(),
        };
        assert_eq!(*p.ty(), Ty::int());
    }
}
