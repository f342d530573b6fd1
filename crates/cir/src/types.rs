//! The CIR-C type system and memory layout engine.
//!
//! Sizes follow the LP64 model the paper evaluates on (64-bit x86):
//! `char` = 1, `short` = 2, `int` = 4, `long` = 8, pointers = 8 bytes.
//! Struct layout uses natural alignment with tail padding; unions overlay
//! all fields at offset 0.
//!
//! The layout engine is parameterized by [`PtrLayout`] so the fat-pointer
//! baseline (SafeC/CCured-style, §2.2 of the paper) can be built from the
//! same frontend: fat pointers occupy 24 bytes (value, base, bound) and
//! visibly change program memory layout — exactly the incompatibility the
//! paper calls out.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Integer kinds (width plus signedness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntKind {
    /// Signed 8-bit (`char`).
    I8,
    /// Unsigned 8-bit (`unsigned char`).
    U8,
    /// Signed 16-bit (`short`).
    I16,
    /// Unsigned 16-bit (`unsigned short`).
    U16,
    /// Signed 32-bit (`int`).
    I32,
    /// Unsigned 32-bit (`unsigned int`).
    U32,
    /// Signed 64-bit (`long`).
    I64,
    /// Unsigned 64-bit (`unsigned long`).
    U64,
}

impl IntKind {
    /// Width in bytes.
    pub fn size(self) -> u64 {
        match self {
            IntKind::I8 | IntKind::U8 => 1,
            IntKind::I16 | IntKind::U16 => 2,
            IntKind::I32 | IntKind::U32 => 4,
            IntKind::I64 | IntKind::U64 => 8,
        }
    }

    /// True for the signed kinds.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            IntKind::I8 | IntKind::I16 | IntKind::I32 | IntKind::I64
        )
    }

    /// The result kind of the usual arithmetic conversions between two
    /// integer kinds: operands are promoted to at least `int`, the wider
    /// width wins, and unsignedness is contagious at equal width.
    pub fn usual_arith(self, other: IntKind) -> IntKind {
        let a = self.promoted();
        let b = other.promoted();
        let size = a.size().max(b.size());
        let unsigned = (!a.is_signed() && a.size() == size) || (!b.is_signed() && b.size() == size);
        match (size, unsigned) {
            (4, false) => IntKind::I32,
            (4, true) => IntKind::U32,
            (8, false) => IntKind::I64,
            (8, true) => IntKind::U64,
            _ => unreachable!("promotion yields at least 4 bytes"),
        }
    }

    /// Integer promotion: anything smaller than `int` becomes `int`.
    pub fn promoted(self) -> IntKind {
        if self.size() < 4 {
            IntKind::I32
        } else {
            self
        }
    }

    /// Truncate-and-extend an `i64` register value to this kind's range.
    pub fn wrap(self, v: i64) -> i64 {
        match self {
            IntKind::I8 => v as i8 as i64,
            IntKind::U8 => v as u8 as i64,
            IntKind::I16 => v as i16 as i64,
            IntKind::U16 => v as u16 as i64,
            IntKind::I32 => v as i32 as i64,
            IntKind::U32 => v as u32 as i64,
            IntKind::I64 => v,
            IntKind::U64 => v,
        }
    }
}

impl fmt::Display for IntKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IntKind::I8 => "char",
            IntKind::U8 => "unsigned char",
            IntKind::I16 => "short",
            IntKind::U16 => "unsigned short",
            IntKind::I32 => "int",
            IntKind::U32 => "unsigned int",
            IntKind::I64 => "long",
            IntKind::U64 => "unsigned long",
        };
        f.write_str(s)
    }
}

/// Identifier of a struct or union definition inside a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// A CIR-C type.
///
/// Compound types share their payloads, so cloning a type never
/// allocates: the checker copies a variable's type into every use.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// `void` — only meaningful as a return type or behind a pointer.
    Void,
    /// Integer types.
    Int(IntKind),
    /// Pointer to a pointee type (`void*` is `Ptr(Void)`).
    Ptr(Rc<Ty>),
    /// Fixed-size array.
    Array(Rc<Ty>, u64),
    /// Struct or union, by id.
    Struct(StructId),
    /// Function type; appears only behind a pointer.
    Func(Rc<FuncSig>),
}

impl Ty {
    /// `char`
    pub fn char() -> Ty {
        Ty::Int(IntKind::I8)
    }

    /// `int`
    pub fn int() -> Ty {
        Ty::Int(IntKind::I32)
    }

    /// `long`
    pub fn long() -> Ty {
        Ty::Int(IntKind::I64)
    }

    /// `void*`
    pub fn void_ptr() -> Ty {
        Ty::Ptr(Rc::new(Ty::Void))
    }

    /// Wraps `self` in a pointer.
    pub fn ptr_to(self) -> Ty {
        Ty::Ptr(Rc::new(self))
    }

    /// True for any pointer type (including function pointers).
    pub fn is_ptr(&self) -> bool {
        matches!(self, Ty::Ptr(_))
    }

    /// True for integer types.
    pub fn is_int(&self) -> bool {
        matches!(self, Ty::Int(_))
    }

    /// True for types usable in arithmetic or conditions.
    pub fn is_scalar(&self) -> bool {
        self.is_int() || self.is_ptr()
    }

    /// The pointee of a pointer type.
    pub fn pointee(&self) -> Option<&Ty> {
        match self {
            Ty::Ptr(p) => Some(p),
            _ => None,
        }
    }

    /// Integer kind, if integer.
    pub fn int_kind(&self) -> Option<IntKind> {
        match self {
            Ty::Int(k) => Some(*k),
            _ => None,
        }
    }

    /// True if values of this type are (or contain) pointers that SoftBound
    /// must track: pointers themselves, arrays of such, structs with such
    /// fields. Used by the metadata-clearing and memcpy heuristics (§5.2).
    pub fn contains_ptr(&self, table: &TypeTable) -> bool {
        match self {
            Ty::Ptr(_) => true,
            Ty::Array(e, _) => e.contains_ptr(table),
            Ty::Struct(id) => table.fields(*id).iter().any(|f| f.ty.contains_ptr(table)),
            _ => false,
        }
    }
}

/// A function signature (return type, parameters, variadic flag).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuncSig {
    /// Return type (`Ty::Void` for none).
    pub ret: Ty,
    /// Parameter types, in order.
    pub params: Vec<Ty>,
    /// True for `...` variadic functions.
    pub vararg: bool,
}

/// A struct/union field with its resolved byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Ty,
    /// Byte offset from the start of the aggregate (0 for all union fields).
    pub offset: u64,
}

/// A struct or union definition with computed layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Source tag name (synthesized for anonymous aggregates).
    pub name: String,
    /// Fields with resolved offsets.
    pub fields: Vec<Field>,
    /// Total size in bytes (with tail padding).
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// True for unions.
    pub is_union: bool,
}

/// How pointers are represented in program-visible memory.
///
/// [`PtrLayout::Thin`] is normal C (8 bytes) and what SoftBound preserves;
/// [`PtrLayout::Fat`] is the SafeC/CCured-SEQ fat-pointer representation
/// (24 bytes: value, base, bound), which changes struct layout and `sizeof`
/// results — the source-compatibility problem of §2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PtrLayout {
    /// 8-byte machine pointers (the default).
    #[default]
    Thin,
    /// 24-byte `{value, base, bound}` fat pointers.
    Fat,
}

impl PtrLayout {
    /// Bytes a pointer occupies in memory under this layout.
    pub fn ptr_size(self) -> u64 {
        match self {
            PtrLayout::Thin => 8,
            PtrLayout::Fat => 24,
        }
    }

    /// Alignment of a pointer under this layout.
    pub fn ptr_align(self) -> u64 {
        8
    }
}

/// Registry of struct/union definitions plus the layout engine.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    defs: Vec<StructDef>,
    by_name: HashMap<String, StructId>,
    layout: PtrLayout,
}

impl TypeTable {
    /// Creates an empty table with thin (8-byte) pointers.
    pub fn new() -> Self {
        Self::with_layout(PtrLayout::Thin)
    }

    /// Creates an empty table with the given pointer layout.
    pub fn with_layout(layout: PtrLayout) -> Self {
        TypeTable {
            defs: Vec::new(),
            by_name: HashMap::new(),
            layout,
        }
    }

    /// Reserves an id for a named struct before its fields are known,
    /// enabling recursive types (`struct list { struct list* next; }`).
    pub fn declare(&mut self, name: &str, is_union: bool) -> StructId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = StructId(self.defs.len() as u32);
        self.defs.push(StructDef {
            name: name.to_owned(),
            fields: Vec::new(),
            size: 0,
            align: 1,
            is_union,
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Installs the fields of a previously declared aggregate and computes
    /// its layout. Returns false, leaving the aggregate undefined, when a
    /// field offset or the aggregate's size does not fit in a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if a field has unknown size (e.g. an incomplete struct by
    /// value); the type checker rejects such programs first.
    #[must_use]
    pub fn define(&mut self, id: StructId, raw_fields: Vec<(String, Ty)>) -> bool {
        let is_union = self.defs[id.0 as usize].is_union;
        let mut fields = Vec::with_capacity(raw_fields.len());
        let mut size: u64 = 0;
        let mut align: u64 = 1;
        for (name, ty) in raw_fields {
            let fa = self.align_of(&ty);
            let Some(fs) = self.checked_size_of(&ty) else {
                return false;
            };
            align = align.max(fa);
            let offset = if is_union {
                size = size.max(fs);
                0
            } else {
                let Some(off) = round_up(size, fa) else {
                    return false;
                };
                let Some(end) = off.checked_add(fs) else {
                    return false;
                };
                size = end;
                off
            };
            fields.push(Field { name, ty, offset });
        }
        let Some(size) = round_up(size.max(if fields.is_empty() { 0 } else { 1 }), align) else {
            return false;
        };
        let def = &mut self.defs[id.0 as usize];
        def.fields = fields;
        def.size = size;
        def.align = align;
        true
    }

    /// Looks up a struct id by tag name.
    pub fn lookup(&self, name: &str) -> Option<StructId> {
        self.by_name.get(name).copied()
    }

    /// The definition for an id.
    pub fn def(&self, id: StructId) -> &StructDef {
        &self.defs[id.0 as usize]
    }

    /// Fields of an aggregate.
    pub fn fields(&self, id: StructId) -> &[Field] {
        &self.defs[id.0 as usize].fields
    }

    /// Finds a field by name.
    pub fn field(&self, id: StructId, name: &str) -> Option<&Field> {
        self.fields(id).iter().find(|f| f.name == name)
    }

    /// Number of registered aggregates.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True when no aggregates are registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Size of a type in bytes under the table's pointer layout.
    ///
    /// # Panics
    ///
    /// Panics for `void` and function types, which have no size.
    pub fn size_of(&self, ty: &Ty) -> u64 {
        match ty {
            Ty::Void => panic!("void has no size"),
            Ty::Int(k) => k.size(),
            Ty::Ptr(_) => self.layout.ptr_size(),
            Ty::Array(e, n) => self.size_of(e) * n,
            Ty::Struct(id) => self.def(*id).size,
            Ty::Func(_) => panic!("function types have no size"),
        }
    }

    /// [`size_of`](Self::size_of), or `None` when an array's size does not
    /// fit in a `u64`. `void` and function types have no size to
    /// overflow: they count as 0 here, and whether they may be used by
    /// value is the type checker's call.
    pub fn checked_size_of(&self, ty: &Ty) -> Option<u64> {
        match ty {
            Ty::Void | Ty::Func(_) => Some(0),
            Ty::Array(e, n) => self.checked_size_of(e)?.checked_mul(*n),
            _ => Some(self.size_of(ty)),
        }
    }

    /// Alignment of a type in bytes.
    pub fn align_of(&self, ty: &Ty) -> u64 {
        match ty {
            Ty::Void => 1,
            Ty::Int(k) => k.size(),
            Ty::Ptr(_) => self.layout.ptr_align(),
            Ty::Array(e, _) => self.align_of(e),
            Ty::Struct(id) => self.def(*id).align,
            Ty::Func(_) => 1,
        }
    }

    /// Renders a type for diagnostics.
    pub fn display(&self, ty: &Ty) -> String {
        match ty {
            Ty::Void => "void".into(),
            Ty::Int(k) => k.to_string(),
            Ty::Ptr(p) => format!("{}*", self.display(p)),
            Ty::Array(e, n) => format!("{}[{n}]", self.display(e)),
            Ty::Struct(id) => {
                let d = self.def(*id);
                format!("{} {}", if d.is_union { "union" } else { "struct" }, d.name)
            }
            Ty::Func(sig) => {
                let params: Vec<String> = sig.params.iter().map(|p| self.display(p)).collect();
                format!("{}({})", self.display(&sig.ret), params.join(", "))
            }
        }
    }
}

/// Rounds `v` up to the next multiple of `align` (which must be a power of
/// two or any positive integer; simple arithmetic is used), or `None`
/// when the result does not fit in a `u64`.
pub fn round_up(v: u64, align: u64) -> Option<u64> {
    if align <= 1 {
        Some(v)
    } else {
        v.div_ceil(align).checked_mul(align)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_kind_sizes() {
        assert_eq!(IntKind::I8.size(), 1);
        assert_eq!(IntKind::U16.size(), 2);
        assert_eq!(IntKind::I32.size(), 4);
        assert_eq!(IntKind::U64.size(), 8);
    }

    #[test]
    fn usual_arith_promotes_char_to_int() {
        assert_eq!(IntKind::I8.usual_arith(IntKind::I8), IntKind::I32);
    }

    #[test]
    fn usual_arith_unsigned_wins_at_same_width() {
        assert_eq!(IntKind::U32.usual_arith(IntKind::I32), IntKind::U32);
        assert_eq!(IntKind::I64.usual_arith(IntKind::U64), IntKind::U64);
    }

    #[test]
    fn usual_arith_wider_signed_beats_narrow_unsigned() {
        assert_eq!(IntKind::U32.usual_arith(IntKind::I64), IntKind::I64);
    }

    #[test]
    fn wrap_truncates() {
        assert_eq!(IntKind::I8.wrap(300), 44);
        assert_eq!(IntKind::U8.wrap(-1), 255);
        assert_eq!(IntKind::I32.wrap(1 << 40), 0);
        assert_eq!(IntKind::U32.wrap(-1), 0xffff_ffff);
    }

    #[test]
    fn struct_layout_natural_alignment() {
        let mut t = TypeTable::new();
        let id = t.declare("node", false);
        assert!(t.define(
            id,
            vec![
                ("c".into(), Ty::char()),
                ("i".into(), Ty::int()),
                ("p".into(), Ty::char().ptr_to()),
            ],
        ));
        let d = t.def(id);
        assert_eq!(d.fields[0].offset, 0);
        assert_eq!(d.fields[1].offset, 4);
        assert_eq!(d.fields[2].offset, 8);
        assert_eq!(d.size, 16);
        assert_eq!(d.align, 8);
    }

    #[test]
    fn struct_tail_padding() {
        let mut t = TypeTable::new();
        let id = t.declare("s", false);
        assert!(t.define(
            id,
            vec![("p".into(), Ty::int().ptr_to()), ("c".into(), Ty::char())],
        ));
        assert_eq!(t.def(id).size, 16);
    }

    #[test]
    fn union_overlays_fields() {
        let mut t = TypeTable::new();
        let id = t.declare("u", true);
        assert!(t.define(
            id,
            vec![
                ("i".into(), Ty::long()),
                ("c".into(), Ty::Array(Rc::new(Ty::char()), 3)),
            ],
        ));
        let d = t.def(id);
        assert_eq!(d.fields[0].offset, 0);
        assert_eq!(d.fields[1].offset, 0);
        assert_eq!(d.size, 8);
    }

    #[test]
    fn recursive_struct_via_declare() {
        let mut t = TypeTable::new();
        let id = t.declare("list", false);
        assert!(t.define(
            id,
            vec![
                ("v".into(), Ty::int()),
                ("next".into(), Ty::Struct(id).ptr_to()),
            ],
        ));
        assert_eq!(t.def(id).size, 16);
    }

    #[test]
    fn fat_pointers_change_layout() {
        let mut thin = TypeTable::new();
        let a = thin.declare("s", false);
        assert!(thin.define(
            a,
            vec![("p".into(), Ty::char().ptr_to()), ("v".into(), Ty::long())],
        ));

        let mut fat = TypeTable::with_layout(PtrLayout::Fat);
        let b = fat.declare("s", false);
        assert!(fat.define(
            b,
            vec![("p".into(), Ty::char().ptr_to()), ("v".into(), Ty::long())],
        ));

        assert_eq!(thin.def(a).size, 16);
        assert_eq!(
            fat.def(b).size,
            32,
            "fat pointers visibly change memory layout"
        );
    }

    #[test]
    fn contains_ptr_walks_aggregates() {
        let mut t = TypeTable::new();
        let inner = t.declare("inner", false);
        assert!(t.define(inner, vec![("p".into(), Ty::void_ptr())]));
        let outer = t.declare("outer", false);
        assert!(t.define(
            outer,
            vec![("arr".into(), Ty::Array(Rc::new(Ty::Struct(inner)), 4))],
        ));
        assert!(Ty::Struct(outer).contains_ptr(&t));
        assert!(!Ty::long().contains_ptr(&t));
    }

    #[test]
    fn display_types() {
        let mut t = TypeTable::new();
        let id = t.declare("n", false);
        assert!(t.define(id, vec![]));
        assert_eq!(t.display(&Ty::char().ptr_to().ptr_to()), "char**");
        assert_eq!(t.display(&Ty::Array(Rc::new(Ty::int()), 4)), "int[4]");
        assert_eq!(t.display(&Ty::Struct(id)), "struct n");
    }

    #[test]
    fn layouts_past_two_to_the_64_bytes_are_refused() {
        let mut t = TypeTable::new();
        let bytes = |n| Ty::Array(Rc::new(Ty::char()), n);
        let big = Ty::Array(Rc::new(bytes(2)), i64::MAX as u64);
        assert_eq!(t.checked_size_of(&big), Some(u64::MAX - 1));
        assert_eq!(t.checked_size_of(&Ty::Array(Rc::new(big.clone()), 2)), None);
        // A field whose aligned offset overflows, then one whose end does.
        let offset = t.declare("offset", false);
        assert!(!t.define(
            offset,
            vec![
                ("a".into(), big),
                ("b".into(), Ty::char()),
                ("c".into(), Ty::long()),
            ],
        ));
        let end = t.declare("end", false);
        assert!(!t.define(
            end,
            vec![
                ("c".into(), Ty::char()),
                ("a".into(), Ty::Array(Rc::new(Ty::long()), u64::MAX / 8)),
            ],
        ));
    }

    #[test]
    fn round_up_works() {
        assert_eq!(round_up(0, 8), Some(0));
        assert_eq!(round_up(1, 8), Some(8));
        assert_eq!(round_up(8, 8), Some(8));
        assert_eq!(round_up(9, 4), Some(12));
        assert_eq!(round_up(5, 1), Some(5));
        assert_eq!(round_up(u64::MAX - 2, 4), None);
    }
}
