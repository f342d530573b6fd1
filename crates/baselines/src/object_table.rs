//! Object-based approaches (§2.1): Jones-Kelly-style arithmetic+deref
//! checking and Mudflap-style dereference checking, both over a splay-tree
//! object registry.
//!
//! These schemes register every allocation (globals, stack, heap) in a
//! lookup structure and check accesses at *whole-object* granularity.
//! They are highly compatible — no pointer representation or signature
//! changes at all — but **incomplete**: a pointer to `node.str` is
//! indistinguishable from a pointer to `node`, so sub-object overflows
//! (the paper's §2.1 example) pass unnoticed. That incompleteness, plus
//! splay-lookup cost on every checked operation, is exactly what Table 1
//! and Table 4 report.

use crate::splay::SplayTree;
use sb_ir::{Inst, Module, RtFn, Value};
use sb_vm::{RtCtx, RtVals, RuntimeHooks, Trap};

/// Synthetic address region of the object table (for the cache model).
pub const OBJTABLE_BASE: u64 = 0x0000_1C00_0000_0000;

/// Which object-based scheme to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectScheme {
    /// Jones & Kelly: checks pointer arithmetic *and* dereferences.
    JonesKelly,
    /// GCC Mudflap: checks dereferences only.
    Mudflap,
}

impl ObjectScheme {
    /// Scheme label used in traps and reports.
    pub fn name(self) -> &'static str {
        match self {
            ObjectScheme::JonesKelly => "jones-kelly",
            ObjectScheme::Mudflap => "mudflap",
        }
    }
}

/// Instruments every load and store with a [`RtFn::DerefCheck`] of its
/// address and size, and under Jones-Kelly every `gep` with an arithmetic
/// check. No functions are renamed and no signatures change — the
/// compatibility advantage of object-based schemes (Table 1). Mudflap's
/// dereference-only pass also models Valgrind's interception of every
/// memory access.
pub fn instrument_object_scheme(module: &Module, scheme: ObjectScheme) -> Module {
    let mut m = module.clone();
    let arith = scheme == ObjectScheme::JonesKelly;
    for f in &mut m.funcs {
        if !f.defined {
            continue;
        }
        for b in &mut f.blocks {
            let insts = std::mem::take(&mut b.insts);
            let mut out = Vec::with_capacity(insts.len() * 2);
            for inst in insts {
                match &inst {
                    Inst::Load { mem, addr, .. } => {
                        out.push(Inst::Rt {
                            dsts: vec![],
                            rt: RtFn::DerefCheck { is_store: false },
                            args: vec![*addr, Value::Const(mem.size() as i64)],
                        });
                        out.push(inst);
                    }
                    Inst::Store { mem, addr, .. } => {
                        out.push(Inst::Rt {
                            dsts: vec![],
                            rt: RtFn::DerefCheck { is_store: true },
                            args: vec![*addr, Value::Const(mem.size() as i64)],
                        });
                        out.push(inst);
                    }
                    Inst::Gep { dst, base, .. } if arith => {
                        let (dst, base) = (*dst, *base);
                        out.push(inst);
                        out.push(Inst::Rt {
                            dsts: vec![],
                            rt: RtFn::ObjCheckArith,
                            args: vec![base, Value::Reg(dst)],
                        });
                    }
                    _ => out.push(inst),
                }
            }
            b.insts = out;
        }
    }
    m
}

/// The object-table runtime shared by Jones-Kelly and Mudflap.
pub struct ObjectTableRuntime {
    tree: SplayTree,
    scheme: ObjectScheme,
}

impl ObjectTableRuntime {
    /// Creates a runtime for the given scheme.
    pub fn new(scheme: ObjectScheme) -> Self {
        ObjectTableRuntime {
            tree: SplayTree::new(),
            scheme,
        }
    }

    fn charge(visited: u64, ctx: &mut RtCtx) {
        // ~6 instructions of fixed overhead per check plus ~3 per splay
        // node visited (compare + two pointer loads).
        ctx.cost += 6 + 3 * visited;
        for i in 0..visited.min(8) {
            ctx.touch(OBJTABLE_BASE + i * 64);
        }
    }

    /// One whole-object check: the `size` bytes at `ptr` must lie in a
    /// registered object.
    fn deref_check(
        &mut self,
        ptr: u64,
        size: u64,
        write: bool,
        ctx: &mut RtCtx,
    ) -> Result<(), Trap> {
        let (hit, visited) = self.tree.find_covering(ptr);
        Self::charge(visited, ctx);
        match hit {
            Some((base, osize)) if ptr + size <= base + osize => Ok(()),
            _ => Err(Trap::SpatialViolation {
                scheme: self.scheme.name(),
                addr: ptr,
                write,
            }),
        }
    }
}

impl RuntimeHooks for ObjectTableRuntime {
    fn rt_call(&mut self, rt: RtFn, args: &[i64], ctx: &mut RtCtx) -> Result<RtVals, Trap> {
        match rt {
            RtFn::DerefCheck { is_store } => {
                self.deref_check(args[0] as u64, args[1] as u64, is_store, ctx)?;
                Ok([0, 0])
            }
            RtFn::ObjCheckArith => {
                let (src, dst) = (args[0] as u64, args[1] as u64);
                // Find the object containing the source pointer; tolerate
                // the C "one past the end" position by probing src-1.
                let (hit, v1) = self.tree.find_covering(src);
                let (hit, visited) = match hit {
                    Some(h) => (Some(h), v1),
                    None if src > 0 => {
                        let (h2, v2) = self.tree.find_covering(src - 1);
                        (h2, v1 + v2)
                    }
                    None => (None, v1),
                };
                Self::charge(visited, ctx);
                match hit {
                    // Result must stay within the same object (one past
                    // the end allowed), the Jones-Kelly rule.
                    Some((base, osize)) => {
                        if dst >= base && dst <= base + osize {
                            Ok([0, 0])
                        } else {
                            Err(Trap::SpatialViolation {
                                scheme: self.scheme.name(),
                                addr: dst,
                                write: false,
                            })
                        }
                    }
                    // Untracked source (forged/int-cast pointers): the
                    // object table cannot check — permissive, like the
                    // real tools.
                    None => Ok([0, 0]),
                }
            }
            other => panic!("object-table runtime received foreign rt call {other:?}"),
        }
    }

    fn on_malloc(&mut self, addr: u64, size: u64, ctx: &mut RtCtx) {
        let visited = self.tree.insert(addr, size.max(1));
        ctx.cost += 8 + 3 * visited;
    }

    fn on_free(&mut self, addr: u64, _size: u64, _ptr_hint: bool, ctx: &mut RtCtx) {
        if let Some(visited) = self.tree.remove(addr) {
            ctx.cost += 6 + 3 * visited;
        }
    }

    fn on_alloca(&mut self, addr: u64, info: &sb_ir::AllocaInfo, ctx: &mut RtCtx) {
        let visited = self.tree.insert(addr, info.size.max(1));
        ctx.cost += 8 + 3 * visited;
    }

    fn on_frame_exit(&mut self, allocas: &[(u64, &sb_ir::AllocaInfo)], ctx: &mut RtCtx) {
        for &(addr, _) in allocas {
            if let Some(visited) = self.tree.remove(addr) {
                ctx.cost += 6 + 3 * visited;
            }
        }
    }

    fn on_global(&mut self, addr: u64, size: u64, _ctx: &mut RtCtx) {
        self.tree.insert(addr, size.max(1));
    }

    /// The libc wrappers of object-based tools: one whole-object check
    /// per buffer, by address alone.
    fn check_builtin_range(
        &mut self,
        ptr: u64,
        len: u64,
        write: bool,
        _bounds: Option<(u64, u64)>,
        ctx: &mut RtCtx,
    ) -> Result<u64, Trap> {
        self.deref_check(ptr, len, write, ctx)?;
        Ok(len)
    }

    fn reset(&mut self) {
        self.tree = SplayTree::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use sb_vm::Outcome;

    fn run_with(src: &str, scheme: ObjectScheme) -> sb_vm::RunResult {
        let scheme = match scheme {
            ObjectScheme::JonesKelly => Scheme::JonesKelly,
            ObjectScheme::Mudflap => Scheme::Mudflap,
        };
        scheme.run(src, "main", &[]).expect("compiles")
    }

    #[test]
    fn safe_program_no_false_positives() {
        for scheme in [ObjectScheme::JonesKelly, ObjectScheme::Mudflap] {
            let r = run_with(
                r#"
                struct node { int v; struct node* next; };
                int main() {
                    struct node* head = NULL;
                    for (int i = 0; i < 20; i++) {
                        struct node* n = (struct node*)malloc(sizeof(struct node));
                        n->v = i; n->next = head; head = n;
                    }
                    int s = 0;
                    while (head) { s += head->v; struct node* t = head->next; free(head); head = t; }
                    return s == 190;
                }"#,
                scheme,
            );
            assert_eq!(r.ret(), Some(1), "{scheme:?}: {:?}", r.outcome);
        }
    }

    #[test]
    fn whole_object_overflow_detected() {
        for scheme in [ObjectScheme::JonesKelly, ObjectScheme::Mudflap] {
            let r = run_with(
                r#"
                int main() {
                    char* p = (char*)malloc(8);
                    p[8] = 'x';
                    return 0;
                }"#,
                scheme,
            );
            assert!(
                r.outcome.is_spatial_violation(),
                "{scheme:?}: {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn stack_and_global_overflows_detected() {
        for scheme in [ObjectScheme::JonesKelly, ObjectScheme::Mudflap] {
            let stack = run_with(
                "int main() { char b[8]; for (int i = 0; i <= 8; i++) b[i] = 1; return 0; }",
                scheme,
            );
            assert!(
                stack.outcome.is_spatial_violation(),
                "{scheme:?} stack: {:?}",
                stack.outcome
            );
            let global = run_with(
                "char g[8]; int main() { for (int i = 0; i <= 8; i++) g[i] = 1; return 0; }",
                scheme,
            );
            assert!(
                global.outcome.is_spatial_violation(),
                "{scheme:?} global: {:?}",
                global.outcome
            );
        }
    }

    #[test]
    fn sub_object_overflow_missed() {
        // §2.1: object granularity cannot see intra-object overflows —
        // the function pointer is silently clobbered.
        for scheme in [ObjectScheme::JonesKelly, ObjectScheme::Mudflap] {
            let r = run_with(
                r#"
                struct node { char str[8]; long tag; };
                int main() {
                    struct node n;
                    n.tag = 7;
                    char* p = n.str;
                    strcpy(p, "overflow...");  // 12 bytes into an 8-byte field
                    return n.tag == 7;
                }"#,
                scheme,
            );
            assert_eq!(
                r.ret(),
                Some(0),
                "{scheme:?} must MISS the sub-object overflow (tag clobbered): {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn jones_kelly_checks_arithmetic_mudflap_does_not() {
        // Walking a pointer far outside the object then back without
        // dereferencing: Jones-Kelly traps at the arithmetic, Mudflap
        // allows it (it only checks dereferences).
        let src = r#"
            int main() {
                int a[8];
                int* p = a;
                p = p + 100;  // far out of bounds
                p = p - 100;
                *p = 1;
                return a[0];
            }
        "#;
        let jk = run_with(src, ObjectScheme::JonesKelly);
        assert!(
            jk.outcome.is_spatial_violation(),
            "Jones-Kelly traps on out-of-object arithmetic (a known compatibility cost): {:?}",
            jk.outcome
        );
        let mf = run_with(src, ObjectScheme::Mudflap);
        assert_eq!(
            mf.ret(),
            Some(1),
            "Mudflap tolerates transient OOB pointers: {:?}",
            mf.outcome
        );
    }

    #[test]
    fn one_past_the_end_arithmetic_allowed() {
        let r = run_with(
            r#"
            int main() {
                int a[8];
                int* end = a + 8; // one past: legal C, must not trap
                return end - a == 8;
            }"#,
            ObjectScheme::JonesKelly,
        );
        assert_eq!(r.ret(), Some(1), "{:?}", r.outcome);
    }

    #[test]
    fn object_lifecycle_tracked() {
        let r = run_with(
            r#"
            int main() {
                for (int i = 0; i < 100; i++) {
                    char* p = (char*)malloc(16);
                    p[15] = 1;
                    free(p);
                }
                return 1;
            }"#,
            ObjectScheme::Mudflap,
        );
        assert_eq!(r.ret(), Some(1), "{:?}", r.outcome);
    }

    #[test]
    fn use_after_free_detected_via_deregistration() {
        let r = run_with(
            r#"
            int main() {
                char* p = (char*)malloc(16);
                free(p);
                p[0] = 1; // object gone from the table
                return 0;
            }"#,
            ObjectScheme::Mudflap,
        );
        assert!(r.outcome.is_spatial_violation(), "{:?}", r.outcome);
        let _ = Outcome::Finished { ret: 0 };
    }
}
