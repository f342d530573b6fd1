//! The fat-pointer baseline (SafeC / CCured-SEQ style, §2.2).
//!
//! Pointers in memory become 24-byte `{value, base, bound}` triples. The
//! program must therefore be compiled with
//! [`PtrLayout::Fat`](sb_cir::PtrLayout::Fat), which
//! **visibly changes memory layout**: `sizeof(char*)` is 24, struct
//! offsets move, and `sizeof(long) == sizeof(char*)` — an assumption
//! everywhere in real C — breaks. That is the source-compatibility
//! problem the paper's disjoint metadata removes.
//!
//! This module holds the runtime ([`FatPtrRuntime`]);
//! [`Scheme::FatPointer`](crate::Scheme::FatPointer) compiles at the fat
//! layout. The transformation is the shared pointer-based pass,
//! [`softbound::instrument_flavored`] with
//! [`Flavor::Fat`](softbound::Flavor::Fat): the
//! metadata travels inline, so loading a pointer performs three loads
//! (value, base, bound) and storing one performs three stores. There is
//! no metadata table at all — the only runtime call is the bounds check,
//! SoftBound's `SbCheck`, which this runtime prices and reports as its
//! own — so the *performance* profile differs from SoftBound exactly as
//! the paper describes: cheaper metadata access, at the price of layout
//! incompatibility (and of metadata corruptibility through wild writes,
//! the CCured-WILD problem).

use sb_ir::RtFn;
use sb_vm::{out_of_bounds, RtCtx, RtVals, RuntimeHooks, Trap};

/// Runtime for the fat-pointer scheme: only the bounds check — metadata
/// movement is ordinary memory traffic.
#[derive(Debug, Default)]
pub struct FatPtrRuntime;

impl FatPtrRuntime {
    /// Creates the runtime.
    pub fn new() -> Self {
        FatPtrRuntime
    }
}

impl RuntimeHooks for FatPtrRuntime {
    fn rt_call(&mut self, rt: RtFn, args: &[i64], ctx: &mut RtCtx) -> Result<RtVals, Trap> {
        match rt {
            RtFn::SbCheck { is_store } => {
                ctx.cost += 3;
                let (ptr, base, bound, size) = (
                    args[0] as u64,
                    args[1] as u64,
                    args[2] as u64,
                    args[3] as u64,
                );
                if base == 0 || out_of_bounds(ptr, size, base, bound).is_some() {
                    Err(Trap::SpatialViolation {
                        scheme: "fatptr",
                        addr: ptr,
                        write: is_store,
                    })
                } else {
                    Ok([0, 0])
                }
            }
            other => panic!("fatptr runtime received foreign rt call {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use sb_ir::Inst;

    fn run_fat(src: &str) -> sb_vm::RunResult {
        Scheme::FatPointer.run(src, "main", &[]).expect("compiles")
    }

    #[test]
    fn safe_pointer_program_runs() {
        let r = run_fat(
            r#"
            struct node { int v; struct node* next; };
            int main() {
                struct node* head = NULL;
                for (int i = 0; i < 10; i++) {
                    struct node* n = (struct node*)malloc(sizeof(struct node));
                    n->v = i; n->next = head; head = n;
                }
                int s = 0;
                while (head) { s += head->v; head = head->next; }
                return s == 45;
            }"#,
        );
        assert_eq!(r.ret(), Some(1), "{:?}", r.outcome);
    }

    #[test]
    fn overflow_detected() {
        let r = run_fat(
            r#"
            int main() {
                int* p = (int*)malloc(4 * sizeof(int));
                p[4] = 1;
                return 0;
            }"#,
        );
        assert!(r.outcome.is_spatial_violation(), "{:?}", r.outcome);
    }

    #[test]
    fn sub_object_overflow_detected() {
        // SafeC-style fat pointers do shrink to fields (Table 1:
        // complete), like SoftBound.
        let r = run_fat(
            r#"
            struct node { char str[8]; long tag; };
            int main() {
                struct node n;
                n.tag = 7;
                char* p = n.str;
                p[8] = 'x';
                return 0;
            }"#,
        );
        assert!(r.outcome.is_spatial_violation(), "{:?}", r.outcome);
    }

    #[test]
    fn layout_change_is_programmer_visible() {
        // The §2.2 incompatibility, executed: idiomatic C that assumes
        // sizeof(long) == sizeof(char*) returns different results.
        let src = "int main() { return sizeof(char*) == sizeof(long); }";
        let thin = sb_vm::run_source(src, "main", &[]);
        assert_eq!(thin.ret(), Some(1));
        let fat = run_fat(src);
        assert_eq!(fat.ret(), Some(0), "fat pointers break sizeof assumptions");
    }

    #[test]
    fn wild_int_cast_roundtrip_breaks() {
        // CCured-SEQ cannot round-trip pointers through integers: the
        // metadata is lost and the dereference (correct in plain C) traps —
        // the "arbitrary casts: No" column of Table 1.
        let src = r#"
            int main() {
                int x = 5;
                int* p = &x;
                long l = (long)p;
                int* q = (int*)l;
                return *q;
            }
        "#;
        let plain = sb_vm::run_source(src, "main", &[]);
        assert_eq!(plain.ret(), Some(5));
        let fat = run_fat(src);
        assert!(fat.outcome.is_spatial_violation(), "{:?}", fat.outcome);
    }

    #[test]
    fn global_fat_pointer_initializers() {
        let r = run_fat(
            r#"
            int table[4] = {1, 2, 3, 4};
            int* cursor = &table[0];
            int main() { return cursor[0] + cursor[3]; }
        "#,
        );
        assert_eq!(r.ret(), Some(5), "{:?}", r.outcome);
    }

    #[test]
    fn metadata_is_plain_memory_traffic() {
        // No metadata runtime calls exist: only SbCheck.
        let program = Scheme::FatPointer
            .compile("int* g; int main() { int* p = g; g = p; return 0; }")
            .expect("compiles");
        let rt_kinds: Vec<RtFn> = program
            .module()
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
            .filter_map(|i| match i {
                Inst::Rt { rt, .. } => Some(*rt),
                _ => None,
            })
            .collect();
        assert!(
            rt_kinds.iter().all(|rt| matches!(rt, RtFn::SbCheck { .. })),
            "{rt_kinds:?}"
        );
    }
}
