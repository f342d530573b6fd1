//! An MSCC-like baseline (Xu, DuVarney & Sekar, FSE 2004 — \[34\] in the
//! paper).
//!
//! Like SoftBound, MSCC keeps pointer metadata out of line and eschews
//! whole-program analysis; unlike SoftBound (§2.2, §6.5):
//!
//! * its best-performing configuration tracks bounds at **allocation
//!   granularity**, so sub-object overflows are missed;
//! * it **cannot handle arbitrary casts** — pointers forged from integers
//!   are effectively unchecked;
//! * its metadata access path is costlier (linked metadata structures
//!   mirroring the data), which the paper quantifies as 17–185% overhead
//!   (average 68%), e.g. 144% on `go` vs SoftBound's 55%.
//!
//! This module holds the runtime. The transformation is SoftBound's own,
//! [`softbound::instrument_flavored`] with [`Flavor::Mscc`], which gives
//! whole-object bounds at field GEPs and unbounded metadata to any pointer
//! forged from an integer; only the flavor and the runtime cost profile
//! differ.

use sb_ir::{Module, RtFn};
use sb_vm::{out_of_bounds, Mem, RtCtx, RtVals, RuntimeHooks, Trap};
use softbound::{instrument_flavored, Flavor, Meta, SoftBoundConfig};
use std::collections::HashMap;

/// Synthetic address region of MSCC's metadata structures.
pub const MSCC_META_BASE: u64 = 0x0000_1A00_0000_0000;

/// Cost of one MSCC metadata access (pointer-to-metadata indirection
/// through mirrored structures).
pub const MSCC_META_COST: u64 = 12;
/// Cost of one MSCC bounds check.
pub const MSCC_CHECK_COST: u64 = 4;

/// Instruments a module MSCC-style.
pub fn instrument_mscc(module: &Module) -> Module {
    instrument_flavored(module, &SoftBoundConfig::default(), Flavor::Mscc)
}

/// The MSCC runtime: disjoint metadata with a costlier access path and no
/// NULL-bounds special case for forged pointers (the transformation gives
/// those unbounded metadata instead).
#[derive(Debug, Default)]
pub struct MsccRuntime {
    meta: HashMap<u64, Meta>,
    /// Checks performed.
    pub check_count: u64,
}

impl MsccRuntime {
    /// Creates the runtime.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RuntimeHooks for MsccRuntime {
    fn rt_call(
        &mut self,
        rt: RtFn,
        args: &[i64],
        _mem: &mut Mem,
        ctx: &mut RtCtx,
    ) -> Result<RtVals, Trap> {
        match rt {
            RtFn::MsccCheck { is_store } => {
                self.check_count += 1;
                ctx.cost += MSCC_CHECK_COST;
                let (ptr, base, bound, size) = (
                    args[0] as u64,
                    args[1] as u64,
                    args[2] as u64,
                    args[3] as u64,
                );
                if out_of_bounds(ptr, size, base, bound).is_some() {
                    Err(Trap::SpatialViolation {
                        scheme: "mscc",
                        addr: ptr,
                        write: is_store,
                    })
                } else {
                    Ok([0, 0])
                }
            }
            RtFn::MsccMetaLoad => {
                let slot = (args[0] as u64) >> 3;
                ctx.cost += MSCC_META_COST;
                ctx.touch(MSCC_META_BASE + slot * 16);
                let m = self.meta.get(&slot).copied().unwrap_or(Meta::NULL);
                Ok([m.base as i64, m.bound as i64])
            }
            RtFn::MsccMetaStore => {
                let slot = (args[0] as u64) >> 3;
                ctx.cost += MSCC_META_COST;
                ctx.touch(MSCC_META_BASE + slot * 16);
                let m = Meta {
                    base: args[1] as u64,
                    bound: args[2] as u64,
                };
                if m.is_null() {
                    self.meta.remove(&slot);
                } else {
                    self.meta.insert(slot, m);
                }
                Ok([0, 0])
            }
            RtFn::MsccVaCheck => {
                ctx.cost += 2;
                if args[0] < 0 || args[0] as u64 >= ctx.vararg_count {
                    Err(Trap::SpatialViolation {
                        scheme: "mscc",
                        addr: args[0] as u64,
                        write: false,
                    })
                } else {
                    Ok([0, 0])
                }
            }
            // The shared transformation emits these family-neutral
            // helpers for memcpy metadata movement.
            RtFn::SbMemcpyMeta => {
                let (dst, src, len) = (args[0] as u64, args[1] as u64, args[2] as u64);
                let mut off = 0;
                while off < len {
                    ctx.cost += 2 * MSCC_META_COST;
                    let m = self
                        .meta
                        .get(&((src + off) >> 3))
                        .copied()
                        .unwrap_or(Meta::NULL);
                    if m.is_null() {
                        self.meta.remove(&((dst + off) >> 3));
                    } else {
                        self.meta.insert((dst + off) >> 3, m);
                    }
                    off += 8;
                }
                Ok([0, 0])
            }
            other => panic!("mscc runtime received foreign rt call {other:?}"),
        }
    }

    fn on_free(&mut self, addr: u64, size: u64, ptr_hint: bool, ctx: &mut RtCtx) {
        if ptr_hint {
            let mut a = addr & !7;
            while a < addr + size {
                self.meta.remove(&(a >> 3));
                ctx.cost += 2;
                a += 8;
            }
        }
    }

    fn reset(&mut self) {
        self.meta.clear();
        self.check_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;

    fn run(src: &str) -> sb_vm::RunResult {
        Scheme::Mscc.run(src, "main", &[]).expect("compiles")
    }

    #[test]
    fn functions_renamed_mscc() {
        let prog = sb_cir::compile("int main() { return 0; }").expect("compiles");
        let m = sb_ir::lower(&prog, "t");
        let m = instrument_mscc(&m);
        assert!(m.func("_mscc_main").is_some());
    }

    #[test]
    fn safe_program_runs() {
        let r = run(r#"
            int main() {
                int* p = (int*)malloc(8 * sizeof(int));
                for (int i = 0; i < 8; i++) p[i] = i;
                int s = 0;
                for (int i = 0; i < 8; i++) s += p[i];
                free(p);
                return s == 28;
            }"#);
        assert_eq!(r.ret(), Some(1), "{:?}", r.outcome);
    }

    #[test]
    fn whole_object_overflow_detected() {
        let r = run(r#"
            int main() {
                char* p = (char*)malloc(8);
                p[8] = 'x';
                return 0;
            }"#);
        assert!(r.outcome.is_spatial_violation(), "{:?}", r.outcome);
    }

    #[test]
    fn sub_object_overflow_missed() {
        // MSCC's fast configuration keeps allocation-granularity bounds:
        // the intra-struct overflow corrupts the neighbour silently
        // (Table 1 "Complete (subfield access)": No).
        let r = run(r#"
            struct node { char str[8]; long tag; };
            int main() {
                struct node n;
                n.tag = 7;
                char* p = n.str;
                p[8] = 'x';
                return n.tag == 7;
            }"#);
        assert_eq!(
            r.ret(),
            Some(0),
            "sub-object overflow must be missed: {:?}",
            r.outcome
        );
    }

    #[test]
    fn wild_casts_not_handled() {
        // A forged pointer is unchecked under MSCC (unbounded metadata)
        // where SoftBound aborts (Table 1 "Arb. casts": No). In the loop,
        // the clearly-out-of-bounds store corrupts memory silently. In
        // straight-line code the optimizer copy-propagates the cast away,
        // so the integer register itself reaches the access, and the
        // in-bounds read still runs as in plain C.
        let looped = r#"
            char buf[8];
            char victim[8];
            int main() {
                long addr = (long)buf;
                char* p = (char*)addr; // forged: MSCC cannot bound it
                for (int i = 0; i < 12; i++) p[i] = 'X';
                return victim[0] == 'X';
            }
        "#;
        let straight = r#"
            long g[2];
            int main() {
                g[1] = 7;
                long raw = (long)g;
                long* p = (long*)raw;
                return (int)p[1];
            }
        "#;
        for (src, plain_ret) in [(looped, 1), (straight, 7)] {
            let mscc = run(src);
            assert_eq!(
                mscc.ret(),
                Some(plain_ret),
                "mscc leaves the forged pointer unchecked: {:?}",
                mscc.outcome
            );
            let sb = softbound::Engine::new()
                .run_once(src, "main", &[])
                .expect("compiles");
            assert!(
                sb.outcome.is_spatial_violation(),
                "softbound aborts: {:?}",
                sb.outcome
            );
        }
    }

    #[test]
    fn mscc_costs_more_than_softbound() {
        let src = r#"
            struct node { int v; struct node* next; };
            int main() {
                struct node* head = NULL;
                for (int i = 0; i < 200; i++) {
                    struct node* n = (struct node*)malloc(sizeof(struct node));
                    n->v = i; n->next = head; head = n;
                }
                long s = 0;
                for (int pass = 0; pass < 5; pass++)
                    for (struct node* p = head; p; p = p->next) s += p->v;
                return s > 0;
            }
        "#;
        let mscc = run(src);
        assert_eq!(mscc.ret(), Some(1));
        let sb = softbound::Engine::new()
            .softbound_config(SoftBoundConfig::full_shadow())
            .run_once(src, "main", &[])
            .expect("ok");
        assert_eq!(sb.ret(), Some(1));
        assert!(
            mscc.stats.cycles > sb.stats.cycles,
            "MSCC ({}) should cost more than SoftBound-shadow ({}) — §6.5",
            mscc.stats.cycles,
            sb.stats.cycles
        );
    }
}
