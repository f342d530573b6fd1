//! # sb-bench — the experiment harness
//!
//! Regenerates every table and figure of the SoftBound paper's evaluation
//! (§6) from the reproduction's own implementations:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`figure1`] | Figure 1 — % of memory ops that move pointers |
//! | [`figure2`] | Figure 2 — runtime overhead, 4 SoftBound configs |
//! | [`table1`]  | Table 1 — qualitative attribute matrix (probe-driven) |
//! | [`table3`]  | Table 3 — Wilander attack detection |
//! | [`table4`]  | Table 4 — BugBench detection vs Valgrind/Mudflap |
//! | [`compat`]  | §6.4 — daemons transformed unmodified, zero false positives |
//! | [`related`] | §6.5 — overhead comparison with the MSCC-like scheme |
//! | [`scaling`] | fleet serving — req/s vs worker count over one shared Program |
//! | [`policy_matrix`] | violation policies — Strict/Hardened/Monitor over one fleet stream |
//!
//! Each module exposes a `run()` returning structured rows plus a
//! `render()` producing the textual table; the `report` binary prints
//! everything (`cargo run -p sb-bench --bin report --release`).

pub mod compat;
pub mod conformance;
pub mod figure1;
pub mod figure2;
pub mod perf;
pub mod policy_matrix;
pub mod related;
pub mod scaling;
pub mod table1;
pub mod table3;
pub mod table4;

/// Overhead of `cycles` relative to `base` as a fraction (0.79 = 79%).
pub fn overhead(base: u64, cycles: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        cycles as f64 / base as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use crate::perf;
    use sb_vm::RtCtx;
    use softbound::{Engine, Meta, MetadataFacility, ShadowHashMapFacility, ShadowPages};
    use std::time::Instant;

    /// One round of the pointer-dense access pattern (the
    /// `metadata/store_load_1k_slots` microbenchmark's loop body).
    /// Generic, so each facility is measured under static dispatch.
    fn pointer_dense_round<F: MetadataFacility>(fac: &mut F) -> u64 {
        let mut ctx = RtCtx::default();
        let mut acc = 0u64;
        for i in 0..1000u64 {
            let addr = 0x10000 + (i % 512) * 8;
            fac.store(
                addr,
                Meta {
                    base: addr,
                    bound: addr + 64,
                },
                &mut ctx,
            );
            acc = acc.wrapping_add(fac.load(addr, &mut ctx).bound);
        }
        acc
    }

    fn best_ns<F: MetadataFacility>(fac: &mut F) -> u128 {
        // Warm up (materializes pages / hash buckets), then best-of-7.
        std::hint::black_box(pointer_dense_round(fac));
        (0..7)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..20 {
                    std::hint::black_box(pointer_dense_round(fac));
                }
                t.elapsed().as_nanos()
            })
            .min()
            .expect("non-empty")
    }

    /// The session-API acceptance bar (the `throughput` bench's claim,
    /// pinned as a test): serving N requests on one reused `Instance` —
    /// which keeps its shadow directory chunks, global layout, and frame
    /// plans across requests — must beat building a fresh machine per
    /// request from the same compiled `Program`. Same retry/best-of-N
    /// discipline as the lane test below: scheduler noise
    /// can only slow either side down, so any passing attempt proves the
    /// direction, while a real regression (reset costing as much as
    /// construction) fails every attempt.
    #[test]
    fn reused_instance_beats_fresh_machine_per_request() {
        let src = r#"
            struct item { int id; struct item* next; };
            int main(int n) {
                struct item* head = NULL;
                for (int i = 0; i <= n; i++) {
                    struct item* it = (struct item*)malloc(sizeof(struct item));
                    it->id = i * 3 + 1;
                    it->next = head;
                    head = it;
                }
                int sum = 0;
                while (head != NULL) {
                    sum += head->id;
                    struct item* dead = head;
                    head = head->next;
                    free(dead);
                }
                return sum;
            }
        "#;
        let engine = Engine::new();
        let program = engine.compile(src).expect("compiles");
        let expected = engine.instantiate(&program).run("main", &[16]).ret();
        assert!(expected.is_some());
        const REQUESTS: u32 = 12;

        let reused_ns = |engine: &Engine, program: &softbound::Program| {
            let mut inst = engine.instantiate(program);
            std::hint::black_box(inst.run("main", &[16]).ret()); // warm
            let t = Instant::now();
            for _ in 0..REQUESTS {
                let r = inst.run("main", &[16]);
                assert_eq!(r.ret(), expected);
            }
            t.elapsed().as_nanos()
        };
        let fresh_ns = |engine: &Engine, program: &softbound::Program| {
            let t = Instant::now();
            for _ in 0..REQUESTS {
                let r = engine.instantiate(program).run("main", &[16]);
                assert_eq!(r.ret(), expected);
            }
            t.elapsed().as_nanos()
        };

        let mut worst = (0u128, 0u128);
        for _ in 0..5 {
            let reused = reused_ns(&engine, &program);
            let fresh = fresh_ns(&engine, &program);
            if reused < fresh {
                return;
            }
            worst = (reused, fresh);
        }
        panic!(
            "reused instance never beat fresh-machine-per-request: \
             reused {} ns vs fresh {} ns for {REQUESTS} requests",
            worst.0, worst.1
        );
    }

    /// The two-tier IR acceptance bar: serving requests through the
    /// pre-decoded execution IR must not be slower than the tree-walk
    /// reference (`Machine::run`) on a check-dense workload. Both lanes
    /// execute the exact same dynamic instruction stream (pinned
    /// bit-for-bit by `machine_differential`), so only scheduler noise
    /// can make the flat dispatch loop *appear* slower; 10% grace plus
    /// retries absorbs it while a real dispatch regression fails every
    /// attempt.
    #[test]
    fn predecoded_lane_not_slower_than_tree_walk() {
        // Array-sum kernel: bounds-check + access on every iteration,
        // so the fused superinstructions and flat dispatch dominate.
        let src = r#"
            int main(int n) {
                int* a = (int*)malloc(256 * sizeof(int));
                for (int i = 0; i < 256; i++) a[i] = i;
                int sum = 0;
                for (int r = 0; r < n; r++)
                    for (int i = 0; i < 256; i++)
                        sum += a[i];
                free(a);
                return sum;
            }
        "#;
        let engine = Engine::new();
        let program = engine.compile(src).expect("compiles");
        fn lane_ns(mut run: impl FnMut() -> Option<i64>) -> u128 {
            std::hint::black_box(run()); // warm
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(run());
                    t.elapsed().as_nanos()
                })
                .min()
                .expect("non-empty")
        }
        let mut worst = (0u128, 0u128);
        for _ in 0..5 {
            let mut inst = engine.instantiate(&program);
            let pre = lane_ns(|| inst.run("main", &[60]).ret());
            let mut tree_walk = perf::tree_walk_machine(&program);
            let tree = lane_ns(|| perf::tree_walk_run(&mut tree_walk, &[60]).ret());
            if pre <= tree + tree / 10 {
                return;
            }
            worst = (pre, tree);
        }
        panic!(
            "pre-decoded lane slower than tree-walk in every attempt: \
             pre-decoded {} ns vs tree-walk {} ns",
            worst.0, worst.1
        );
    }

    /// §5.1's performance claim, at the host level: the paged shadow
    /// space's constant-offset direct map beats the old HashMap-backed
    /// lookup by at least 2× on the pointer-dense pattern. Wall-clock
    /// assertions in a test suite are noise-prone on loaded runners, so
    /// this takes best-of-N per attempt and passes if *any* of a few
    /// attempts clears the bar (scheduler noise can only slow the paged
    /// side down, never speed the HashMap side up); the release-mode
    /// margin in `benches/metadata.rs` is ~3×.
    #[test]
    fn paged_shadow_at_least_2x_faster_than_hashmap_shadow() {
        let mut worst = (0u128, 0u128);
        for _ in 0..3 {
            let mut paged = ShadowPages::new();
            let mut hashed = ShadowHashMapFacility::new();
            let paged_ns = best_ns(&mut paged);
            let hashed_ns = best_ns(&mut hashed);
            if hashed_ns >= 2 * paged_ns {
                return;
            }
            worst = (paged_ns, hashed_ns);
        }
        panic!(
            "paged shadow not ≥2× faster in any attempt: paged {} ns vs hashmap {} ns",
            worst.0, worst.1
        );
    }
}
