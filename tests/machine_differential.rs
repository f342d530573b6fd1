//! Whole-program differential proof of the metadata facilities and the
//! two execution lanes.
//!
//! Facility-level unit tests cannot prove the monomorphized
//! `SoftBoundRuntime<F>` / `Machine<H>` check path behaviour-preserving,
//! so this suite runs *entire instrumented programs* — the evaluation
//! workloads and the BugBench violation programs — through six lanes:
//! the three facilities
//!
//! 1. `SoftBoundRuntime<ShadowPages>` (the production paged shadow
//!    space),
//! 2. `SoftBoundRuntime<ShadowHashMapFacility>` (the HashMap oracle),
//! 3. `SoftBoundRuntime<HashTableFacility>` (the §5.1 alternative),
//!
//! each driven through the tree-walk interpreter and through the
//! *pre-decoded* execution IR (`Machine::run_predecoded` over the
//! `ExecModule` cached on the `Program`) — the flat dispatch loop with
//! fused check+access superinstructions must be bit-identical to its
//! tree-walk twin.
//!
//! Every lane must produce identical traps, program output, dynamic
//! check/metadata counts, runtime violation counters, live metadata, and
//! — for lanes sharing a cost model — identical cycles and final memory.

use sb_vm::{Machine, MachineConfig, Outcome, Trap};
use softbound::{
    Engine, EvidenceRecord, MetadataFacility, PolicyAction, Program, SoftBoundConfig,
    SoftBoundRuntime, ViolationPolicy,
};

/// Everything a lane exposes for comparison.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    outcome: Outcome,
    output: String,
    checks: u64,
    meta_loads: u64,
    meta_stores: u64,
    rt_calls: u64,
    check_count: u64,
    violation_count: u64,
    live_entries: usize,
    /// Digest of the final simulated memory image.
    mem_hash: u64,
    /// Cost-model cycles — only comparable between lanes with identical
    /// facility costs, so it is split out of the facility-independent
    /// comparison below.
    cycles: u64,
}

fn observe<F: MetadataFacility>(
    program: &Program,
    rt: SoftBoundRuntime<F>,
    arg: i64,
    predecoded: bool,
) -> Observed {
    let mut machine = Machine::new(program.module(), MachineConfig::default(), rt);
    let r = if predecoded {
        machine.attach_exec(program.exec());
        machine.run_predecoded("main", &[arg])
    } else {
        machine.run("main", &[arg])
    };
    Observed {
        outcome: r.outcome,
        output: r.output,
        checks: r.stats.checks,
        meta_loads: r.stats.meta_loads,
        meta_stores: r.stats.meta_stores,
        rt_calls: r.stats.rt_calls,
        check_count: machine.hooks().check_count,
        violation_count: machine.hooks().violation_count,
        live_entries: machine.hooks().live_entries(),
        mem_hash: machine.mem.content_hash(),
        cycles: r.stats.cycles,
    }
}

/// Strips the fields whose value legitimately depends on the facility's
/// cost model (hash lookups cost 9, shadow lookups 5).
fn cost_free(o: &Observed) -> Observed {
    Observed {
        cycles: 0,
        mem_hash: 0,
        ..o.clone()
    }
}

fn run_all_lanes(name: &str, source: &str, cfg: &SoftBoundConfig, arg: i64) -> Observed {
    let program = Engine::new()
        .softbound_config(cfg.clone())
        .compile(source)
        .expect("program compiles");

    let paged = observe(&program, SoftBoundRuntime::new_paged(cfg), arg, false);
    let hashmap = observe(
        &program,
        SoftBoundRuntime::new_shadow_hashmap(cfg),
        arg,
        false,
    );
    let hashtable = observe(&program, SoftBoundRuntime::new_hash(cfg), arg, false);

    // Lanes 4–6: the same three facilities driven through the
    // pre-decoded execution IR. Each must match its tree-walk twin on
    // *every* observable — traps, output, all dynamic counters, runtime
    // counters, live metadata, cycles, and the final memory digest.
    let paged_exec = observe(&program, SoftBoundRuntime::new_paged(cfg), arg, true);
    let hashmap_exec = observe(
        &program,
        SoftBoundRuntime::new_shadow_hashmap(cfg),
        arg,
        true,
    );
    let hashtable_exec = observe(&program, SoftBoundRuntime::new_hash(cfg), arg, true);
    assert_eq!(
        paged, paged_exec,
        "{name}: paged tree-walk vs pre-decoded diverged"
    );
    assert_eq!(
        hashmap, hashmap_exec,
        "{name}: hashmap tree-walk vs pre-decoded diverged"
    );
    assert_eq!(
        hashtable, hashtable_exec,
        "{name}: hash-table tree-walk vs pre-decoded diverged"
    );

    // The two shadow organizations share the cost model and write the
    // same simulated memory: every observable must match bit-for-bit.
    assert_eq!(paged, hashmap, "{name}: paged vs hashmap shadow diverged");
    // The hash table costs more per lookup (9 vs 5 instructions, plus
    // probes) and may map different simulated-table pages, but traps,
    // output, and every dynamic count must be identical.
    assert_eq!(
        cost_free(&paged),
        cost_free(&hashtable),
        "{name}: shadow vs hash table diverged"
    );
    assert!(
        hashtable.cycles >= paged.cycles,
        "{name}: hash table ({}) cheaper than shadow space ({})?",
        hashtable.cycles,
        paged.cycles
    );
    paged
}

#[test]
fn safe_workloads_identical_across_all_lanes() {
    // A class-spanning subset of the evaluation workloads (debug-mode
    // friendly): two array kernels, two list/tree kernels, one
    // allocation-churn kernel.
    let picks = ["compress", "ijpeg", "tsp", "treeadd", "health"];
    let cfg = SoftBoundConfig::full_shadow();
    for name in picks {
        let w = sb_workloads::benchmark_by_name(name).expect("workload exists");
        let o = run_all_lanes(w.name, w.source, &cfg, w.default_arg);
        assert!(
            matches!(o.outcome, Outcome::Finished { .. }),
            "{name}: {:?}",
            o.outcome
        );
        assert_eq!(o.violation_count, 0, "{name}: false positive");
        assert!(o.checks > 0, "{name}: nothing was checked");
        assert_eq!(
            o.check_count, o.checks,
            "{name}: VM and runtime disagree on executed checks"
        );
    }
}

#[test]
fn store_only_mode_identical_across_all_lanes() {
    let cfg = SoftBoundConfig::store_only_shadow();
    for name in ["compress", "treeadd"] {
        let w = sb_workloads::benchmark_by_name(name).expect("workload exists");
        let o = run_all_lanes(w.name, w.source, &cfg, w.default_arg);
        assert!(
            matches!(o.outcome, Outcome::Finished { .. }),
            "{name}: {:?}",
            o.outcome
        );
        assert_eq!(o.violation_count, 0, "{name}: false positive");
    }
}

#[test]
fn violating_programs_trap_identically_across_all_lanes() {
    // The BugBench programs each trigger a real spatial violation; every
    // lane must report the same trap at the same point (identical counts
    // mean the trap fired after the same number of checks).
    let cfg = SoftBoundConfig::full_shadow();
    for bug in sb_workloads::bugbench::all() {
        let o = run_all_lanes(bug.name, bug.source, &cfg, 0);
        assert!(
            o.outcome.is_spatial_violation(),
            "{}: expected a spatial violation, got {:?}",
            bug.name,
            o.outcome
        );
        // Overflows caught by the libc wrappers (scheme
        // "softbound-wrapper", e.g. polymorph's strcpy) trap inside the
        // VM builtin before reaching the runtime's counter; explicit
        // checks must tick it.
        let wrapper_trap = matches!(
            &o.outcome,
            Outcome::Trapped(sb_vm::Trap::SpatialViolation {
                scheme: "softbound-wrapper",
                ..
            })
        );
        assert!(
            wrapper_trap || o.violation_count >= 1,
            "{}: runtime recorded no violation ({:?})",
            bug.name,
            o.outcome
        );
    }
}

/// What a violation policy does on one program: the outcome, output,
/// violation counter, and the evidence it recorded.
#[derive(Debug, PartialEq)]
struct PolicyObs {
    outcome: Outcome,
    output: String,
    violation_count: u64,
    evidence: Vec<EvidenceRecord>,
    /// Cost-model cycles. The hash table costs more per lookup, so
    /// [`policy_lanes`] leaves them out of its comparison and reports
    /// the largest count of the six lanes.
    cycles: u64,
}

fn policy_obs<F: MetadataFacility>(
    program: &Program,
    rt: SoftBoundRuntime<F>,
    arg: i64,
    predecoded: bool,
) -> PolicyObs {
    let mut machine = Machine::new(program.module(), MachineConfig::default(), rt);
    let r = if predecoded {
        machine.attach_exec(program.exec());
        machine.run_predecoded("main", &[arg])
    } else {
        machine.run("main", &[arg])
    };
    PolicyObs {
        outcome: r.outcome,
        output: r.output,
        violation_count: machine.hooks().violation_count,
        evidence: machine.hooks_mut().drain_evidence(),
        cycles: r.stats.cycles,
    }
}

/// Runs `src` under `policy` through all six lanes, asserts they agree,
/// and returns the paged tree-walk observation with the largest cycle
/// count of the six.
fn policy_lanes(src: &str, policy: ViolationPolicy, arg: i64) -> PolicyObs {
    let mut cfg = SoftBoundConfig::full_shadow();
    cfg.policy = policy;
    let program = Engine::new()
        .softbound_config(cfg.clone())
        .compile(src)
        .expect("compiles");
    let mut reference = policy_obs(&program, SoftBoundRuntime::new_paged(&cfg), arg, false);
    let mut max_cycles = reference.cycles;
    for (lane, obs) in [
        (
            "paged/pre",
            policy_obs(&program, SoftBoundRuntime::new_paged(&cfg), arg, true),
        ),
        (
            "hashmap/tree",
            policy_obs(
                &program,
                SoftBoundRuntime::new_shadow_hashmap(&cfg),
                arg,
                false,
            ),
        ),
        (
            "hashmap/pre",
            policy_obs(
                &program,
                SoftBoundRuntime::new_shadow_hashmap(&cfg),
                arg,
                true,
            ),
        ),
        (
            "hash/tree",
            policy_obs(&program, SoftBoundRuntime::new_hash(&cfg), arg, false),
        ),
        (
            "hash/pre",
            policy_obs(&program, SoftBoundRuntime::new_hash(&cfg), arg, true),
        ),
    ] {
        max_cycles = max_cycles.max(obs.cycles);
        assert_eq!(
            reference,
            PolicyObs {
                cycles: reference.cycles,
                ..obs
            },
            "{policy:?}: {lane} diverged from paged/tree"
        );
    }
    reference.cycles = max_cycles;
    reference
}

/// Cycles a length-proportional builtin may charge in the tests below:
/// far above what their small programs touch, far below what a charge
/// for the requested length would add.
const CYCLE_BOUND: u64 = 1_000_000;

#[test]
fn policy_behavior_invariant_across_facilities_and_lanes() {
    // The violation policy is a runtime-side property: what each policy
    // *does* on the same overflow — trap, clamp, or observe — and the
    // evidence it records must be identical across all three metadata
    // facilities and both execution lanes.
    let src = r#"
        int main(int n) {
            char* p = (char*)malloc(16);
            for (int i = 0; i <= n; i = i + 1) p[i] = (char)i;
            int sum = 0;
            for (int i = 0; i < 16; i = i + 1) sum = sum + p[i];
            return sum;
        }
    "#;
    for policy in [
        ViolationPolicy::Strict,
        ViolationPolicy::Hardened,
        ViolationPolicy::Monitor,
    ] {
        let reference = policy_lanes(src, policy, 16);
        match policy {
            ViolationPolicy::Strict => {
                assert!(
                    reference.outcome.is_spatial_violation(),
                    "strict must trap: {:?}",
                    reference.outcome
                );
                assert!(reference.evidence.is_empty());
            }
            ViolationPolicy::Hardened => {
                // The clamped store is dropped; the in-bounds sum is
                // unaffected, so the run finishes.
                assert!(
                    matches!(reference.outcome, Outcome::Finished { .. }),
                    "hardened must finish: {:?}",
                    reference.outcome
                );
                assert_eq!(reference.evidence.len(), 1);
                assert!(reference.evidence[0].write);
            }
            ViolationPolicy::Monitor => {
                assert!(
                    matches!(reference.outcome, Outcome::Finished { .. }),
                    "monitor must finish: {:?}",
                    reference.outcome
                );
                assert_eq!(reference.evidence.len(), 1);
                assert_eq!(reference.violation_count, 1);
            }
        }
    }
}

#[test]
fn clamped_memcpy_copies_metadata_only_for_the_bytes_it_wrote() {
    // `memcpy(dst, src, 32)` into a 16-byte `dst` whose heap neighbour
    // `victim` holds a pointer to `x`. Hardened clamps the data copy to
    // dst's 16 bytes; the metadata copy that follows the call must be
    // clamped the same way, or it overwrites victim's metadata with the
    // bounds of `y` while victim's data still points to `x`, and the
    // legal read `x[5]` is then zeroed as a violation.
    let src = r#"
        int main() {
            long** dst = (long**)malloc(16);
            long** victim = (long**)malloc(16);
            long* x = (long*)malloc(64);
            x[5] = 6;
            victim[0] = x;
            long* y = (long*)malloc(8);
            long** src = (long**)malloc(32);
            for (int i = 0; i < 4; i = i + 1) src[i] = y;
            memcpy(dst, src, 32);
            return (int)victim[0][5];
        }
    "#;
    const DST: u64 = 0x2000_0000_0000;
    const Y: u64 = 0x2000_0000_0060;

    let hardened = policy_lanes(src, ViolationPolicy::Hardened, 0);
    assert_eq!(hardened.outcome, Outcome::Finished { ret: 6 });
    assert_eq!(hardened.violation_count, 1);
    assert_eq!(hardened.evidence.len(), 1, "{:x?}", hardened.evidence);
    let ev = hardened.evidence[0];
    assert_eq!(ev.action, PolicyAction::ClampedWrite);
    assert_eq!((ev.ptr, ev.size), (DST, 32));
    assert_eq!(
        (ev.base, ev.bound, ev.fault_addr),
        (DST, DST + 16, DST + 16)
    );

    // Strict traps in the wrapper at the first byte past `dst`.
    let strict = policy_lanes(src, ViolationPolicy::Strict, 0);
    assert_eq!(
        strict.outcome,
        Outcome::Trapped(Trap::SpatialViolation {
            scheme: "softbound-wrapper",
            addr: DST + 16,
            write: true,
        })
    );
    assert!(strict.evidence.is_empty());

    // Monitor performs the whole copy, data and metadata alike: victim
    // now holds `y`, so the read of `y[5]` is observed and returns what
    // lies 40 bytes past `y` (the low half of the pointer `src[3]`).
    let monitor = policy_lanes(src, ViolationPolicy::Monitor, 0);
    assert_eq!(
        monitor.outcome,
        Outcome::Finished {
            ret: Y as i32 as i64
        }
    );
    assert_eq!(monitor.evidence.len(), 2, "{:x?}", monitor.evidence);
    assert_eq!(
        (monitor.evidence[1].base, monitor.evidence[1].bound),
        (Y, Y + 8)
    );
    assert!(monitor
        .evidence
        .iter()
        .all(|e| e.action == PolicyAction::Observed));
}

#[test]
fn wraparound_pointers_trap_in_whole_programs() {
    // End-to-end regression for the `ptr + size` wraparound hole. The
    // pointer must carry *live* metadata (an int-to-pointer cast would
    // get NULL bounds and trap on the `base == 0` clause even before
    // the fix), so a valid allocation is walked via pointer arithmetic
    // to address u64::MAX: ptr >= base holds, and the old
    // `ptr.wrapping_add(size) > bound` wrapped `MAX + 1` to 0 <= bound,
    // passing the check and leaving a wild access (MemFault). The fixed
    // check must report a spatial violation in every lane.
    let src = r#"
        int main() {
            char* p = (char*)malloc(16);
            long k = -(long)p - 1;   // p + k == 0xffff_ffff_ffff_ffff
            char* q = p + k;         // GEP: metadata of p survives
            return *q;
        }
    "#;
    let cfg = SoftBoundConfig::full_shadow();
    let o = run_all_lanes("wraparound", src, &cfg, 0);
    assert!(
        o.outcome.is_spatial_violation(),
        "forged near-MAX pointer must trap, got {:?}",
        o.outcome
    );

    // The same hole in the libc wrappers' `lo + len <= bound`: with
    // `q = p + (-(long)p - 8)`, `q + 32` wraps to 24. The wrapper must
    // trap at `q` itself (it lies past the bound) instead of letting the
    // builtin fault on unmapped memory.
    let q = 0xffff_ffff_ffff_fff8u64;
    for (name, src) in [
        (
            "wraparound-memcpy",
            r#"
            int main() {
                char* p = (char*)malloc(16);
                char* src = (char*)malloc(32);
                long k = -(long)p - 8;   // p + k == 0xffff_ffff_ffff_fff8
                char* q = p + k;
                memcpy(q, src, 32);
                return 0;
            }
        "#,
        ),
        (
            "wraparound-memset",
            r#"
            int main() {
                char* p = (char*)malloc(16);
                long k = -(long)p - 8;   // p + k == 0xffff_ffff_ffff_fff8
                char* q = p + k;
                memset(q, 1, 32);
                return 0;
            }
        "#,
        ),
    ] {
        let o = run_all_lanes(name, src, &cfg, 0);
        assert_eq!(
            o.outcome,
            Outcome::Trapped(Trap::SpatialViolation {
                scheme: "softbound-wrapper",
                addr: q,
                write: true,
            }),
            "{name}"
        );
    }
}

#[test]
fn calloc_past_the_largest_size_class_returns_null() {
    // `4611686018427387905 * 2` is 2^63 + 2 bytes: no power-of-two size
    // class holds it, and rounding it up unchecked wraps to a 16-byte
    // block (release) or panics (debug). A 16-byte block behind wrapper
    // bounds of 2^63 + 2 bytes lets `p[16]` overwrite the next
    // allocation unchecked, so the heap must refuse the request and
    // `calloc` return NULL, under every policy. A refused request costs
    // the flat allocator charge: 70 of them charged by size would add
    // about 10^19 cycles.
    let src = r#"
        int main() {
            char* p = 0;
            for (int i = 0; i < 70; i = i + 1) {
                p = (char*)calloc(4611686018427387905L, 2);
                if (p != 0) break;
            }
            if (p == 0) return -1;
            char* q = (char*)malloc(16);
            p[16] = 99;
            return q[0];
        }
    "#;
    for policy in [
        ViolationPolicy::Strict,
        ViolationPolicy::Hardened,
        ViolationPolicy::Monitor,
    ] {
        let obs = policy_lanes(src, policy, 0);
        assert_eq!(obs.outcome, Outcome::Finished { ret: -1 }, "{policy:?}");
        assert!(obs.evidence.is_empty(), "{policy:?}: {:x?}", obs.evidence);
        assert!(
            obs.cycles < CYCLE_BOUND,
            "{policy:?}: {} cycles",
            obs.cycles
        );
    }
}

#[test]
fn strncpy_with_a_huge_length_allocates_nothing_on_the_host() {
    // `strncpy(d, "hi", 2^40)` into a 16-byte `d`, six times. Building
    // the 2^40-byte zero-padded source on the host before writing its
    // in-bounds prefix would abort the whole process under Hardened and
    // Monitor with a failed 1 TiB allocation, which no `catch_unwind` can
    // contain. A clamped copy is charged for the bytes it wrote, not for
    // the 2^40 requested.
    let src = r#"
        int main() {
            char* d = (char*)malloc(16);
            for (int i = 0; i < 6; i = i + 1) {
                strncpy(d, "hi", 1099511627776);   // 2^40
            }
            return d[0];
        }
    "#;
    const D: u64 = sb_vm::HEAP_BASE;

    // Strict traps in the wrapper at the first byte past `d`.
    let strict = policy_lanes(src, ViolationPolicy::Strict, 0);
    assert_eq!(
        strict.outcome,
        Outcome::Trapped(Trap::SpatialViolation {
            scheme: "softbound-wrapper",
            addr: D + 16,
            write: true,
        })
    );
    assert!(strict.evidence.is_empty());

    // Hardened writes "hi" and zero-fills the rest of `d`, no further,
    // on every call.
    let hardened = policy_lanes(src, ViolationPolicy::Hardened, 0);
    assert_eq!(hardened.outcome, Outcome::Finished { ret: 104 });
    assert_eq!(hardened.evidence.len(), 6, "{:x?}", hardened.evidence);
    for ev in &hardened.evidence {
        assert_eq!(ev.action, PolicyAction::ClampedWrite);
        assert_eq!((ev.ptr, ev.size), (D, 1 << 40));
        assert_eq!((ev.base, ev.bound, ev.fault_addr), (D, D + 16, D + 16));
    }

    // Monitor lets the write run on, until it leaves `d`'s mapped page.
    let monitor = policy_lanes(src, ViolationPolicy::Monitor, 0);
    assert_eq!(
        monitor.outcome,
        Outcome::Trapped(Trap::MemFault {
            addr: D + sb_vm::PAGE_SIZE,
            write: true,
        })
    );
    assert_eq!(monitor.evidence.len(), 1, "{:x?}", monitor.evidence);
    assert_eq!(monitor.evidence[0].action, PolicyAction::Observed);
    for obs in [&strict, &hardened, &monitor] {
        assert!(obs.cycles < CYCLE_BOUND, "{} cycles", obs.cycles);
    }
}

#[test]
fn memset_with_a_huge_length_charges_only_the_bytes_it_wrote() {
    // `memset(d, 65, LONG_MAX)` into a 16-byte `d`, twenty times. Strict
    // traps in the wrapper; Hardened clamps each call to `d`'s 16 bytes
    // and must charge for those 16, not for the 2^63 - 1 requested,
    // which would overflow the cycle counter after two calls; Monitor
    // runs on until the write leaves `d`'s mapped page.
    let src = r#"
        int main() {
            char* d = (char*)malloc(16);
            for (int i = 0; i < 20; i = i + 1) {
                memset(d, 65, 9223372036854775807L);
            }
            return d[0];
        }
    "#;
    const D: u64 = sb_vm::HEAP_BASE;

    let strict = policy_lanes(src, ViolationPolicy::Strict, 0);
    assert_eq!(
        strict.outcome,
        Outcome::Trapped(Trap::SpatialViolation {
            scheme: "softbound-wrapper",
            addr: D + 16,
            write: true,
        })
    );
    assert!(strict.evidence.is_empty());

    let hardened = policy_lanes(src, ViolationPolicy::Hardened, 0);
    assert_eq!(hardened.outcome, Outcome::Finished { ret: 65 });
    assert_eq!(hardened.evidence.len(), 20, "{:x?}", hardened.evidence);
    assert!(hardened
        .evidence
        .iter()
        .all(|ev| ev.action == PolicyAction::ClampedWrite && ev.fault_addr == D + 16));

    let monitor = policy_lanes(src, ViolationPolicy::Monitor, 0);
    assert_eq!(
        monitor.outcome,
        Outcome::Trapped(Trap::MemFault {
            addr: D + sb_vm::PAGE_SIZE,
            write: true,
        })
    );
    assert_eq!(monitor.evidence.len(), 1, "{:x?}", monitor.evidence);
    for obs in [&strict, &hardened, &monitor] {
        assert!(obs.cycles < CYCLE_BOUND, "{} cycles", obs.cycles);
    }
}

#[test]
fn setjmp_loop_behaves_identically_across_policies_and_lanes() {
    // Two `setjmp` sites in `main` and one in a helper that returns, run
    // `n` times; then a `longjmp` back to the second site resumes the
    // loop once more. Every lane keeps only the live frames' jump
    // points, and all of them must agree on the result.
    let src = r#"
        long a[8];
        long b[8];
        long c[8];
        int helper() { return setjmp(c); }
        int main(int n) {
            int back = 0;
            for (int i = 0; i < n; i = i + 1) {
                setjmp(a);
                if (setjmp(b) != 0) back = back + 1;
                helper();
            }
            if (back == 0) longjmp(b, 1);
            return back;
        }
    "#;
    for policy in [
        ViolationPolicy::Strict,
        ViolationPolicy::Hardened,
        ViolationPolicy::Monitor,
    ] {
        let obs = policy_lanes(src, policy, 10_000);
        assert_eq!(obs.outcome, Outcome::Finished { ret: 1 }, "{policy:?}");
        assert!(obs.evidence.is_empty(), "{policy:?}: {:x?}", obs.evidence);
    }
}

/// What a fuel-limited run exposes: how it ended and the counters a
/// budget cuts short.
#[derive(Debug, PartialEq)]
struct FuelObs {
    outcome: Outcome,
    insts: u64,
    cycles: u64,
    checks: u64,
    /// Program loads and stores: with `checks`, this locates a budget
    /// that ends between a check and its access.
    mem_ops: u64,
}

fn fuel_obs(program: &Program, fuel: u64, predecoded: bool) -> FuelObs {
    let cfg = MachineConfig {
        fuel,
        ..MachineConfig::default()
    };
    let rt = SoftBoundRuntime::new_paged(&SoftBoundConfig::full_shadow());
    let mut machine = Machine::new(program.module(), cfg, rt);
    let r = if predecoded {
        machine.attach_exec(program.exec());
        machine.run_predecoded("main", &[4])
    } else {
        machine.run("main", &[4])
    };
    FuelObs {
        outcome: r.outcome,
        insts: r.stats.insts,
        cycles: r.stats.cycles,
        checks: r.stats.checks,
        mem_ops: r.stats.mem_ops(),
    }
}

#[test]
fn fuel_runs_out_on_the_same_instruction_in_both_lanes() {
    // The pre-decoded loop ticks fuel once per IR instruction, twice per
    // fused check+access op. Sweep every budget from 0 to a whole run
    // and require both lanes to stop on the same instruction with the
    // same counters, including the budgets that end between a fused
    // check and the access it guards.
    let programs = [
        (
            "fused check+load/store loop",
            r#"
            int main(int n) {
                int* a = (int*)malloc(8 * sizeof(int));
                int s = 0;
                for (int i = 0; i < 8; i = i + 1) a[i] = i * n;
                for (int i = 0; i < 8; i = i + 1) s = s + a[i];
                return s;
            }
            "#,
            Outcome::Finished { ret: 112 },
        ),
        (
            "call loading and storing pointer metadata",
            r#"
            int* swap_in(int** slot, int* q) {
                int* old = *slot;
                *slot = q;
                return old;
            }
            int main(int n) {
                int* x = (int*)malloc(sizeof(int));
                int* y = (int*)malloc(sizeof(int));
                *x = n;
                *y = 2;
                int** slot = (int**)malloc(sizeof(int*));
                *slot = x;
                int* old = swap_in(slot, y);
                return *old * 10 + **slot;
            }
            "#,
            Outcome::Finished { ret: 42 },
        ),
        (
            "overflow that traps",
            r#"
            int main(int n) {
                int* a = (int*)malloc(4 * sizeof(int));
                for (int i = 0; i <= n; i = i + 1) a[i] = i;
                return a[0];
            }
            "#,
            Outcome::Trapped(Trap::SpatialViolation {
                scheme: "softbound",
                addr: sb_vm::HEAP_BASE + 16,
                write: true,
            }),
        ),
    ];
    for (name, src, expected) in programs {
        let program = Engine::new()
            .softbound_config(SoftBoundConfig::full_shadow())
            .compile(src)
            .expect("program compiles");
        assert!(program.exec().fused_checks > 0, "{name}: nothing fused");
        let whole = fuel_obs(&program, u64::MAX, false);
        assert_eq!(whole.outcome, expected, "{name}");
        let mut runs = Vec::new();
        for fuel in 0..=whole.insts {
            let tree = fuel_obs(&program, fuel, false);
            assert_eq!(
                tree,
                fuel_obs(&program, fuel, true),
                "{name}: lanes diverge at fuel {fuel}"
            );
            let stopped = if fuel < whole.insts {
                Outcome::Trapped(Trap::FuelExhausted)
            } else {
                expected.clone()
            };
            assert_eq!(tree.outcome, stopped, "{name}: fuel {fuel}");
            assert_eq!(tree.insts, fuel, "{name}: fuel {fuel}");
            runs.push(tree);
        }
        // Budget `b` ends between a check and its access when instruction
        // `b` was a check and instruction `b + 1` a load or store.
        let split = (1..runs.len() - 1)
            .filter(|&b| {
                runs[b].checks > runs[b - 1].checks && runs[b + 1].mem_ops > runs[b].mem_ops
            })
            .count();
        assert!(
            split > 0,
            "{name}: no budget ends inside a check+access pair"
        );
    }
}
