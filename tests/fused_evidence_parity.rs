//! Regression: under the continuing violation policies, fused
//! check+access superinstructions must record exactly the evidence
//! their unfused twins record.
//!
//! This mirrors `fused_trap_parity.rs` for the Hardened and Monitor
//! policies: the same page-straddling 1-byte overflow, but instead of
//! comparing trap addresses the oracle compares the full
//! [`EvidenceRecord`] stream — pointer, fault address, bounds, access
//! size, direction, repair action, and dynamic PC — across every
//! facility and both execution lanes. A fused path that clamped at page
//! granularity, skipped the evidence hook, or stamped a different PC
//! would diverge here.
//!
//! The last test pins the shared fault-address convention: a wrapper
//! violation (builtin `memcpy`) and an explicit-check violation on the
//! same object must both name the *first out-of-bounds byte*.

use sb_vm::{MachineConfig, Outcome, HEAP_BASE};
use softbound::{
    Engine, EvidenceRecord, MetadataFacility, PolicyAction, Program, SoftBoundConfig,
    SoftBoundRuntime, ViolationPolicy,
};

const STORE_STRADDLE: &str = r#"
    int main(int n) {
        char* p = (char*)malloc(4096);
        for (int i = 0; i < 4096; i += 512) p[i] = (char)(i / 512 + 1);
        p[n] = 7;
        return p[0];
    }
"#;

const LOAD_STRADDLE: &str = r#"
    int main(int n) {
        char* p = (char*)malloc(4096);
        for (int i = 0; i < 4096; i += 512) p[i] = (char)(i / 512 + 1);
        return p[n];
    }
"#;

#[derive(Debug, PartialEq)]
struct PolicyObs {
    outcome: Outcome,
    output: String,
    violation_count: u64,
    evidence: Vec<EvidenceRecord>,
}

fn observe<F: MetadataFacility>(
    program: &Program,
    rt: SoftBoundRuntime<F>,
    arg: i64,
    predecoded: bool,
) -> PolicyObs {
    let mut machine = program.machine(MachineConfig::default(), rt);
    let r = if predecoded {
        machine.run_predecoded("main", &[arg])
    } else {
        machine.run("main", &[arg])
    };
    PolicyObs {
        outcome: r.outcome,
        output: r.output,
        violation_count: machine.hooks().violation_count,
        evidence: machine.hooks_mut().drain_evidence(),
    }
}

fn compiled(source: &str, policy: ViolationPolicy) -> (Program, SoftBoundConfig) {
    let mut cfg = SoftBoundConfig::full_shadow();
    cfg.policy = policy;
    let program = Engine::new()
        .softbound_config(cfg.clone())
        .compile(source)
        .expect("compiles");
    // The fused path must actually be on trial.
    assert!(
        program.exec().fused_checks > 0,
        "no check+access pairs were fused — the regression tests nothing"
    );
    (program, cfg)
}

/// Runs all 3 facilities × 2 lanes and asserts every observation equals
/// the paged tree-walk reference, which is returned.
fn parity_reference(program: &Program, cfg: &SoftBoundConfig, arg: i64) -> PolicyObs {
    let reference = observe(program, SoftBoundRuntime::new_paged(cfg), arg, false);
    for (lane, obs) in [
        (
            "paged/pre",
            observe(program, SoftBoundRuntime::new_paged(cfg), arg, true),
        ),
        (
            "hashmap/tree",
            observe(
                program,
                SoftBoundRuntime::new_shadow_hashmap(cfg),
                arg,
                false,
            ),
        ),
        (
            "hashmap/pre",
            observe(
                program,
                SoftBoundRuntime::new_shadow_hashmap(cfg),
                arg,
                true,
            ),
        ),
        (
            "hash/tree",
            observe(program, SoftBoundRuntime::new_hash(cfg), arg, false),
        ),
        (
            "hash/pre",
            observe(program, SoftBoundRuntime::new_hash(cfg), arg, true),
        ),
    ] {
        assert_eq!(reference, obs, "{lane} diverged from paged/tree");
    }
    reference
}

#[test]
fn fused_store_clamp_records_identical_evidence_across_lanes() {
    let (program, cfg) = compiled(STORE_STRADDLE, ViolationPolicy::Hardened);
    let o = parity_reference(&program, &cfg, 4096);
    // The clamped store is dropped entirely, so the run finishes with
    // the object intact.
    assert_eq!(
        o.outcome,
        Outcome::Finished { ret: 1 },
        "clamped run must finish"
    );
    assert_eq!(o.evidence.len(), 1);
    let ev = o.evidence[0];
    assert_eq!(ev.ptr, HEAP_BASE + 4096);
    assert_eq!(ev.fault_addr, HEAP_BASE + 4096, "first OOB byte");
    assert_eq!((ev.base, ev.bound), (HEAP_BASE, HEAP_BASE + 4096));
    assert_eq!(ev.size, 1);
    assert!(ev.write);
    assert_eq!(ev.action, PolicyAction::ClampedWrite);
}

#[test]
fn fused_load_zero_fill_records_identical_evidence_across_lanes() {
    let (program, cfg) = compiled(LOAD_STRADDLE, ViolationPolicy::Hardened);
    let o = parity_reference(&program, &cfg, 4096);
    // The out-of-bounds read is zero-filled, so main returns 0.
    assert_eq!(o.outcome, Outcome::Finished { ret: 0 });
    assert_eq!(o.evidence.len(), 1);
    let ev = o.evidence[0];
    assert_eq!(ev.fault_addr, HEAP_BASE + 4096);
    assert!(!ev.write);
    assert_eq!(ev.action, PolicyAction::ZeroedRead);
}

#[test]
fn fused_monitor_observation_is_identical_across_lanes() {
    let (program, cfg) = compiled(STORE_STRADDLE, ViolationPolicy::Monitor);
    let o = parity_reference(&program, &cfg, 4096);
    // Monitor performs the stray store (here into the unmapped page
    // past the object, so the run ends in a uniform memory fault — the
    // same one the uninstrumented program would hit). What it must
    // never do is trap spatially.
    assert!(
        !o.outcome.is_spatial_violation(),
        "monitor must not trap spatially: {:?}",
        o.outcome
    );
    assert_eq!(o.evidence.len(), 1);
    assert_eq!(o.evidence[0].action, PolicyAction::Observed);
    assert_eq!(o.violation_count, 1);
}

#[test]
fn wrapper_and_explicit_evidence_agree_on_the_first_oob_byte() {
    // The same destination object overflows twice: once through the
    // builtin memcpy's wrapper check, once through an explicit
    // per-access check. Both evidence records must name the identical
    // first out-of-bounds byte — the convention the Strict trap
    // addresses already follow.
    let src = r#"
        int main(int n) {
            char* p = (char*)malloc(16);
            char* s = (char*)malloc(32);
            for (int i = 0; i < 32; i = i + 1) s[i] = 1;
            memcpy(p, s, n);
            p[n - 1] = 2;
            return p[0];
        }
    "#;
    let (program, cfg) = compiled(src, ViolationPolicy::Hardened);
    let o = parity_reference(&program, &cfg, 17);
    assert_eq!(
        o.outcome,
        Outcome::Finished { ret: 1 },
        "both violations are clamped"
    );
    assert_eq!(o.evidence.len(), 2, "one wrapper + one explicit record");
    let (wrapper, explicit) = (o.evidence[0], o.evidence[1]);
    assert_eq!(
        wrapper.fault_addr, explicit.fault_addr,
        "wrapper and explicit checks disagree on the first OOB byte"
    );
    assert_eq!(wrapper.size, 17, "wrapper evidence carries the full length");
    assert_eq!(explicit.size, 1);
    assert!(wrapper.write && explicit.write);
    assert!(
        wrapper.pc < explicit.pc,
        "evidence must be ordered by dynamic PC"
    );
}
