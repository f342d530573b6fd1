//! The fleet contract, proven differentially: N worker threads sharing
//! one compiled `Program` must observe *bit-identically* what N serial
//! fresh runs of the same request stream observe — outcomes, captured
//! output, dynamic statistics, runtime counters, and final-memory
//! digests — across both metadata facilities and both safe and trapping
//! traffic.
//!
//! This is the concurrent analogue of `tests/instance_reuse.rs`: that
//! suite licenses *reuse* (reset between requests is invisible), this
//! one licenses *pooling* (which worker served a request, and in what
//! interleaving, is invisible too). Both must hold for the fleet's
//! results to mean anything.

use softbound::fleet::{self, Observation};
use softbound::{Engine, Facility, Program};

fn engines() -> Vec<(String, Engine)> {
    [Facility::ShadowShared, Facility::HashTable]
        .into_iter()
        .map(|facility| (format!("{facility:?}"), Engine::new().facility(facility)))
        .collect()
}

/// The serial oracle: each request served by a brand-new instance, in
/// stream order, through the same `observe` path the pool uses.
fn serial_oracle(
    engine: &Engine,
    program: &Program,
    entry: &str,
    requests: &[i64],
) -> Vec<Observation> {
    requests
        .iter()
        .map(|&arg| fleet::observe(&mut engine.instantiate(program), entry, arg))
        .collect()
}

fn assert_fleet_matches_serial(
    engine: &Engine,
    program: &Program,
    entry: &str,
    requests: &[i64],
    workers: usize,
    label: &str,
) {
    let expected = serial_oracle(engine, program, entry, requests);
    let report = fleet::serve(engine, program, entry, requests, workers);
    assert_eq!(
        report.results.len(),
        requests.len(),
        "{label}: stream not fully served"
    );
    for (i, result) in report.results.iter().enumerate() {
        assert_eq!(result.index, i, "{label}: results not sorted by index");
        assert_eq!(
            result.observation, expected[i],
            "{label}: request {i} (arg {}) served by worker {} diverged from its serial run",
            requests[i], result.worker
        );
    }
    assert_eq!(
        report.per_worker.iter().map(|w| w.served).sum::<usize>(),
        requests.len(),
        "{label}: per-worker served counts do not cover the stream"
    );
}

#[test]
fn pooled_nhttpd_equals_serial_all_facilities() {
    let daemon = sb_workloads::daemons::all()
        .into_iter()
        .find(|d| d.name == "nhttpd")
        .expect("nhttpd daemon exists");
    let requests = sb_workloads::nhttpd_batches(8, 11);
    for (label, engine) in engines() {
        let program = engine.compile(daemon.source).expect("daemon compiles");
        assert_fleet_matches_serial(
            &engine,
            &program,
            "main",
            &requests,
            4,
            &format!("nhttpd/{label}"),
        );
    }
}

#[test]
fn pooled_trapping_traffic_equals_serial_all_facilities() {
    // Every third request overflows the handler's stack buffer: pooled
    // workers must report the identical trap (and identical counters)
    // the serial oracle reports, with safe requests undisturbed by a
    // neighbouring worker's trap.
    let requests = sb_workloads::mixed_traffic(9, 3, 5);
    assert!(requests.iter().any(|&l| l > 16), "stream must trap");
    assert!(
        requests.iter().any(|&l| l <= 16),
        "stream must also succeed"
    );
    for (label, engine) in engines() {
        let program = engine
            .compile(sb_workloads::MIXED_HANDLER)
            .expect("handler compiles");
        assert_fleet_matches_serial(
            &engine,
            &program,
            "main",
            &requests,
            4,
            &format!("mixed/{label}"),
        );
    }
}

#[test]
fn worker_count_is_invisible_to_observations() {
    // The same stream under pools of 1, 2, 3, and 7 workers: every pool
    // size must produce the same per-index observations (only latency
    // and worker attribution may differ).
    let engine = Engine::new();
    let program = engine
        .compile(sb_workloads::MIXED_HANDLER)
        .expect("handler compiles");
    let requests = sb_workloads::mixed_traffic(12, 4, 2);
    let baseline: Vec<Observation> = fleet::serve(&engine, &program, "main", &requests, 1)
        .results
        .into_iter()
        .map(|r| r.observation)
        .collect();
    for workers in [2usize, 3, 7] {
        let observed: Vec<Observation> =
            fleet::serve(&engine, &program, "main", &requests, workers)
                .results
                .into_iter()
                .map(|r| r.observation)
                .collect();
        assert_eq!(
            observed, baseline,
            "{workers}-worker pool diverged from the single-worker pool"
        );
    }
}

#[test]
fn reset_churn_under_pool_pressure_stays_deterministic() {
    // Stress the reset path the pool leans on: a long stream over few
    // workers forces every instance through many reset cycles with
    // different allocation layouts (batch sizes vary per request), and
    // interleaved explicit resets must not perturb subsequent requests.
    let daemon = sb_workloads::daemons::all()
        .into_iter()
        .find(|d| d.name == "tinyftp")
        .expect("tinyftp daemon exists");
    let engine = Engine::new();
    let program = engine.compile(daemon.source).expect("daemon compiles");
    let requests = sb_workloads::nhttpd_batches(24, 77);

    // Oracle: one reused instance with an explicit reset every few
    // requests (reuse invisibility is pinned by tests/instance_reuse.rs,
    // so this is equivalent to fresh machines — but exercises churn).
    let mut oracle_instance = engine.instantiate(&program);
    let expected: Vec<Observation> = requests
        .iter()
        .enumerate()
        .map(|(i, &arg)| {
            if i % 5 == 4 {
                oracle_instance.reset();
            }
            fleet::observe(&mut oracle_instance, "main", arg)
        })
        .collect();

    let report = fleet::serve(&engine, &program, "main", &requests, 3);
    for (i, result) in report.results.iter().enumerate() {
        assert_eq!(
            result.observation, expected[i],
            "request {i} diverged under pool churn"
        );
    }
}
