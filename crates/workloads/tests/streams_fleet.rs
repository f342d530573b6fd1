//! Fleet-serving edge cases for the request streams: the degenerate
//! batches a real daemon sees around deploys and drains — no traffic,
//! all-attack traffic, and a pool wider than the stream — must behave
//! exactly like their serial oracles, with no phantom requests, no
//! missed traps, and no worker-count dependence.

use sb_vm::Outcome;
use sb_workloads::{mixed_traffic, MIXED_HANDLER};
use softbound::{fleet, Engine, Facility};

fn engine() -> Engine {
    Engine::new().facility(Facility::ShadowShared)
}

#[test]
fn empty_request_batch_serves_nothing() {
    let engine = engine();
    let program = engine.compile(MIXED_HANDLER).expect("handler compiles");
    let requests = mixed_traffic(0, 4, 7);
    let report = fleet::serve(&engine, &program, "main", &requests, 4);
    assert!(report.results.is_empty());
    assert_eq!(report.reqs_per_sec, 0.0);
    assert_eq!(report.p50_ns, 0);
    assert_eq!(report.per_worker.len(), 4);
    assert!(report
        .per_worker
        .iter()
        .all(|w| w.served == 0 && w.traps == 0));
}

#[test]
fn all_trapping_batch_traps_every_request_and_nothing_else() {
    let engine = engine();
    let program = engine.compile(MIXED_HANDLER).expect("handler compiles");
    // trap_every = 1: every request carries an oversized header length.
    let requests = mixed_traffic(24, 1, 11);
    let report = fleet::serve(&engine, &program, "main", &requests, 3);
    assert_eq!(report.results.len(), 24);
    for r in &report.results {
        assert!(
            r.observation.outcome.is_spatial_violation(),
            "request {} (len {}) should have trapped, got {:?}",
            r.index,
            requests[r.index],
            r.observation.outcome
        );
        assert!(r.observation.violation_count >= 1);
    }
    let traps: u64 = report.per_worker.iter().map(|w| w.traps).sum();
    assert_eq!(traps, 24, "every request must be counted as a trap");
    // A trapping fleet must still be deterministic: replay serially.
    let mut inst = engine.instantiate(&program);
    for r in &report.results {
        let serial = fleet::observe(&mut inst, "main", requests[r.index]);
        assert_eq!(
            serial, r.observation,
            "request {} diverged from the serial oracle",
            r.index
        );
    }
}

#[test]
fn single_request_with_wide_pool_is_served_exactly_once() {
    let engine = engine();
    let program = engine.compile(MIXED_HANDLER).expect("handler compiles");
    let requests = mixed_traffic(1, 0, 5);
    let report = fleet::serve(&engine, &program, "main", &requests, 8);
    assert_eq!(report.workers, 8);
    assert_eq!(report.results.len(), 1, "one request, one result");
    assert_eq!(
        report.per_worker.iter().map(|w| w.served).sum::<usize>(),
        1,
        "idle workers must not invent work"
    );
    let obs = &report.results[0].observation;
    assert!(
        matches!(obs.outcome, Outcome::Finished { .. }),
        "safe request must finish, got {:?}",
        obs.outcome
    );
    assert_eq!(obs.violation_count, 0);
    // The result must match a serial run bit-for-bit.
    let mut inst = engine.instantiate(&program);
    assert_eq!(fleet::observe(&mut inst, "main", requests[0]), *obs);
}
