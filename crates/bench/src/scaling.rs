//! Fleet scaling curve: aggregate requests/sec of the
//! [`softbound::fleet`] worker pool as the pool grows, measured over
//! the §6.4 nhttpd daemon on a deterministic connection-batch stream.
//!
//! Each pool size is measured twice — once over per-worker private
//! shadow facilities (`Facility::ShadowPaged`, every worker owns a
//! full 256 MiB directory) and once over the process-wide shared
//! reservation (`Facility::ShadowShared`, one directory for the whole
//! pool) — so the JSON records the standing metadata reservation both
//! ways and the shared facility's headline (8 workers within ~1.2× of
//! a single worker, instead of 8×) is a measured number, not a claim.
//!
//! Rendered into `BENCH_softbound.json` (the `scaling` section) by the
//! `perf_trajectory` binary alongside the per-lane perf rows:
//!
//! ```sh
//! cargo run -p sb-bench --bin perf_trajectory --release
//! ```
//!
//! The curve is only as honest as the host: the JSON records
//! [`host_cores`] next to the points, because on a single-core
//! container every worker count shares one core and the curve is flat
//! by construction — what the measurement then still proves is that
//! pooling does not *collapse* (no lock convoys, no serialization
//! through shared state; the shared directory is read-only on the
//! check path, so there is no shared mutable state to convoy on).

use softbound::fleet;
use softbound::{Engine, Facility};

/// Pool sizes the curve samples.
pub const WORKER_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Requests per measured point (each request serves an nhttpd
/// connection batch of 1–4 connections, 7 HTTP requests each).
pub const REQUESTS_PER_POINT: usize = 24;

/// One point on the scaling curve.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Pool size.
    pub workers: usize,
    /// Requests served.
    pub requests: usize,
    /// Best-of-N wall time for the whole batch, nanoseconds
    /// (private-facility pool, the historical timing lane).
    pub wall_ns: u64,
    /// Aggregate throughput at that wall time.
    pub reqs_per_sec: f64,
    /// Median request latency (nearest-rank), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile request latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_ns: u64,
    /// Largest per-worker standing metadata reservation observed in
    /// the private-facility pool (the cost the shared reservation
    /// removes; kept for curve continuity across report versions).
    pub reservation_bytes_per_worker: usize,
    /// Whole-pool standing reservation with per-worker private
    /// facilities: every worker pays for its own directory.
    pub reservation_bytes_private: usize,
    /// Whole-pool standing reservation with the shared facility: one
    /// directory counted once plus each worker's private pages.
    pub reservation_bytes_shared: usize,
}

/// CPU cores visible to this process — the context that makes the
/// curve interpretable (a flat curve on 1 core is expected; on 8 cores
/// it would be a finding).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn best_of(
    engine: &Engine,
    program: &softbound::Program,
    stream: &[i64],
    workers: usize,
) -> fleet::FleetReport {
    let mut best: Option<fleet::FleetReport> = None;
    for _ in 0..3 {
        let report = fleet::serve(engine, program, "main", stream, workers);
        if best.as_ref().is_none_or(|b| report.wall_ns < b.wall_ns) {
            best = Some(report);
        }
    }
    best.expect("at least one attempt")
}

/// Measures the scaling curve: for each pool size, serves the same
/// deterministic nhttpd batch stream through both facility flavours
/// and keeps the best-of-N wall time (noise only ever slows a batch
/// down).
pub fn run() -> Vec<ScalingPoint> {
    let daemon = sb_workloads::daemons::all()
        .into_iter()
        .find(|d| d.name == "nhttpd")
        .expect("nhttpd daemon exists");
    let private_engine = Engine::new().facility(Facility::ShadowPaged);
    let shared_engine = Engine::new().facility(Facility::ShadowShared);
    let private_program = private_engine
        .compile(daemon.source)
        .expect("daemon compiles");
    let shared_program = shared_engine
        .compile(daemon.source)
        .expect("daemon compiles");
    let stream = sb_workloads::nhttpd_batches(REQUESTS_PER_POINT, 0x5ca1e);

    WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let report = best_of(&private_engine, &private_program, &stream, workers);
            let shared = best_of(&shared_engine, &shared_program, &stream, workers);
            ScalingPoint {
                workers,
                requests: report.results.len(),
                wall_ns: report.wall_ns,
                reqs_per_sec: report.reqs_per_sec,
                p50_ns: report.p50_ns,
                p95_ns: report.p95_ns,
                p99_ns: report.p99_ns,
                reservation_bytes_per_worker: report
                    .per_worker
                    .iter()
                    .map(|w| w.reservation_bytes)
                    .max()
                    .unwrap_or(0),
                reservation_bytes_private: report.reservation_total_bytes(),
                reservation_bytes_shared: shared.reservation_total_bytes(),
            }
        })
        .collect()
}

/// Renders the curve as the `scaling` JSON object embedded in
/// `BENCH_softbound.json` (hand-rolled; no JSON dependency).
pub fn render_json(points: &[ScalingPoint]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "  \"scaling\": {{\n    \"workload\": \"nhttpd\",\n    \
         \"host_cores\": {},\n    \"requests_per_point\": {},\n    \"points\": [\n",
        host_cores(),
        REQUESTS_PER_POINT
    ));
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"workers\": {}, \"requests\": {}, \"wall_ns\": {}, \
             \"reqs_per_sec\": {:.1}, \"p50_ns\": {}, \"p95_ns\": {}, \
             \"p99_ns\": {}, \"reservation_bytes_per_worker\": {}, \
             \"reservation_bytes_private\": {}, \
             \"reservation_bytes_shared\": {}}}{}\n",
            p.workers,
            p.requests,
            p.wall_ns,
            p.reqs_per_sec,
            p.p50_ns,
            p.p95_ns,
            p.p99_ns,
            p.reservation_bytes_per_worker,
            p.reservation_bytes_private,
            p.reservation_bytes_shared,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str("    ]\n  }");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast, core-count-robust slice of the curve: a 4-worker pool
    /// must serve the whole stream correctly and must not *collapse*
    /// relative to a single worker. On a multi-core host the pool wins
    /// outright; on a 1-core host (this container) the best it can do
    /// is tie, so the bar is "not dramatically slower" — a lock convoy
    /// or accidental serialization through shared state would blow
    /// straight past 3×. Run over the *shared* facility, where a
    /// convoy on the shared directory would actually live. The stream is
    /// long enough (a few ms for one worker) that request work, not the
    /// pool's fixed start-up — thread spawns, one instance per worker, a
    /// scheduler tick on a busy host — sets the ratio.
    #[test]
    fn four_workers_do_not_collapse() {
        let engine = Engine::new().facility(Facility::ShadowShared);
        let program = engine
            .compile(sb_workloads::MIXED_HANDLER)
            .expect("handler compiles");
        let stream = sb_workloads::mixed_traffic(1024, 5, 9);
        let expected_traps = stream.iter().filter(|&&l| l > 16).count() as u64;

        let mut worst = (u64::MAX, 0u64);
        for _ in 0..5 {
            let one = fleet::serve(&engine, &program, "main", &stream, 1);
            let four = fleet::serve(&engine, &program, "main", &stream, 4);
            for report in [&one, &four] {
                assert_eq!(report.results.len(), stream.len());
                let traps: u64 = report.per_worker.iter().map(|w| w.traps).sum();
                assert_eq!(traps, expected_traps, "trap placement diverged");
            }
            if four.wall_ns <= one.wall_ns.saturating_mul(3) {
                return;
            }
            worst = (four.wall_ns, one.wall_ns);
        }
        panic!(
            "4-worker pool collapsed in every attempt: 4 workers {} ns vs 1 worker {} ns",
            worst.0, worst.1
        );
    }

    /// The ISSUE's acceptance bar, measured on a cheap stream: an
    /// 8-worker shared-facility pool's standing metadata reservation
    /// stays within 1.2× of a single worker's (the directory is paid
    /// once; only pages and chunk roots multiply), while the private
    /// pool pays the full directory eight times.
    #[test]
    fn eight_shared_workers_reserve_little_more_than_one() {
        let shared_engine = Engine::new().facility(Facility::ShadowShared);
        let private_engine = Engine::new().facility(Facility::ShadowPaged);
        let shared_program = shared_engine
            .compile(sb_workloads::MIXED_HANDLER)
            .expect("handler compiles");
        let private_program = private_engine
            .compile(sb_workloads::MIXED_HANDLER)
            .expect("handler compiles");
        let stream = sb_workloads::mixed_traffic(32, 5, 9);

        let one = fleet::serve(&shared_engine, &shared_program, "main", &stream, 1)
            .reservation_total_bytes();
        let eight = fleet::serve(&shared_engine, &shared_program, "main", &stream, 8)
            .reservation_total_bytes();
        assert!(
            eight as f64 <= one as f64 * 1.2,
            "8-worker shared pool reserves {eight} bytes, more than 1.2x \
             a single worker's {one}"
        );

        let eight_private = fleet::serve(&private_engine, &private_program, "main", &stream, 8)
            .reservation_total_bytes();
        assert!(
            eight_private > 4 * one,
            "private 8-worker pool should dwarf the shared pool \
             ({eight_private} vs {one}) — did the directory stop being \
             the dominant cost?"
        );
    }

    #[test]
    fn scaling_json_shape() {
        let points = vec![
            ScalingPoint {
                workers: 1,
                requests: 24,
                wall_ns: 1000,
                reqs_per_sec: 24.0,
                p50_ns: 40,
                p95_ns: 90,
                p99_ns: 99,
                reservation_bytes_per_worker: 1 << 28,
                reservation_bytes_private: 1 << 28,
                reservation_bytes_shared: (1 << 28) + (1 << 22),
            },
            ScalingPoint {
                workers: 4,
                requests: 24,
                wall_ns: 500,
                reqs_per_sec: 48.0,
                p50_ns: 40,
                p95_ns: 90,
                p99_ns: 99,
                reservation_bytes_per_worker: 1 << 28,
                reservation_bytes_private: 4 << 28,
                reservation_bytes_shared: (1 << 28) + (4 << 22),
            },
        ];
        let json = render_json(&points);
        for key in [
            "\"scaling\"",
            "\"host_cores\"",
            "\"workers\": 1",
            "\"workers\": 4",
            "\"reqs_per_sec\"",
            "\"reservation_bytes_per_worker\"",
            "\"reservation_bytes_private\"",
            "\"reservation_bytes_shared\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
