//! `fleet_mixed`: `fleet::serve` of `MIXED_HANDLER` over
//! `mixed_traffic(n, 8, seed)` — one request in 8 overflows and must
//! trap — in store-only mode on the shared shadow facility, with a pool
//! of 2 workers (never more than the host's cores). A closed loop: the
//! whole batch is queued at t0 and each worker pulls the next request
//! when it is done, which is `serve`'s own shape.

use crate::calib::{self, Calibrator};
use crate::corpus::{mixed_correct, Source};
use crate::host;
use crate::repeat_for;
use crate::report::{add_run_counts, Counts, Metric, Tally};
use crate::stages;
use crate::stats::{beyond, median, percentile, sorted};
use crate::trace::Tracer;
use softbound::fleet::{self, FleetReport};
use softbound::{CheckMode, Engine, Facility, Program};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Requests per timed `serve` call.
const BATCH: usize = 32_768;
/// Requests of the warm-up `serve` call in each set-up.
const WARM: usize = 4_096;
/// Requests the traced run replays serially, per round.
const REPLAY: usize = 2_048;
/// Replay rounds, which bounds the span file (5 spans per request).
const MAX_ROUNDS: usize = 4;
/// Timed batches at least.
const MIN_BATCHES: usize = 5;
/// One request in this many overflows.
const TRAP_EVERY: usize = 8;

const HANDLER: Source = Source {
    name: "mixed_handler",
    text: sb_workloads::MIXED_HANDLER,
};

fn engine() -> Engine {
    Engine::new()
        .check_mode(CheckMode::StoreOnly)
        .facility(Facility::ShadowShared)
}

fn workers() -> usize {
    host::nproc().min(2)
}

/// Batch `batch` of the run's request stream, a pure function of the
/// seed.
fn stream(seed: u64, batch: u64, n: usize) -> Vec<i64> {
    let s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(batch);
    sb_workloads::mixed_traffic(n, TRAP_EVERY, s)
}

fn check_report(tally: &mut Tally, requests: &[i64], report: &FleetReport) {
    tally.check(report.results.len() == requests.len(), || {
        format!(
            "{} of {} requests served",
            report.results.len(),
            requests.len()
        )
    });
    for r in &report.results {
        let n = requests[r.index];
        let outcome = &r.observation.outcome;
        tally.check(mixed_correct(n, outcome), || {
            format!("request {} (n = {n}): {outcome:?}", r.index)
        });
    }
}

/// Compiles the handler, then serves a warm-up batch. Returns the
/// program once every request was answered correctly.
fn setup(engine: &Engine, seed: u64, rep: u64, tally: &mut Tally) -> Option<Program> {
    let program = match engine.compile(HANDLER.text) {
        Ok(p) => p,
        Err(e) => {
            tally.fail(format!("{}: {e}", HANDLER.name));
            return None;
        }
    };
    warm(engine, &program, seed, rep, tally);
    (tally.failed == 0).then_some(program)
}

fn warm(engine: &Engine, program: &Program, seed: u64, rep: u64, tally: &mut Tally) {
    let requests = stream(seed, u64::MAX - rep, WARM);
    let report = fleet::serve(engine, program, "main", &requests, workers());
    check_report(tally, &requests, &report);
}

/// What one timed `serve` call reported, kept instead of the report so
/// that memory does not grow with the number of batches.
struct Batch {
    /// Lower-quartile latency, from the per-request latencies.
    p25_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    reqs_per_sec: f64,
    /// Σ latency over wall × workers.
    busy: f64,
    /// (max − min) requests served per worker over the mean.
    imbalance: f64,
    traps: u64,
    reservation_bytes: usize,
}

impl Batch {
    fn of(r: &FleetReport) -> Batch {
        let served: Vec<f64> = r.per_worker.iter().map(|w| w.served as f64).collect();
        let mean = served.iter().sum::<f64>() / served.len() as f64;
        let spread = served.iter().copied().fold(0.0, f64::max)
            - served.iter().copied().fold(f64::MAX, f64::min);
        let latencies: Vec<f64> = r.results.iter().map(|x| x.latency_ns as f64).collect();
        let busy_ns: f64 = latencies.iter().sum();
        Batch {
            p25_ns: percentile(&sorted(&latencies), 25.0),
            p50_ns: r.p50_ns as f64,
            p99_ns: r.p99_ns as f64,
            reqs_per_sec: r.reqs_per_sec,
            busy: busy_ns / (r.wall_ns as f64 * r.workers as f64),
            imbalance: spread / mean,
            traps: r.per_worker.iter().map(|w| w.traps).sum(),
            reservation_bytes: r.reservation_total_bytes(),
        }
    }
}

/// Serves timed batches for `seconds`, with a calibration chunk
/// between batches. Returns every batch and the peak memory once
/// [`MIN_BATCHES`] were served, a fixed amount of work.
fn batches(
    engine: &Engine,
    program: &Program,
    seed: u64,
    seconds: f64,
    cal: &mut Calibrator,
    tally: &mut Tally,
) -> (Vec<Batch>, f64) {
    let mut out = Vec::new();
    let mut rss_mib = None;
    repeat_for(seconds, MIN_BATCHES, |b| {
        if b == MIN_BATCHES {
            rss_mib = Some(calib::peak_rss_mib());
        }
        cal.tick();
        let requests = stream(seed, b as u64, BATCH);
        let report = fleet::serve(engine, program, "main", &requests, workers());
        check_report(tally, &requests, &report);
        out.push(Batch::of(&report));
        tally.failed == 0
    });
    (out, rss_mib.unwrap_or_else(calib::peak_rss_mib))
}

fn median_of(batches: &[Batch], f: impl Fn(&Batch) -> f64) -> f64 {
    median(&batches.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics, tracing off. The first set-up is followed by
/// the timed batches and the memory reading; the other set-ups only
/// time themselves.
pub fn measure(seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let engine = engine();
    let mut cal = Calibrator::default();
    let mut setup_s = Vec::new();
    let (mut reports, mut rss_mib) = (Vec::new(), 0.0);
    for rep in 0..SETUPS as u64 {
        cal.tick();
        let t = Instant::now();
        let program = setup(&engine, seed, rep, tally);
        setup_s.push(t.elapsed().as_secs_f64());
        let Some(program) = program else {
            return Vec::new();
        };
        if rep == 0 {
            (reports, rss_mib) = batches(&engine, &program, seed, seconds, &mut cal, tally);
        }
    }
    let scale = cal.scale();
    let speed = cal.note();
    let reservation_mib = reports[0].reservation_bytes as f64 / f64::from(1 << 20);
    let latency = |f: fn(&Batch) -> f64| scale * median_of(&reports, f) / 1e6;
    let per = format!(
        "median over {} batches of {BATCH} requests, {} workers",
        reports.len(),
        workers()
    );
    vec![
        Metric::new(
            "setup_s",
            scale * median(&setup_s),
            format!("median of {SETUPS} set-ups: compile, a {WARM}-request warm-up serve; {speed}"),
        ),
        Metric::new(
            "op_p25_ms",
            latency(|b| b.p25_ns),
            format!("latency_us.p25 / 1000: {per}; {speed}"),
        ),
        Metric::new(
            "op_p50_ms",
            latency(|b| b.p50_ns),
            format!("latency_us.p50 / 1000: FleetReport p50, {per}; {speed}"),
        ),
        Metric::new(
            "op_tail_ms",
            latency(|b| b.p99_ns),
            format!(
                "latency_us.p99 / 1000: FleetReport p99, {} requests beyond it per batch",
                beyond(BATCH, 99.0)
            ),
        ),
        Metric::new(
            "ops_per_s",
            median_of(&reports, |b| b.reqs_per_sec) / scale,
            format!("req_per_s: FleetReport reqs_per_sec, {per}; {speed}"),
        ),
        Metric::new(
            "reservation_mib",
            reservation_mib,
            "FleetReport::reservation_total_bytes of the first batch",
        ),
        Metric::new("peak_rss_mib", rss_mib, format!("VmHWM without the calibration table, after the first set-up and {MIN_BATCHES} batches")),
    ]
}

/// The per-layer run: `fleet::observe`'s call sequence — reset, run,
/// memory digest, evidence drain — replayed serially on one instance,
/// [`MAX_ROUNDS`] untraced rounds (`fleet::observe` itself) alternating
/// with traced ones; then pooled batches, tracing off, for `seconds`.
pub fn trace(seed: u64, seconds: f64, tally: &mut Tally, tr: &mut Tracer) -> (Vec<Metric>, Counts) {
    let engine = engine();
    let mut program = None;
    let mut static_counts = Counts::new();
    for rep in 0..SETUPS as u64 {
        match stages::traced_compile(&engine, &HANDLER, tr, rep) {
            Ok((p, c)) => {
                tally.check(true, String::new);
                static_counts = stages::stage_counts(&c);
                warm(&engine, &p, seed, rep, tally);
                program = Some(p);
            }
            Err(e) => tally.fail(e),
        }
        if tally.failed > 0 {
            return (Vec::new(), Counts::new());
        }
    }
    let program = program.expect("set-up succeeded");
    let requests = stream(seed, 0, REPLAY);
    let mut instance = tr.leaf("engine.instantiate", HANDLER.name, 0, 0, || {
        engine.instantiate(&program)
    });
    let mut counts = static_counts;
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (rounds, _) = repeat_for(0.0, MAX_ROUNDS, |round| {
        let t = Instant::now();
        for (i, &n) in requests.iter().enumerate() {
            let o = fleet::observe(&mut instance, "main", n);
            tally.check(mixed_correct(n, &o.outcome), || {
                format!("replayed request {i} (n = {n}): {:?}", o.outcome)
            });
        }
        untraced_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for (i, &n) in requests.iter().enumerate() {
            let op = (round * REPLAY + i) as u64;
            let root = tr.open("fleet.request", "", op, 0);
            tr.leaf("engine.reset", "", op, root, || instance.reset());
            let r = tr.leaf("interp.run", "", op, root, || instance.run("main", &[n]));
            std::hint::black_box(tr.leaf("mem.hash", "", op, root, || instance.mem_content_hash()));
            let evidence = tr.leaf("fleet.drain", "", op, root, || instance.drain_evidence());
            tr.close(root);
            tally.check(mixed_correct(n, &r.outcome) && evidence.is_empty(), || {
                format!("traced request {i} (n = {n}): {:?}", r.outcome)
            });
            if round == 0 {
                add_run_counts(&mut counts, &r.stats, instance.live_entries());
            }
        }
        traced_s.push(t.elapsed().as_secs_f64());
        tally.failed == 0
    });
    let (reports, _) = batches(
        &engine,
        &program,
        seed,
        seconds,
        &mut Calibrator::default(),
        tally,
    );
    let latency_us = median_of(&reports, |r| r.p50_ns / 1e3);
    counts.insert("fleet.traps", reports[0].traps);

    let med = |name: &str| median(&tr.per_op_us(name));
    let (reset, run, hash, drain) = (
        med("engine.reset"),
        med("interp.run"),
        med("mem.hash"),
        med("fleet.drain"),
    );
    let run_total_ns: f64 = tr.per_op_us("interp.run").iter().sum::<f64>() * 1e3;
    let replay_note = format!("median over {} serially replayed requests", rounds * REPLAY);
    let pooled_note = format!("median over {} pooled batches of {BATCH}", reports.len());
    let mut m = vec![
        Metric::new(
            "metadata.reservation_bytes",
            reports[0].reservation_bytes as f64,
            "FleetReport::reservation_total_bytes of the first batch",
        ),
        Metric::new("engine.reset_us", reset, replay_note.clone()),
        Metric::new("interp.run_us", run, replay_note.clone()),
        Metric::new("mem.hash_us", hash, replay_note.clone()),
        Metric::new("fleet.drain_us", drain, replay_note.clone()),
        Metric::new(
            "engine.instantiate_us",
            median(&tr.per_op_us("engine.instantiate")),
            "one instance for the serial replay",
        ),
        Metric::new(
            "interp.ns_per_inst",
            run_total_ns / (counts["interp.insts"] as f64 * rounds as f64),
            format!("run spans over instructions, {rounds} replay rounds"),
        ),
        Metric::new(
            "fleet.observe_overhead_us",
            latency_us - run,
            format!(
                "pooled latency p50 ({latency_us:.3} us, {pooled_note}) minus replayed run p50"
            ),
        ),
        Metric::new(
            "fleet.busy_share",
            median_of(&reports, |r| r.busy),
            format!("sum of latency over wall x workers, {pooled_note}"),
        ),
        Metric::new(
            "fleet.served_imbalance",
            median_of(&reports, |r| r.imbalance),
            format!("(max - min) requests served per worker over the mean, {pooled_note}"),
        ),
        Metric::new(
            "trace.overhead_share",
            median(&traced_s) / median(&untraced_s) - 1.0,
            format!("traced over untraced replay round, {rounds} rounds of {REPLAY}, minus 1"),
        ),
        Metric::new(
            "trace.unaccounted_share",
            1.0 - (reset + run + hash + drain) / latency_us,
            "share of the pooled latency p50 the replayed reset + run + hash + drain do not cover",
        ),
    ];
    m.extend(stages::stage_metrics(tr, &[HANDLER]).0);
    (m, counts)
}
