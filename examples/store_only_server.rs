//! §6.4-style production scenario: serve repeated request batches from
//! the HTTP-like daemon on a *reused* `Instance` under store-only
//! checking (the low-overhead mode the paper recommends for
//! production), comparing cost against full checking and no protection,
//! and comparing serving latency against building a fresh machine per
//! batch.
//!
//! ```sh
//! cargo run --example store_only_server --release
//! ```

use softbound_repro::baselines::Scheme;
use softbound_repro::core::fleet;
use softbound_repro::core::{CheckMode, Engine, SoftBoundConfig};
use softbound_repro::workloads::daemons;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let daemon = daemons::all()
        .into_iter()
        .find(|d| d.name == "nhttpd")
        .expect("exists");
    println!("daemon: {} — {}\n", daemon.name, daemon.description);

    // Baseline.
    let base = Scheme::Uninstrumented.run(daemon.source, "main", &[20])?;
    let base_ret = base.ret().expect("daemon runs");
    println!(
        "{:<28}cycles {:>10}   checksum {}",
        "uninstrumented", base.stats.cycles, base_ret
    );

    for cfg in [
        SoftBoundConfig::store_only_shadow(),
        SoftBoundConfig::full_shadow(),
    ] {
        let engine = Engine::new().softbound_config(cfg.clone());
        let program = engine.compile(daemon.source)?;
        let mut instance = engine.instantiate(&program);
        let r = instance.run("main", &[20]);
        assert_eq!(r.ret(), Some(base_ret), "no false positives, same answers");
        let overhead = 100.0 * (r.stats.cycles as f64 / base.stats.cycles as f64 - 1.0);
        println!(
            "{:<28}cycles {:>10}   checksum {}   overhead {:>5.1}%   checks {}",
            cfg.label(),
            r.stats.cycles,
            r.ret().expect("finished"),
            overhead,
            r.stats.checks
        );
    }

    // The session payoff: serve a stream of batches on one instance
    // (shadow directory + compile amortized) vs a fresh machine per
    // batch from the same compiled program.
    let engine = Engine::new().check_mode(CheckMode::StoreOnly);
    let program = engine.compile(daemon.source)?;
    const BATCHES: usize = 10;

    let mut instance = engine.instantiate(&program);
    instance.run("main", &[5]); // warm
    let t = Instant::now();
    for _ in 0..BATCHES {
        assert!(instance.run("main", &[5]).ret().is_some());
    }
    let reused = t.elapsed();

    let t = Instant::now();
    for _ in 0..BATCHES {
        assert!(engine
            .instantiate(&program)
            .run("main", &[5])
            .ret()
            .is_some());
    }
    let fresh = t.elapsed();

    println!(
        "\nserving {BATCHES} request batches: reused instance {:?} vs fresh machine per batch {:?} \
         ({:.2}x)",
        reused,
        fresh,
        fresh.as_secs_f64() / reused.as_secs_f64().max(1e-9),
    );

    // Threaded mode: the same compiled Program served by a worker pool
    // (Program is Send + Sync; each worker owns one Instance). The
    // report shows the pool's standing metadata reservation: each idle
    // worker keeps its shadow directory and hands its page frames to a
    // process-wide pool.
    let stream = softbound_repro::workloads::nhttpd_batches(16, 7);
    for workers in [1usize, 4] {
        let report = fleet::serve(&engine, &program, "main", &stream, workers);
        let reserved_kib = report.reservation_total_bytes() >> 10;
        println!(
            "fleet x{workers}: {} requests at {:.0} req/s (p50 {:?}, p99 {:?}, {reserved_kib} KiB reserved across pool)",
            report.results.len(),
            report.reqs_per_sec,
            std::time::Duration::from_nanos(report.p50_ns),
            std::time::Duration::from_nanos(report.p99_ns),
        );
    }
    println!("Transformed without source changes; zero false positives (§6.4).");
    Ok(())
}
