//! Regenerates `BENCH_softbound.json` — the perf-trajectory snapshot of
//! the pre-decoded execution IR versus the tree-walk reference, the
//! libc-kernel corpus lanes, plus the fleet-serving scaling curve
//! (req/s vs worker count over one shared `Program`).
//!
//! ```sh
//! cargo run -p sb-bench --bin perf_trajectory --release > BENCH_softbound.json
//! ```

fn main() {
    let rows = sb_bench::perf::run();
    let libc = sb_bench::perf::run_libc();
    let scaling = sb_bench::scaling::run();
    print!("{}", sb_bench::perf::render_json(&rows, &scaling, &libc));
    for (workload, x) in sb_bench::perf::speedups(&rows) {
        eprintln!("{workload}: pre-decoded {x:.2}x over tree-walk");
    }
    for (kernel, x) in sb_bench::perf::speedups(&libc) {
        eprintln!("libc {kernel}: pre-decoded {x:.2}x over tree-walk");
    }
    for p in &scaling {
        eprintln!(
            "fleet nhttpd: {} workers -> {:.1} req/s (p99 {} us, standing \
             reservation {} KiB)",
            p.workers,
            p.reqs_per_sec,
            p.p99_ns / 1000,
            p.reservation_bytes >> 10
        );
    }
}
