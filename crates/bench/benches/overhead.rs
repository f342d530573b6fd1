//! Wall-clock companion to Figure 2: execute representative workloads
//! (one array-heavy, one pointer-heavy) under the uninstrumented machine
//! and the four SoftBound configurations.
//!
//! The *reported* Figure 2 numbers come from the cost model
//! (`cargo run -p sb-bench --bin figure2 --release`); this bench exists
//! to keep real executable end-to-end latency visible in CI.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sb_baselines::Scheme;
use softbound::SoftBoundConfig;

fn bench_workload(c: &mut Criterion, name: &str, arg: i64) {
    let w = sb_workloads::benchmark_by_name(name).expect("workload exists");
    let mut group = c.benchmark_group(format!("overhead/{name}"));
    group.sample_size(10);

    let configs = [
        SoftBoundConfig::full_hash(),
        SoftBoundConfig::full_shadow(),
        SoftBoundConfig::store_only_hash(),
        SoftBoundConfig::store_only_shadow(),
    ];
    // Every lane runs on the pre-decoded lane its scheme serves.
    let lanes = std::iter::once(("uninstrumented".to_string(), Scheme::Uninstrumented))
        .chain(configs.map(|cfg| (cfg.label(), Scheme::SoftBound(cfg))));
    for (label, scheme) in lanes {
        let program = scheme.compile(w.source).expect("compiles");
        group.bench_function(label, |b| {
            b.iter(|| black_box(scheme.run_program(&program, "main", &[arg]).ret()));
        });
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_workload(c, "compress", 1); // array-heavy (SPEC side)
    bench_workload(c, "treeadd", 9); // pointer-heavy (Olden side)
}

criterion_group!(overhead, benches);
criterion_main!(overhead);
