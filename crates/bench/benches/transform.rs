//! Benchmark of the SoftBound transformation pass itself (the paper's
//! pass is "less than 5000 lines of C++"; this measures instrumentation
//! throughput over the evaluation workloads).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sb_cir::PtrLayout;
use sb_workloads::all_benchmarks;
use softbound::{front_half, Engine, SoftBoundConfig};

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("transform");
    group.sample_size(20);

    // Pre-lower every workload once; measure the pass alone.
    let modules: Vec<(String, sb_ir::Module)> = all_benchmarks()
        .iter()
        .map(|w| {
            let m = front_half(w.source, PtrLayout::Thin, w.name).expect("compiles");
            (w.name.to_string(), m)
        })
        .collect();
    let total_insts: usize = modules.iter().map(|(_, m)| m.inst_count()).sum();

    group.bench_function(
        format!("instrument_all_15_workloads_{total_insts}_insts"),
        |b| {
            let cfg = SoftBoundConfig::full_shadow();
            b.iter(|| {
                for (_, m) in &modules {
                    black_box(softbound::instrument(m, &cfg));
                }
            });
        },
    );

    group.bench_function("frontend_compile_treeadd", |b| {
        let src = sb_workloads::benchmark_by_name("treeadd")
            .expect("exists")
            .source;
        b.iter(|| black_box(sb_cir::compile(src).expect("compiles")));
    });

    group.bench_function("lower_and_optimize_treeadd", |b| {
        let src = sb_workloads::benchmark_by_name("treeadd")
            .expect("exists")
            .source;
        let prog = sb_cir::compile(src).expect("compiles");
        b.iter(|| {
            let mut m = sb_ir::lower(&prog, "treeadd");
            sb_ir::optimize(&mut m, sb_ir::OptLevel::PreInstrument);
            black_box(m);
        });
    });

    // End-to-end execution of the instrumented module on a fresh
    // instance per iteration, over a pointer-heavy workload.
    let w = sb_workloads::benchmark_by_name("treeadd").expect("exists");
    let cfg = SoftBoundConfig::full_shadow();
    let engine = Engine::new().softbound_config(cfg.clone());
    let program = engine.compile(w.source).expect("compiles");
    group.bench_function("run_protected_treeadd_static", |b| {
        b.iter(|| {
            black_box(
                engine
                    .instantiate(&program)
                    .run("main", &[w.default_arg])
                    .ret(),
            )
        });
    });
    group.finish();
}

criterion_group!(transform, benches);
criterion_main!(transform);
