//! The amortization proof for the session API: requests/sec on one
//! reused [`Instance`](softbound::Instance) versus building a fresh
//! machine per request (shadow directory chunks and page frames, global
//! layout, frame plans re-done every time) versus re-running the whole
//! compile pipeline per request.
//!
//! Two request shapes: a small allocation-and-check "request" where the
//! per-machine setup dominates, and the §6.4 HTTP-like daemon serving a
//! real connection batch.
//!
//! Also the interpreter-lane comparison: `reused_instance` drives the
//! pre-decoded execution IR (the lane every `Instance` serves), the
//! `tree_walk_reused_instance` lane drives the tree-walk reference
//! (`Machine::run`) over the same program, and `relower_per_request`
//! re-lowers the flat IR every request — the decode cost `Program`
//! caching amortizes away.
//!
//! ```sh
//! cargo bench -p sb-bench --bench throughput
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sb_bench::perf::{tree_walk_machine, tree_walk_run};
use sb_vm::ExecModule;
use softbound::{fleet, Engine};

/// A request-sized program: parse-ish arithmetic, a little heap churn,
/// pointer stores (metadata traffic), and a checksum reply.
const SMALL_REQUEST: &str = r#"
    struct item { int id; struct item* next; };
    int main(int n) {
        struct item* head = NULL;
        for (int i = 0; i <= n; i++) {
            struct item* it = (struct item*)malloc(sizeof(struct item));
            it->id = i * 3 + 1;
            it->next = head;
            head = it;
        }
        int sum = 0;
        while (head != NULL) {
            sum += head->id;
            struct item* dead = head;
            head = head->next;
            free(dead);
        }
        return sum;
    }
"#;

fn bench_program(c: &mut Criterion, group_name: &str, src: &str, args: &[i64]) {
    let engine = Engine::new();
    let program = engine.compile(src).expect("compiles");
    let expected = engine.instantiate(&program).run("main", args).ret();
    assert!(expected.is_some(), "request program must finish");

    let mut group = c.benchmark_group(group_name);
    group.sample_size(20);

    // The session path: one machine, one shadow overlay, reset
    // between requests — driving the pre-decoded lane.
    group.bench_function("reused_instance", |b| {
        let mut instance = engine.instantiate(&program);
        b.iter(|| black_box(instance.run("main", args).ret()));
    });

    // The same topology on the tree-walk reference: one machine reset
    // between requests. The gap to `reused_instance` is pure
    // decode/dispatch, since both lanes execute identical semantics
    // (pinned by the differential suite).
    group.bench_function("tree_walk_reused_instance", |b| {
        let mut machine = tree_walk_machine(&program);
        b.iter(|| black_box(tree_walk_run(&mut machine, args).ret()));
    });

    // What the pre-decoded lane would cost if the lowering were NOT
    // cached on the Program: re-lower the flat IR every request.
    group.bench_function("relower_per_request", |b| {
        let mut instance = engine.instantiate(&program);
        b.iter(|| {
            let exec = ExecModule::lower(program.module());
            black_box(exec.op_count());
            black_box(instance.run("main", args).ret())
        });
    });

    // The compile amortized, nothing else: a fresh runtime (fresh
    // directory chunks and page frames) and machine per request.
    group.bench_function("fresh_machine_per_request", |b| {
        b.iter(|| black_box(engine.instantiate(&program).run("main", args).ret()));
    });

    // The fully one-shot path: compile + instantiate + run per request.
    group.bench_function("full_pipeline_per_request", |b| {
        b.iter(|| black_box(engine.run_once(src, "main", args).expect("ok").ret()));
    });

    // Fleet lanes: the same shared Program served by a worker pool
    // (one persistent Instance per worker, atomic work-stealing). On a
    // multi-core host the 4-worker lane pulls ahead of
    // `reused_instance`; on a 1-core host it measures pool overhead.
    // The fleet protocol is one scalar argument per request, so these
    // lanes only apply to single-argument request programs.
    if let [arg] = *args {
        for workers in [1usize, 4] {
            group.bench_function(format!("fleet_{workers}_workers_batch8"), |b| {
                let requests = [arg; 8];
                b.iter(|| {
                    let report = fleet::serve(&engine, &program, "main", &requests, workers);
                    assert_eq!(report.results.len(), requests.len());
                    black_box(report.reqs_per_sec)
                });
            });
        }
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_program(c, "throughput/small_request", SMALL_REQUEST, &[32]);
    let daemon = sb_workloads::daemons::all()
        .into_iter()
        .find(|d| d.name == "nhttpd")
        .expect("daemon exists");
    bench_program(c, "throughput/nhttpd_batch", daemon.source, &[2]);
    // String/buffer request shapes from the libc corpus: wrapper-check
    // traffic (strcpy) and block-copy traffic (memcpy) on the shared
    // safe arguments the perf trajectory uses.
    for kernel in ["strcpy", "memcpy"] {
        let k = sb_workloads::libc_kernel_by_name(kernel).expect("kernel exists");
        bench_program(
            c,
            &format!("throughput/libc_{kernel}"),
            k.source,
            &sb_bench::perf::LIBC_ARGS,
        );
    }
}

criterion_group!(throughput, benches);
criterion_main!(throughput);
