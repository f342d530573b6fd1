//! Perf-trajectory snapshot: the speed curve re-anchors read.
//!
//! Measures wall-clock ns per executed VM instruction for each
//! evaluation workload on both interpreter lanes — the pre-decoded
//! execution IR an `Instance` serves, and the tree-walk reference
//! reached through `Machine::run` — plus the static elimination and
//! fusion counts that explain the curve. Rendered as
//! `BENCH_softbound.json` by the `perf_trajectory` binary:
//!
//! ```sh
//! cargo run -p sb-bench --bin perf_trajectory --release
//! ```

use sb_vm::{Machine, MachineConfig, RunResult};
use softbound::{Engine, Program, ShadowPages, SoftBoundConfig, SoftBoundRuntime};
use std::time::Instant;

/// One (workload, lane) measurement.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Workload name.
    pub workload: &'static str,
    /// `"predecoded"` or `"tree_walk"`.
    pub lane: &'static str,
    /// Best-of-N wall-clock nanoseconds for one run.
    pub run_ns: u128,
    /// Dynamic VM instructions of one run (identical across lanes).
    pub insts: u64,
    /// Wall-clock nanoseconds per executed VM instruction.
    pub ns_per_op: f64,
    /// Dynamic bounds checks of one run (identical across lanes).
    pub checks: u64,
    /// Static checks removed by redundant-check elimination.
    pub checks_eliminated: u64,
    /// Static check+access pairs fused into superinstructions.
    pub fused_checks: u64,
}

/// The step-loop-bound subset of the evaluation workloads: long
/// dispatch-dominated runs where lane choice, not setup, is the cost.
pub const WORKLOADS: &[&str] = &["compress", "tsp", "treeadd", "health"];

/// The tree-walk reference for a program compiled by `Engine::new()`:
/// a machine over the same instrumented module and runtime an
/// `Instance` builds, for [`tree_walk_run`] to drive.
pub fn tree_walk_machine(program: &Program) -> Machine<'_, SoftBoundRuntime<ShadowPages>> {
    let rt = SoftBoundRuntime::new_paged(&SoftBoundConfig::default());
    Machine::new(program.module(), MachineConfig::default(), rt)
}

/// One run of `main` through [`Machine::run`], reset first — what
/// `Instance::run` does, on the tree-walk lane.
pub fn tree_walk_run(
    machine: &mut Machine<'_, SoftBoundRuntime<ShadowPages>>,
    args: &[i64],
) -> RunResult {
    machine.reset();
    machine.run("main", args)
}

fn timed(run: impl FnOnce() -> RunResult) -> u128 {
    let t = Instant::now();
    std::hint::black_box(run().ret());
    t.elapsed().as_nanos()
}

/// Measures one compiled program on both lanes (interleaved best-of-7,
/// same discipline as [`run`]) and pushes a row pair onto `rows`.
fn measure_pair(name: &'static str, source: &str, args: &[i64], rows: &mut Vec<PerfRow>) {
    let engine = Engine::new();
    let program = engine.compile(source).expect("program compiles");
    let eliminated = program.stats().checks_eliminated as u64;
    let fused = program.exec().fused_checks;

    let mut pre = engine.instantiate(&program);
    let mut tree = tree_walk_machine(&program);
    // Warm up: materialize shadow pages, frame pool, scratch buffers.
    let warm = pre.run("main", args);
    let (insts, checks) = (warm.stats.insts, warm.stats.checks);
    std::hint::black_box(tree_walk_run(&mut tree, args).ret());

    let (mut best_pre, mut best_tree) = (u128::MAX, u128::MAX);
    for _ in 0..7 {
        best_pre = best_pre.min(timed(|| pre.run("main", args)));
        best_tree = best_tree.min(timed(|| tree_walk_run(&mut tree, args)));
    }
    for (lane, run_ns) in [("predecoded", best_pre), ("tree_walk", best_tree)] {
        rows.push(PerfRow {
            workload: name,
            lane,
            run_ns,
            insts,
            ns_per_op: run_ns as f64 / insts.max(1) as f64,
            checks,
            checks_eliminated: eliminated,
            fused_checks: fused,
        });
    }
}

/// Runs every workload through both lanes.
///
/// The two lanes are timed *interleaved*, best-of-N each: scheduler
/// noise arrives in bursts, so timing one lane's attempts back-to-back
/// would let a single burst skew the whole lane. Noise only ever slows
/// a run, so per-lane minimums converge on the true cost.
pub fn run() -> Vec<PerfRow> {
    let mut rows = Vec::new();
    for name in WORKLOADS {
        let w = sb_workloads::benchmark_by_name(name).expect("workload exists");
        measure_pair(w.name, w.source, &[w.default_arg], &mut rows);
    }
    rows
}

/// Safe `(cap, len, seed)` arguments every libc kernel accepts (len
/// fits the `header` kernel's fixed 16-byte buffer, len + 7 fits
/// `sprintf`, len + 3 fits `memmove`'s shift).
pub const LIBC_ARGS: [i64; 3] = [48, 12, 7];

/// Runs every libc corpus kernel through both lanes on the shared safe
/// arguments — the string/buffer-traffic counterpart of [`run`] that
/// feeds the `libc_kernels` section of `BENCH_softbound.json`.
pub fn run_libc() -> Vec<PerfRow> {
    let mut rows = Vec::new();
    for k in sb_workloads::all_libc_kernels() {
        debug_assert!(
            (k.safe)(LIBC_ARGS[0], LIBC_ARGS[1]),
            "{}: perf args unsafe",
            k.name
        );
        measure_pair(k.name, k.source, &LIBC_ARGS, &mut rows);
    }
    rows
}

/// Speedup of the pre-decoded lane over the tree-walk lane per
/// workload, from a [`run`] result.
pub fn speedups(rows: &[PerfRow]) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for pair in rows.chunks(2) {
        if let [pre, tree] = pair {
            debug_assert_eq!(pre.workload, tree.workload);
            debug_assert_eq!(pre.lane, "predecoded");
            out.push((pre.workload, tree.run_ns as f64 / pre.run_ns.max(1) as f64));
        }
    }
    out
}

fn render_rows(s: &mut String, rows: &[PerfRow], indent: &str) {
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "{indent}{{\"workload\": \"{}\", \"lane\": \"{}\", \"run_ns\": {}, \
             \"insts\": {}, \"ns_per_op\": {:.4}, \"checks\": {}, \
             \"checks_eliminated\": {}, \"fused_checks\": {}}}{}\n",
            r.workload,
            r.lane,
            r.run_ns,
            r.insts,
            r.ns_per_op,
            r.checks,
            r.checks_eliminated,
            r.fused_checks,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
}

/// Renders the snapshot as the `BENCH_softbound.json` trajectory file
/// (hand-rolled — the workspace carries no JSON dependency). The fleet
/// scaling curve and the libc-kernel corpus rows, when measured, are
/// appended as `scaling` / `libc_kernels` sections; pass empty slices
/// to omit them.
pub fn render_json(
    rows: &[PerfRow],
    scaling: &[crate::scaling::ScalingPoint],
    libc: &[PerfRow],
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"softbound\",\n  \"unit\": \"ns_per_vm_inst\",\n");
    s.push_str("  \"lanes\": [\"predecoded\", \"tree_walk\"],\n  \"rows\": [\n");
    render_rows(&mut s, rows, "    ");
    s.push_str("  ],\n  \"speedups\": {\n");
    let sp = speedups(rows);
    for (i, (w, x)) in sp.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {:.2}{}\n",
            w,
            x,
            if i + 1 < sp.len() { "," } else { "" }
        ));
    }
    s.push_str("  }");
    if !libc.is_empty() {
        s.push_str(",\n  \"libc_kernels\": [\n");
        render_rows(&mut s, libc, "    ");
        s.push_str("  ]");
    }
    if !scaling.is_empty() {
        s.push_str(",\n");
        s.push_str(&crate::scaling::render_json(scaling));
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shape check on a tiny synthetic row set — the real file is
    /// regenerated in release mode by the `perf_trajectory` bin.
    #[test]
    fn json_shape_is_stable() {
        let rows = vec![
            PerfRow {
                workload: "compress",
                lane: "predecoded",
                run_ns: 100,
                insts: 50,
                ns_per_op: 2.0,
                checks: 10,
                checks_eliminated: 3,
                fused_checks: 7,
            },
            PerfRow {
                workload: "compress",
                lane: "tree_walk",
                run_ns: 200,
                insts: 50,
                ns_per_op: 4.0,
                checks: 10,
                checks_eliminated: 3,
                fused_checks: 7,
            },
        ];
        let scaling = vec![crate::scaling::ScalingPoint {
            workers: 4,
            requests: 24,
            wall_ns: 500,
            reqs_per_sec: 48.0,
            p50_ns: 40,
            p95_ns: 90,
            p99_ns: 99,
            reservation_bytes: 4 << 14,
        }];
        let libc = vec![PerfRow {
            workload: "memcpy",
            lane: "predecoded",
            run_ns: 40,
            insts: 20,
            ns_per_op: 2.0,
            checks: 4,
            checks_eliminated: 1,
            fused_checks: 2,
        }];
        let json = render_json(&rows, &scaling, &libc);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for key in [
            "\"bench\": \"softbound\"",
            "\"lane\": \"predecoded\"",
            "\"lane\": \"tree_walk\"",
            "\"ns_per_op\"",
            "\"checks_eliminated\"",
            "\"fused_checks\"",
            "\"speedups\"",
            "\"libc_kernels\"",
            "\"workload\": \"memcpy\"",
            "\"scaling\"",
            "\"host_cores\"",
            "\"reservation_bytes\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON dependency.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let sp = speedups(&rows);
        assert_eq!(sp, vec![("compress", 2.0)]);
        // Omitting the optional sections must not leave dangling commas.
        let bare = render_json(&rows, &[], &[]);
        assert!(!bare.contains("\"scaling\""));
        assert!(!bare.contains("\"libc_kernels\""));
        assert_eq!(bare.matches('{').count(), bare.matches('}').count());
    }

    /// The shared perf arguments must be safe for every corpus kernel —
    /// a trapping perf lane would time the trap path, not the kernel.
    #[test]
    fn libc_perf_args_are_safe_for_every_kernel() {
        for k in sb_workloads::all_libc_kernels() {
            assert!(
                (k.safe)(LIBC_ARGS[0], LIBC_ARGS[1]),
                "{}: ({}, {}) is not safe",
                k.name,
                LIBC_ARGS[0],
                LIBC_ARGS[1]
            );
        }
    }

    /// Both lanes execute the same dynamic instruction stream, so the
    /// measured `insts`/`checks` must agree pairwise.
    #[test]
    fn lanes_agree_on_dynamic_counts() {
        let w = sb_workloads::benchmark_by_name("treeadd").expect("workload exists");
        let engine = Engine::new();
        let program = engine.compile(w.source).expect("compiles");
        let pre = engine.instantiate(&program).run("main", &[w.default_arg]);
        let tree = tree_walk_run(&mut tree_walk_machine(&program), &[w.default_arg]);
        assert_eq!(pre.stats.insts, tree.stats.insts);
        assert_eq!(pre.stats.checks, tree.stats.checks);
        assert_eq!(pre.stats.cycles, tree.stats.cycles);
    }
}
