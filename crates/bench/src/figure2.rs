//! Figure 2: runtime overhead of SoftBound with full and store-only
//! checking under both metadata organizations, per benchmark plus the
//! average row.

use crate::overhead;
use sb_baselines::Scheme;
use sb_vm::{MachineConfig, NoRuntime};
use sb_workloads::all_benchmarks;
use softbound::{Engine, Program, SoftBoundConfig};

/// One benchmark's overheads (fractions; 0.79 = 79%).
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// HashTable-Complete.
    pub ht_full: f64,
    /// ShadowSpace-Complete.
    pub ss_full: f64,
    /// HashTable-Stores.
    pub ht_store: f64,
    /// ShadowSpace-Stores.
    pub ss_store: f64,
    /// Baseline cost-model cycles.
    pub base_cycles: u64,
    /// Static checks removed by post-instrument redundant-check
    /// elimination under full checking (facility-independent).
    pub checks_eliminated: usize,
    /// True for the pointer-dense (Olden + li) side of Figure 1.
    pub pointer_dense: bool,
}

/// The four configurations, in the figure's legend order.
pub fn configs() -> [SoftBoundConfig; 4] {
    [
        SoftBoundConfig::full_hash(),
        SoftBoundConfig::full_shadow(),
        SoftBoundConfig::store_only_hash(),
        SoftBoundConfig::store_only_shadow(),
    ]
}

/// Paper headline numbers (§6.3) for the report.
pub mod paper {
    /// HashTable-Complete average overhead.
    pub const HT_FULL_AVG: f64 = 1.27;
    /// ShadowSpace-Complete average overhead.
    pub const SS_FULL_AVG: f64 = 0.79;
    /// Store-only average overhead (shadow space).
    pub const SS_STORE_AVG: f64 = 0.32;
    /// ShadowSpace-Complete average with li/bisort/em3d removed.
    pub const SS_FULL_AVG_TRIMMED: f64 = 0.66;
}

/// Runs every benchmark under all four configurations.
///
/// The cache model is enabled (as in the paper's evaluation machine, a
/// Core 2 with a 32 KiB L1D): §6.3 attributes part of the hash table's
/// extra overhead on pointer-heavy benchmarks to metadata memory
/// pressure, which only shows up with a cache in the loop.
pub fn run() -> Vec<Row> {
    run_with_cache(true)
}

/// Runs with the Core 2 L1 model on (`true`) or flat memory (`false`).
pub fn run_with_cache(cache: bool) -> Vec<Row> {
    let machine_cfg = MachineConfig {
        cache,
        ..MachineConfig::default()
    };
    let engine_for = |cfg: &SoftBoundConfig| {
        Engine::new()
            .softbound_config(cfg.clone())
            .machine_config(machine_cfg.clone())
    };
    all_benchmarks()
        .iter()
        .map(|w| {
            let base = Scheme::Uninstrumented
                .compile(w.source)
                .expect("workload compiles")
                .machine(machine_cfg.clone(), NoRuntime)
                .run_predecoded("main", &[w.default_arg]);
            assert!(matches!(base.outcome, sb_vm::Outcome::Finished { .. }));
            let expected = base.ret();
            let run = |cfg: &SoftBoundConfig, program: &Program| {
                let r = engine_for(cfg)
                    .instantiate(program)
                    .run("main", &[w.default_arg]);
                assert_eq!(
                    r.ret(),
                    expected,
                    "{} diverged under {}",
                    w.name,
                    cfg.label()
                );
                overhead(base.stats.cycles, r.stats.cycles)
            };
            let get = |cfg: &SoftBoundConfig| {
                let program = engine_for(cfg).compile(w.source).expect("compiles");
                run(cfg, &program)
            };
            let [ht_f, ss_f, ht_s, ss_s] = configs();
            // The full-shadow `Program` is reused for its run *and* its
            // elimination count (a property of the instrumented IR, not
            // of the runtime facility).
            let ss_full_program = engine_for(&ss_f).compile(w.source).expect("compiles");
            Row {
                name: w.name.to_string(),
                ht_full: get(&ht_f),
                ss_full: run(&ss_f, &ss_full_program),
                ht_store: get(&ht_s),
                ss_store: get(&ss_s),
                base_cycles: base.stats.cycles,
                checks_eliminated: ss_full_program.stats().checks_eliminated,
                pointer_dense: w.pointer_dense(),
            }
        })
        .collect()
}

/// Column averages `(ht_full, ss_full, ht_store, ss_store)`.
pub fn averages(rows: &[Row]) -> (f64, f64, f64, f64) {
    let n = rows.len() as f64;
    (
        rows.iter().map(|r| r.ht_full).sum::<f64>() / n,
        rows.iter().map(|r| r.ss_full).sum::<f64>() / n,
        rows.iter().map(|r| r.ht_store).sum::<f64>() / n,
        rows.iter().map(|r| r.ss_store).sum::<f64>() / n,
    )
}

/// Renders the figure as a text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 2: Runtime overhead of SoftBound (percent over uninstrumented)\n\n");
    out.push_str(&format!(
        "{:<12}{:>12}{:>14}{:>12}{:>14}{:>8}\n",
        "benchmark", "HashTable", "ShadowSpace", "HashTable", "ShadowSpace", "checks"
    ));
    out.push_str(&format!(
        "{:<12}{:>12}{:>14}{:>12}{:>14}{:>8}\n",
        "", "-Complete", "-Complete", "-Stores", "-Stores", "elim'd"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12}{:>11.0}%{:>13.0}%{:>11.0}%{:>13.0}%{:>8}\n",
            r.name,
            100.0 * r.ht_full,
            100.0 * r.ss_full,
            100.0 * r.ht_store,
            100.0 * r.ss_store,
            r.checks_eliminated
        ));
    }
    let (a, b, c, d) = averages(rows);
    let total_elim: usize = rows.iter().map(|r| r.checks_eliminated).sum();
    out.push_str(&format!(
        "{:<12}{:>11.0}%{:>13.0}%{:>11.0}%{:>13.0}%{:>8}\n",
        "average",
        100.0 * a,
        100.0 * b,
        100.0 * c,
        100.0 * d,
        total_elim
    ));
    out.push_str(&format!(
        "\npaper:      {:>11.0}%{:>13.0}%{:>12}{:>13.0}%\n",
        100.0 * paper::HT_FULL_AVG,
        100.0 * paper::SS_FULL_AVG,
        "-",
        100.0 * paper::SS_STORE_AVG
    ));
    out
}

/// Per-class elimination totals `(pointer_dense_total, scalar_total)`.
pub fn eliminated_by_class(rows: &[Row]) -> (usize, usize) {
    rows.iter().fold((0, 0), |(p, s), r| {
        if r.pointer_dense {
            (p + r.checks_eliminated, s)
        } else {
            (p, s + r.checks_eliminated)
        }
    })
}

/// The EXPERIMENTS narrative for the redundant-check-elimination stats:
/// where the post-instrument pass fires and why the distribution follows
/// Figure 1's pointer-intensity ordering. Printed by the `report` binary
/// after the Figure 2 table.
pub fn narrative(rows: &[Row]) -> String {
    let (ptr_total, scalar_total) = eliminated_by_class(rows);
    let mut fired: Vec<String> = rows
        .iter()
        .filter(|r| r.checks_eliminated > 0)
        .map(|r| format!("{} ({})", r.name, r.checks_eliminated))
        .collect();
    if fired.is_empty() {
        fired.push("none".into());
    }
    format!(
        "EXPERIMENTS — redundant-check elimination\n\
         \n\
         The post-instrument available-expressions pass removed {total} static\n\
         check(s) across the suite: {fired}. {ptr_total} of them came from the\n\
         pointer-dense class (Olden kernels plus li) against {scalar_total} from the\n\
         scalar/array class — the expected direction: repeated dereferences of\n\
         the same pointer value, the pattern the pass proves redundant, are a\n\
         pointer-chasing idiom (node->field used twice, list walks re-reading\n\
         head), while array kernels re-index with fresh GEPs that produce\n\
         distinct checked values. The counts are properties of the\n\
         instrumented IR, independent of the metadata facility executing it.\n",
        total = ptr_total + scalar_total,
        fired = fired.join(", "),
        ptr_total = ptr_total,
        scalar_total = scalar_total,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_workloads::all_benchmarks;

    #[test]
    fn eliminated_checks_follow_pointer_density() {
        // Compile-only differential over the whole suite: the
        // pointer-dense class must eliminate strictly more checks than
        // the scalar class (which eliminates essentially none — array
        // kernels re-index with fresh GEP values).
        let engine = Engine::new().softbound_config(SoftBoundConfig::full_shadow());
        let (mut ptr_total, mut scalar_total) = (0usize, 0usize);
        for w in all_benchmarks() {
            let stats = engine.compile(w.source).expect("workload compiles").stats();
            if w.pointer_dense() {
                ptr_total += stats.checks_eliminated;
            } else {
                scalar_total += stats.checks_eliminated;
            }
        }
        assert!(
            ptr_total > scalar_total,
            "pointer-dense workloads must eliminate more checks \
             (pointer-dense {ptr_total} vs scalar {scalar_total})"
        );
        assert!(ptr_total > 0, "elimination must fire somewhere");
    }

    #[test]
    fn elimination_zeros_are_structural_not_overkill() {
        // The kill set no longer clears on calls, pointer stores, or
        // metadata helpers (checks are pure over their operand
        // registers), so a zero on these rows is a property of the
        // instrumented IR, not pass over-conservatism:
        //
        // * compress / tsp: loop bodies re-index with fresh `Gep`
        //   destinations every iteration, so consecutive checks never
        //   share a key (the ptr register is redefined — defs-kill);
        // * treeadd: each recursive call dereferences `t->left` /
        //   `t->right` exactly once, so no key repeats on any path.
        //
        // The workloads that *do* have straight-line re-dereferences
        // keep (and, after the kill-set fix, grow) their counts.
        let engine = Engine::new().softbound_config(SoftBoundConfig::full_shadow());
        let count = |name: &str| {
            let w = sb_workloads::benchmark_by_name(name).expect("workload exists");
            engine
                .compile(w.source)
                .expect("workload compiles")
                .stats()
                .checks_eliminated
        };
        assert_eq!(count("compress"), 0);
        assert_eq!(count("tsp"), 0);
        assert_eq!(count("treeadd"), 0);
        assert!(count("health") >= 1);
        // li and mst each gained an elimination once available facts
        // survived the calls/stores in their walk loops.
        assert!(count("li") >= 3, "li: {}", count("li"));
        assert!(count("mst") >= 2, "mst: {}", count("mst"));
    }

    #[test]
    fn narrative_reports_class_totals() {
        let rows = vec![
            Row {
                name: "li".into(),
                ht_full: 0.0,
                ss_full: 0.0,
                ht_store: 0.0,
                ss_store: 0.0,
                base_cycles: 1,
                checks_eliminated: 2,
                pointer_dense: true,
            },
            Row {
                name: "compress".into(),
                ht_full: 0.0,
                ss_full: 0.0,
                ht_store: 0.0,
                ss_store: 0.0,
                base_cycles: 1,
                checks_eliminated: 0,
                pointer_dense: false,
            },
        ];
        assert_eq!(eliminated_by_class(&rows), (2, 0));
        let n = narrative(&rows);
        assert!(n.contains("li (2)"), "{n}");
        assert!(n.contains("2 of them came from the"), "{n}");
    }

    #[test]
    fn figure2_shape_matches_paper() {
        // Flat memory (no cache model) keeps the test fast; the shape
        // claims hold in both modes.
        let rows = run_with_cache(false);
        assert_eq!(rows.len(), 15);
        for r in &rows {
            // Hash table costs at least as much as the shadow space, and
            // full checking at least as much as store-only (§6.3).
            assert!(
                r.ht_full >= r.ss_full - 1e-9,
                "{}: ht {} < ss {}",
                r.name,
                r.ht_full,
                r.ss_full
            );
            assert!(
                r.ss_full >= r.ss_store - 1e-9,
                "{}: full < store-only",
                r.name
            );
            assert!(r.ht_store >= r.ss_store - 1e-9, "{}", r.name);
            assert!(r.ss_store >= 0.0, "{}: negative overhead", r.name);
        }
        // Pointer-light SPEC kernels (left) are cheaper than pointer-heavy
        // Olden kernels (right) under full checking.
        let left: f64 = rows[..5].iter().map(|r| r.ss_full).sum::<f64>() / 5.0;
        let right: f64 = rows[10..].iter().map(|r| r.ss_full).sum::<f64>() / 5.0;
        assert!(left < right, "left {left} vs right {right}");
        // Store-only is cheap on the array-heavy side (the paper counts
        // "less than 15% for more than half of the benchmarks"; our
        // flat instruction-count model — no superscalar ILP to hide the
        // check instructions — clears 15% on at least three and stays far
        // below full checking overall; see EXPERIMENTS.md).
        let cheap = rows.iter().filter(|r| r.ss_store < 0.15).count();
        assert!(cheap >= 3, "only {cheap} benchmarks under 15% store-only");
        let (ht_f, ss_f, _, ss_s) = averages(&rows);
        assert!(ht_f > ss_f, "hash table must average above shadow space");
        assert!(ss_f > ss_s, "full must average above store-only");
        assert!(
            ss_s < 0.6 * ss_f,
            "store-only ({ss_s}) should be well under full checking ({ss_f})"
        );
        // The post-instrument redundant-check-elimination pass must fire
        // on at least one real workload.
        assert!(
            rows.iter().any(|r| r.checks_eliminated > 0),
            "no workload had a redundant check eliminated: {:?}",
            rows.iter()
                .map(|r| (&r.name, r.checks_eliminated))
                .collect::<Vec<_>>()
        );
    }
}
