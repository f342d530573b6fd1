//! Figure 1: percentage of memory operations that load or store a pointer,
//! per benchmark, in the paper's sorted order.

use sb_baselines::Scheme;
use sb_workloads::all_benchmarks;

/// Paper values, read off Figure 1 (approximate — the figure has no data
/// table). Used only for side-by-side reporting.
pub const PAPER_APPROX: [(&str, f64); 15] = [
    ("go", 0.01),
    ("lbm", 0.01),
    ("hmmer", 0.02),
    ("compress", 0.03),
    ("ijpeg", 0.05),
    ("bh", 0.17),
    ("tsp", 0.22),
    ("libquantum", 0.27),
    ("perimeter", 0.45),
    ("health", 0.50),
    ("bisort", 0.52),
    ("mst", 0.55),
    ("li", 0.58),
    ("em3d", 0.62),
    ("treeadd", 0.66),
];

/// One Figure 1 bar.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// True for SPEC namesakes (dark bars).
    pub spec: bool,
    /// Measured fraction of memory ops that move pointers.
    pub measured: f64,
    /// Paper's approximate value.
    pub paper: f64,
    /// Dynamic memory operations observed.
    pub mem_ops: u64,
}

/// Runs every benchmark uninstrumented and collects the pointer-op mix.
pub fn run() -> Vec<Row> {
    all_benchmarks()
        .iter()
        .map(|w| {
            let r = Scheme::Uninstrumented
                .run(w.source, "main", &[w.default_arg])
                .expect("workload compiles");
            assert!(
                matches!(r.outcome, sb_vm::Outcome::Finished { .. }),
                "{}: {:?}",
                w.name,
                r.outcome
            );
            let paper = PAPER_APPROX
                .iter()
                .find(|(n, _)| *n == w.name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            Row {
                name: w.name.to_string(),
                spec: w.spec,
                measured: r.stats.ptr_mem_fraction(),
                paper,
                mem_ops: r.stats.mem_ops(),
            }
        })
        .collect()
}

/// Renders the figure as a text table with bars.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 1: Frequency of Pointer Memory Operations\n");
    out.push_str("(percentage of memory ops that load/store a pointer; [S] = SPEC)\n\n");
    for r in rows {
        let bar = "#".repeat((r.measured * 60.0).round() as usize);
        out.push_str(&format!(
            "{:<11}{} {:>5.1}%  (paper ≈{:>4.0}%)  {}\n",
            r.name,
            if r.spec { "[S]" } else { "   " },
            100.0 * r.measured,
            100.0 * r.paper,
            bar
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape_matches_paper() {
        let rows = run();
        assert_eq!(rows.len(), 15);
        // SPEC array codes on the left are near zero; Olden pointer codes
        // on the right are pointer-dominated.
        assert!(rows[0].measured < 0.05, "go: {}", rows[0].measured);
        assert!(rows[14].measured > 0.5, "treeadd: {}", rows[14].measured);
        // Monotone non-decreasing (within small noise) in paper order.
        for pair in rows.windows(2) {
            assert!(
                pair[1].measured + 0.03 >= pair[0].measured,
                "{} ({:.2}) then {} ({:.2})",
                pair[0].name,
                pair[0].measured,
                pair[1].name,
                pair[1].measured
            );
        }
        let text = render(&rows);
        assert!(text.contains("treeadd"));
    }
}
