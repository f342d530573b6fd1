//! §6.5: performance comparison with the MSCC-like scheme (and the
//! paper's published CCured/MSCC numbers for context).
//!
//! The paper reports MSCC spatial-only overheads of 17–185% (average 68%),
//! and contrasts `go`: 144% under MSCC vs 55% under SoftBound.

use crate::overhead;
use sb_baselines::Scheme;
use sb_workloads::all_benchmarks;
use softbound::SoftBoundConfig;

/// One benchmark's §6.5 comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// SoftBound (ShadowSpace-Complete) overhead.
    pub softbound: f64,
    /// MSCC-like overhead.
    pub mscc: f64,
}

/// Runs every benchmark under SoftBound full-shadow and MSCC.
pub fn run() -> Vec<Row> {
    let sb = Scheme::SoftBound(SoftBoundConfig::full_shadow());
    let mscc = Scheme::Mscc;
    all_benchmarks()
        .iter()
        .map(|w| {
            let run = |scheme: &Scheme| {
                scheme
                    .run(w.source, "main", &[w.default_arg])
                    .expect("workload compiles")
            };
            let base = run(&Scheme::Uninstrumented);
            let sb_r = run(&sb);
            let mscc_r = run(&mscc);
            assert_eq!(
                sb_r.ret(),
                base.ret(),
                "{} diverged under softbound",
                w.name
            );
            assert_eq!(mscc_r.ret(), base.ret(), "{} diverged under mscc", w.name);
            Row {
                name: w.name.to_string(),
                softbound: overhead(base.stats.cycles, sb_r.stats.cycles),
                mscc: overhead(base.stats.cycles, mscc_r.stats.cycles),
            }
        })
        .collect()
}

/// Renders the §6.5 comparison.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("§6.5: SoftBound vs MSCC-like overhead (percent over uninstrumented)\n\n");
    out.push_str(&format!(
        "{:<12}{:>11}{:>9}\n",
        "benchmark", "SoftBound", "MSCC"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12}{:>10.0}%{:>8.0}%\n",
            r.name,
            100.0 * r.softbound,
            100.0 * r.mscc
        ));
    }
    let n = rows.len() as f64;
    let avg_sb = rows.iter().map(|r| r.softbound).sum::<f64>() / n;
    let avg_mscc = rows.iter().map(|r| r.mscc).sum::<f64>() / n;
    out.push_str(&format!(
        "{:<12}{:>10.0}%{:>8.0}%\n",
        "average",
        100.0 * avg_sb,
        100.0 * avg_mscc
    ));
    out.push_str(
        "\npaper: MSCC spatial-only 17%..185% (avg 68%); go: MSCC 144% vs SoftBound 55%\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mscc_costs_more_on_average() {
        let rows = run();
        let n = rows.len() as f64;
        let avg_sb = rows.iter().map(|r| r.softbound).sum::<f64>() / n;
        let avg_mscc = rows.iter().map(|r| r.mscc).sum::<f64>() / n;
        assert!(
            avg_mscc > avg_sb,
            "MSCC ({avg_mscc}) must average above SoftBound ({avg_sb}) — §6.5"
        );
    }
}
