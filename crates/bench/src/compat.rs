//! §6.4: source-code compatibility case studies. The two daemons are
//! transformed unmodified and executed under SoftBound (both modes);
//! the experiment records result equality with the unprotected run and
//! the absence of false positives.

use sb_baselines::Scheme;
use sb_workloads::daemons;
use softbound::{Engine, SoftBoundConfig};

/// One daemon's compatibility result.
#[derive(Debug, Clone)]
pub struct Row {
    /// Daemon name.
    pub name: String,
    /// Lines of CIR-C source.
    pub source_lines: usize,
    /// Unprotected checksum.
    pub plain_ret: i64,
    /// Checksum under full checking (must match).
    pub full_ret: Option<i64>,
    /// Checksum under store-only checking (must match).
    pub store_ret: Option<i64>,
    /// Dynamic checks executed under full checking (work actually done).
    pub full_checks: u64,
}

impl Row {
    /// True when both protected runs matched the unprotected run.
    pub fn compatible(&self) -> bool {
        self.full_ret == Some(self.plain_ret) && self.store_ret == Some(self.plain_ret)
    }
}

/// Runs both daemons under {plain, full, store-only}.
pub fn run() -> Vec<Row> {
    daemons::all()
        .iter()
        .map(|d| {
            let plain_ret = Scheme::Uninstrumented
                .run(d.source, "main", &[0])
                .expect("daemon compiles unmodified")
                .ret()
                .expect("daemon runs");

            let run_cfg = |cfg: &SoftBoundConfig| {
                let engine = Engine::new().softbound_config(cfg.clone());
                let program = engine.compile(d.source).expect("compiles");
                engine.instantiate(&program).run("main", &[0])
            };
            let full = run_cfg(&SoftBoundConfig::full_shadow());
            let store = run_cfg(&SoftBoundConfig::store_only_shadow());
            Row {
                name: d.name.to_string(),
                source_lines: d.source.lines().count(),
                plain_ret,
                full_ret: full.ret(),
                store_ret: store.ret(),
                full_checks: full.stats.checks,
            }
        })
        .collect()
}

/// Renders the §6.4 report.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("§6.4: network daemons transformed without source modification\n\n");
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:>4} lines  checksum {}  full: {:?}  store-only: {:?}  checks: {}  -> {}\n",
            r.name,
            r.source_lines,
            r.plain_ret,
            r.full_ret,
            r.store_ret,
            r.full_checks,
            if r.compatible() {
                "compatible, no false positives"
            } else {
                "INCOMPATIBLE"
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemons_run_protected_without_false_positives() {
        for r in run() {
            assert!(
                r.compatible(),
                "{}: full={:?} store={:?} plain={}",
                r.name,
                r.full_ret,
                r.store_ret,
                r.plain_ret
            );
            assert!(
                r.full_checks > 1000,
                "{}: suspiciously few checks ({})",
                r.name,
                r.full_checks
            );
        }
    }
}
