//! Metric tables, the correctness tally, and the result line.

use sb_vm::ExecStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics, measured with tracing off. Every workload
/// reports every one of them; what an "operation" is differs per
/// workload (a kernel run, a corpus compile pass, a fleet request) and
/// each metric's note names the workload-specific quantity.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_p25_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end values that are printed but not part of the result line.
/// On a shared host the median, the tail and the throughput (a mean)
/// follow the neighbours' load from run to run by more than any bound
/// a regression check could use; the lower quartile stays put. The
/// fleet's standing reservation exists on one workload only.
pub const REPORTED: [(&str, &str); 4] = [
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("reservation_mib", "MiB"),
];

/// The per-layer metrics of the traced run. A layer a workload never
/// calls reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("sb_cir.parse_us", "us"),
    ("sb_cir.typeck_us", "us"),
    ("sb_cir.source_kb_per_s", "KB/s"),
    ("sb_ir.lower_us", "us"),
    ("sb_ir.opt_pre_us", "us"),
    ("sb_ir.opt_post_us", "us"),
    ("sb_ir.verify_us", "us"),
    ("sb_ir.insts_lowered", "count"),
    ("sb_ir.insts_post_opt", "count"),
    ("sb_ir.insts_removed", "count"),
    ("sb_ir.checks_eliminated", "count"),
    ("transform.instrument_us", "us"),
    ("transform.insts_instrumented", "count"),
    ("exec.lower_us", "us"),
    ("exec.fused_checks", "count"),
    ("engine.instantiate_us", "us"),
    ("engine.reset_us", "us"),
    ("interp.run_us", "us"),
    ("interp.ns_per_inst", "ns"),
    ("interp.insts", "count"),
    ("interp.calls", "count"),
    ("runtime.checks", "count"),
    ("runtime.rt_calls", "count"),
    ("runtime.full_over_base.array", "ratio"),
    ("runtime.full_over_base.pointer", "ratio"),
    ("runtime.store_over_base", "ratio"),
    ("metadata.loads", "count"),
    ("metadata.stores", "count"),
    ("metadata.live_entries_after_run", "count"),
    ("metadata.reservation_bytes", "bytes"),
    ("mem.mallocs", "count"),
    ("mem.frees", "count"),
    ("mem.hash_us", "us"),
    ("fleet.observe_overhead_us", "us"),
    ("fleet.drain_us", "us"),
    ("fleet.busy_share", "share"),
    ("fleet.served_imbalance", "share"),
    ("fleet.traps", "count"),
    ("trace.overhead_share", "share"),
    ("trace.unaccounted_share", "share"),
];

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// What was measured and over how many samples.
    pub note: String,
}

impl Metric {
    /// A metric with its explanatory note.
    pub fn new(name: &'static str, value: f64, note: impl Into<String>) -> Self {
        Metric {
            name,
            value,
            note: note.into(),
        }
    }
}

/// Deterministic per-layer counts of one traced run; they must repeat
/// exactly across runs with one seed.
pub type Counts = BTreeMap<&'static str, u64>;

/// Adds one run's dynamic counters to `counts`.
pub fn add_run_counts(counts: &mut Counts, s: &ExecStats, live_entries: usize) {
    for (key, v) in [
        ("interp.insts", s.insts),
        ("interp.calls", s.calls),
        ("runtime.checks", s.checks),
        ("runtime.rt_calls", s.rt_calls),
        ("metadata.loads", s.meta_loads),
        ("metadata.stores", s.meta_stores),
        ("metadata.live_entries_after_run", live_entries as u64),
        ("mem.mallocs", s.mallocs),
        ("mem.frees", s.frees),
    ] {
        *counts.entry(key).or_default() += v;
    }
}

/// Tallies every checked operation against its reference result.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose result differed from the reference.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation; `why` describes it when it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(why());
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
        self.attempted += 1;
        self.failed += 1;
    }

    /// Share of attempted operations that failed.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Unit of metric `name` from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(REPORTED.iter())
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Orders `metrics` as `table` lists them, filling every name the
/// workload did not report with 0 (a layer it never called). Metrics
/// from [`REPORTED`] are left out.
///
/// # Panics
///
/// On a name missing from `table` and [`REPORTED`] — a benchmark bug.
pub fn complete(table: &[(&'static str, &'static str)], metrics: &[Metric]) -> Vec<Metric> {
    for m in metrics {
        assert!(
            table
                .iter()
                .chain(REPORTED.iter())
                .any(|(n, _)| *n == m.name),
            "metric {} is not in the table",
            m.name
        );
    }
    table
        .iter()
        .map(|&(name, _)| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, "layer not exercised"))
        })
        .collect()
}

/// Formats a value for JSON: every digit as measured; never NaN or ∞.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            number(m.value),
            unit_of(m.name).unwrap_or("")
        );
    }
    s.push_str("}}");
    s
}

/// The human-readable listing: one line per metric with its unit and
/// note.
pub fn listing(metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let _ = writeln!(
            s,
            "  {:<32} {:>16.4} {:<6} {}",
            m.name,
            m.value,
            unit_of(m.name).unwrap_or(""),
            m.note
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_unique_names() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        names.sort_unstable();
        names.dedup_by_key(|(n, _)| *n);
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(REPORTED.iter().all(|r| !END_TO_END.contains(r)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut t = Tally::default();
        t.check(true, String::new);
        let m = complete(&END_TO_END, &[Metric::new("setup_s", 0.5, "")]);
        let line = result_json(&t, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mib\": {\"value\": 0, \"unit\": \"MiB\"}"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        t.check(false, || "bad".into());
        assert!(result_json(&t, &m).starts_with("{\"correct\": false"));
        assert_eq!(t.failed_share(), 0.5);
    }
}
