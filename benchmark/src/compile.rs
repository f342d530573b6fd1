//! `compile_corpus`: repeated `Engine::compile` passes over all 50
//! corpus sources, nothing executed. Each pass starts at the source the
//! seed picks.

use crate::calib::{self, Calibrator};
use crate::corpus::{all_sources, rotated, Source};
use crate::repeat_for;
use crate::report::{Counts, Metric, Tally};
use crate::stages::{self, StageCounts};
use crate::stats::{self, median};
use crate::trace::Tracer;
use softbound::{Engine, Program, SoftBoundError};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Timed passes at least, so that the p90 has ≥ 10 samples beyond it.
const MIN_PASSES: usize = 100;
/// The tail percentile reported for the pass time.
const TAIL_P: f64 = 90.0;
/// Stage-replayed passes at most in the traced run, which bounds the
/// span file (9 spans per source).
const MAX_TRACED_PASSES: usize = 40;

/// Compiles every source once; the programs are dropped by the caller,
/// outside any timing.
fn pass(engine: &Engine, sources: &[Source]) -> Vec<Result<Program, SoftBoundError>> {
    sources.iter().map(|s| engine.compile(s.text)).collect()
}

fn check_pass(tally: &mut Tally, sources: &[Source], results: &[Result<Program, SoftBoundError>]) {
    for (s, r) in sources.iter().zip(results) {
        tally.check(r.is_ok(), || {
            format!(
                "{}: {}",
                s.name,
                r.as_ref().err().map_or(String::new(), ToString::to_string)
            )
        });
    }
}

/// One timed pass in milliseconds, checked.
fn timed_pass(engine: &Engine, sources: &[Source], tally: &mut Tally) -> f64 {
    let t = Instant::now();
    let results = pass(engine, sources);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    check_pass(tally, sources, &results);
    ms
}

/// The end-to-end metrics, tracing off. The first set-up is followed by
/// the timed passes and the memory reading; the other set-ups only
/// time themselves.
pub fn measure(seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let mut cal = Calibrator::default();
    let mut setup_s = Vec::new();
    let mut samples = Vec::new();
    let (mut passes, mut wall_s, mut rss_mib) = (0, 0.0, None);
    for rep in 0..SETUPS {
        cal.tick();
        let t = Instant::now();
        let engine = Engine::new();
        let sources = rotated(&all_sources(), seed);
        let warm = pass(&engine, &sources);
        setup_s.push(t.elapsed().as_secs_f64());
        check_pass(tally, &sources, &warm);
        if rep == 0 && tally.failed == 0 {
            (passes, wall_s) = repeat_for(seconds, MIN_PASSES, |p| {
                if p == MIN_PASSES {
                    rss_mib = Some(calib::peak_rss_mib());
                }
                cal.tick();
                samples.push(timed_pass(&engine, &sources, tally));
                tally.failed == 0
            });
        }
    }
    let rss_mib = rss_mib.unwrap_or_else(calib::peak_rss_mib);
    let corpus = all_sources();
    let n = corpus.len();
    let kb = corpus.iter().map(|s| s.text.len()).sum::<usize>() as f64 / 1e3;
    let scale = cal.scale();
    let sorted = stats::sorted(&samples);
    let at = |p: f64| scale * stats::percentile(&sorted, p);
    let per = format!("one Engine::compile pass over {n} sources ({kb:.1} KB), n={passes} passes");
    let speed = cal.note();
    vec![
        Metric::new(
            "setup_s",
            scale * median(&setup_s),
            format!("median of {SETUPS} set-ups: build the corpus, one warm-up pass; {speed}"),
        ),
        Metric::new("op_p25_ms", at(25.0), format!("compile_pass_ms.p25: {per}; {speed}")),
        Metric::new("op_p50_ms", at(50.0), format!("compile_pass_ms.p50: {per}; {speed}")),
        Metric::new(
            "op_tail_ms",
            at(TAIL_P),
            format!(
                "compile_pass_ms.p{TAIL_P}: {} passes beyond it",
                stats::beyond(passes, TAIL_P)
            ),
        ),
        Metric::new(
            "ops_per_s",
            (passes * n) as f64 / (scale * wall_s),
            format!("sources compiled per second over {wall_s:.2} s; {speed}"),
        ),
        Metric::new("peak_rss_mib", rss_mib, format!("VmHWM without the calibration table, after the first set-up and {MIN_PASSES} passes")),
    ]
}

/// The per-layer run: untraced `Engine::compile` passes for `seconds`,
/// [`MAX_TRACED_PASSES`] of them, spread over the run, each followed by
/// a stage-replayed pass; every replayed source is cross-checked against
/// `Engine::compile` before any timing.
pub fn trace(seed: u64, seconds: f64, tally: &mut Tally, tr: &mut Tracer) -> (Vec<Metric>, Counts) {
    let engine = Engine::new();
    let sources = rotated(&all_sources(), seed);
    let mut totals = StageCounts::default();
    let mut setup_spans = Tracer::default();
    for s in &sources {
        match stages::traced_compile(&engine, s, &mut setup_spans, 0) {
            Ok((_, c)) => {
                tally.check(true, String::new);
                totals.add(&c);
            }
            Err(e) => tally.fail(e),
        }
    }
    if tally.failed > 0 {
        return (Vec::new(), Counts::new());
    }
    // Untraced passes run for the whole time; every `stride`-th is
    // followed by a stage-replayed pass, so the pairs spread over the run.
    let mut paired = Vec::new();
    let mut stride = 1;
    let (passes, _) = repeat_for(seconds, 4, |p| {
        let ms = timed_pass(&engine, &sources, tally);
        if p == 0 {
            let fit = seconds * 1e3 / ms / (2 * MAX_TRACED_PASSES) as f64;
            stride = (fit as usize).max(1);
        }
        if p % stride == 0 && paired.len() < MAX_TRACED_PASSES {
            let op = paired.len() as u64;
            paired.push(ms);
            let root = tr.open("compile.pass", "", op, 0);
            for s in &sources {
                let span = tr.open("compile", s.name, op, root);
                let r = stages::replay(s, engine.config(), tr, op, span);
                tr.close(span);
                tally.check(r.is_ok(), || r.err().unwrap_or_default());
            }
            tr.close(root);
        }
        tally.failed == 0
    });
    let (mut m, stage_sum_us) = stages::stage_metrics(tr, &sources);
    let untraced_us = median(&paired) * 1e3;
    m.push(Metric::new(
        "trace.overhead_share",
        median(&tr.per_op_us("compile.pass")) / untraced_us - 1.0,
        format!(
            "traced over untraced pass median, {} pairs out of {passes} untraced passes, minus 1",
            paired.len()
        ),
    ));
    m.push(Metric::new(
        "trace.unaccounted_share",
        1.0 - stage_sum_us / untraced_us,
        "share of the untraced Engine::compile pass the stage medians do not cover",
    ));
    (m, stages::stage_counts(&totals))
}
