//! Stage-by-stage replay of `Engine::compile`, one span per stage.
//!
//! The replay calls the same public functions `Engine::compile` chains
//! (parse → typeck → lower → pre-instrument opt → instrument →
//! post-instrument opt → verify → exec lowering). [`cross_check`] then
//! demands that it reproduced the engine's result exactly; stage
//! timings from a replay that diverged would time some other pipeline
//! and are refused.

use crate::corpus::Source;
use crate::report::{Counts, Metric};
use crate::stats;
use crate::trace::Tracer;
use sb_ir::{OptLevel, PassStats};
use sb_vm::ExecModule;
use softbound::{instrument, Engine, Program, SoftBoundConfig, ViolationPolicy};

/// Span names of the compile stages, in pipeline order.
pub const STAGES: [&str; 8] = [
    "sb_cir.parse",
    "sb_cir.typeck",
    "sb_ir.lower",
    "sb_ir.opt_pre",
    "transform.instrument",
    "sb_ir.opt_post",
    "sb_ir.verify",
    "exec.lower",
];

/// Static sizes observed between the stages of one compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// IR instructions right after lowering.
    pub insts_lowered: u64,
    /// IR instructions after instrumentation.
    pub insts_instrumented: u64,
    /// IR instructions after the post-instrument optimizer.
    pub insts_post_opt: u64,
    /// The post-instrument optimizer's statistics.
    pub post: PassStats,
    /// Check+access pairs fused by the exec lowering.
    pub fused_checks: u64,
}

impl StageCounts {
    /// Adds another compilation's counts (corpus totals).
    pub fn add(&mut self, o: &StageCounts) {
        self.insts_lowered += o.insts_lowered;
        self.insts_instrumented += o.insts_instrumented;
        self.insts_post_opt += o.insts_post_opt;
        self.post.insts_removed += o.post.insts_removed;
        self.post.checks_eliminated += o.post.checks_eliminated;
        self.fused_checks += o.fused_checks;
    }
}

/// Compiles `src` under `cfg` one stage at a time, each stage a child of
/// span `parent`.
///
/// # Errors
///
/// The frontend or verifier error, labelled with the source's name.
pub fn replay(
    src: &Source,
    cfg: &SoftBoundConfig,
    tr: &mut Tracer,
    op: u64,
    parent: u32,
) -> Result<StageCounts, String> {
    let item = src.name;
    let fail = |e: &dyn std::fmt::Display| format!("{item}: {e}");
    let [parse, typeck, lower, opt_pre, instr, opt_post, verify, exec_lower] = STAGES;
    let unit = tr
        .leaf(parse, item, op, parent, || sb_cir::parse(src.text))
        .map_err(|e| fail(&e))?;
    // Each stage frees the input it consumed, as `Engine::compile` does
    // before it returns, so that the stages cover all of its work.
    let prog = tr
        .leaf(typeck, item, op, parent, || {
            let prog = sb_cir::check(&unit);
            drop(unit);
            prog
        })
        .map_err(|e| fail(&e))?;
    let mut module = tr.leaf(lower, item, op, parent, || {
        let module = sb_ir::lower(&prog, "program");
        drop(prog);
        module
    });
    let insts_lowered = module.inst_count() as u64;
    tr.leaf(opt_pre, item, op, parent, || {
        sb_ir::optimize(&mut module, OptLevel::PreInstrument)
    });
    let mut module = tr.leaf(instr, item, op, parent, || {
        let instrumented = instrument(&module, cfg);
        drop(module);
        instrumented
    });
    let insts_instrumented = module.inst_count() as u64;
    let level = if cfg.policy == ViolationPolicy::Strict {
        OptLevel::PostInstrument
    } else {
        OptLevel::PostInstrumentAllChecks
    };
    let post = tr.leaf(opt_post, item, op, parent, || {
        sb_ir::optimize_with_stats(&mut module, level)
    });
    tr.leaf(verify, item, op, parent, || sb_ir::verify(&module))
        .map_err(|e| fail(&e))?;
    let exec = tr.leaf(exec_lower, item, op, parent, || ExecModule::lower(&module));
    Ok(StageCounts {
        insts_lowered,
        insts_instrumented,
        insts_post_opt: module.inst_count() as u64,
        post,
        fused_checks: exec.fused_checks,
    })
}

/// Checks that a replay reproduced `Engine::compile`'s program: the same
/// instruction count, optimizer statistics and fused checks.
///
/// # Errors
///
/// A description of the first difference.
pub fn cross_check(name: &str, replayed: &StageCounts, program: &Program) -> Result<(), String> {
    let engine = (
        program.module().inst_count() as u64,
        program.stats(),
        program.exec().fused_checks,
    );
    let replay = (
        replayed.insts_post_opt,
        replayed.post,
        replayed.fused_checks,
    );
    if engine == replay {
        Ok(())
    } else {
        Err(format!(
            "{name}: stage replay diverged from Engine::compile \
             (engine {engine:?}, replay {replay:?}); stage timings refused"
        ))
    }
}

/// Replays `src`'s compilation under a `compile` span, compiles it with
/// `Engine::compile` as well, and returns the engine's program once the
/// two agree.
///
/// # Errors
///
/// A compile error, or the divergence [`cross_check`] found.
pub fn traced_compile(
    engine: &Engine,
    src: &Source,
    tr: &mut Tracer,
    op: u64,
) -> Result<(Program, StageCounts), String> {
    let root = tr.open("compile", src.name, op, 0);
    let replayed = replay(src, engine.config(), tr, op, root);
    tr.close(root);
    let counts = replayed?;
    let program = engine
        .compile(src.text)
        .map_err(|e| format!("{}: {e}", src.name))?;
    cross_check(src.name, &counts, &program)?;
    Ok((program, counts))
}

/// Per-layer compile metrics from the replayed stage spans in `tr`: each
/// stage's time is the median over operations (one operation = one
/// compile of all of `sources`) of its per-operation total. Returns the
/// times and the sum of the stage medians in microseconds.
pub fn stage_metrics(tr: &Tracer, sources: &[Source]) -> (Vec<Metric>, f64) {
    let ops = tr.per_op_us(STAGES[0]).len();
    let note = format!("median of {ops} compiles of {} sources", sources.len());
    let mut out = Vec::new();
    let mut sum_us = 0.0;
    for (stage, metric) in STAGES.iter().zip(STAGE_METRICS) {
        let us = stats::median(&tr.per_op_us(stage));
        sum_us += us;
        out.push(Metric::new(metric, us, note.clone()));
    }
    let front_us: f64 = out[..2].iter().map(|m| m.value).sum();
    let kb = sources.iter().map(|s| s.text.len()).sum::<usize>() as f64 / 1e3;
    out.push(Metric::new(
        "sb_cir.source_kb_per_s",
        kb / (front_us / 1e6),
        format!("{kb:.1} KB over parse + typeck"),
    ));
    (out, sum_us)
}

/// The deterministic static counts of a set of compilations.
pub fn stage_counts(c: &StageCounts) -> Counts {
    Counts::from([
        ("sb_ir.insts_lowered", c.insts_lowered),
        ("sb_ir.insts_post_opt", c.insts_post_opt),
        ("sb_ir.insts_removed", c.post.insts_removed as u64),
        ("sb_ir.checks_eliminated", c.post.checks_eliminated as u64),
        ("transform.insts_instrumented", c.insts_instrumented),
        ("exec.fused_checks", c.fused_checks),
    ])
}

/// Metric names of [`STAGES`], in the same order.
const STAGE_METRICS: [&str; 8] = [
    "sb_cir.parse_us",
    "sb_cir.typeck_us",
    "sb_ir.lower_us",
    "sb_ir.opt_pre_us",
    "transform.instrument_us",
    "sb_ir.opt_post_us",
    "sb_ir.verify_us",
    "exec.lower_us",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_engine_compile_on_every_source() {
        let engine = softbound::Engine::new();
        let mut tr = Tracer::default();
        for src in crate::corpus::all_sources() {
            let counts = replay(&src, engine.config(), &mut tr, 0, 0).expect("compiles");
            let program = engine.compile(src.text).expect("compiles");
            cross_check(src.name, &counts, &program).expect("replay matches");
        }
        assert_eq!(tr.spans().len(), 50 * STAGES.len());
    }
}
