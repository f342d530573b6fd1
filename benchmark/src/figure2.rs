//! `figure2_full`: the paper's own experiment. The 15 Figure 1/2
//! kernels, each compiled once with `Engine::new()` (full checking,
//! default facility, Strict policy, pre-decoded lane) and run over and
//! over, in an order the seed rotates.

use crate::calib::{self, Calibrator};
use crate::corpus::{kernel_return, rotated, Source};
use crate::repeat_for;
use crate::report::{add_run_counts, Counts, Metric, Tally};
use crate::stages::{self, StageCounts};
use crate::stats::{self, geomean, median};
use crate::trace::Tracer;
use sb_vm::{ExecModule, Machine, MachineConfig, NoRuntime, RunResult};
use softbound::{CheckMode, Engine, Instance, Program};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed passes at least, so that the tail has ≥ 10 samples beyond it.
const MIN_PASSES: usize = 40;
/// The tail percentile reported for per-kernel run time.
const TAIL_P: f64 = 75.0;

/// One kernel with its pinned answer.
#[derive(Debug, Clone, Copy)]
struct Kernel {
    src: Source,
    arg: i64,
    expected: i64,
    /// The pointer-dense side of Figure 1 (Olden kernels plus `li`).
    pointer: bool,
}

fn kernels(seed: u64) -> Vec<Kernel> {
    let all: Vec<Kernel> = sb_workloads::all_benchmarks()
        .into_iter()
        .map(|w| Kernel {
            src: Source {
                name: w.name,
                text: w.source,
            },
            arg: w.default_arg,
            expected: kernel_return(w.name).expect("every kernel has a pinned return"),
            pointer: w.pointer_dense(),
        })
        .collect();
    rotated(&all, seed)
}

fn check_run(tally: &mut Tally, k: &Kernel, r: &RunResult) {
    tally.check(r.ret() == Some(k.expected), || {
        format!(
            "{}: {:?}, expected return {}",
            k.src.name, r.outcome, k.expected
        )
    });
}

/// Compiles every kernel, or records the first failure.
fn compile_all(engine: &Engine, ks: &[Kernel], tally: &mut Tally) -> Option<Vec<Program>> {
    let mut programs = Vec::with_capacity(ks.len());
    for k in ks {
        match engine.compile(k.src.text) {
            Ok(p) => {
                tally.check(true, String::new);
                programs.push(p);
            }
            Err(e) => {
                tally.fail(format!("{}: {e}", k.src.name));
                return None;
            }
        }
    }
    Some(programs)
}

/// Runs every kernel once on its instance (warm-up and check).
fn warm(instances: &mut [Instance<'_>], ks: &[Kernel], tally: &mut Tally) {
    for (inst, k) in instances.iter_mut().zip(ks) {
        let r = inst.run("main", &[k.arg]);
        check_run(tally, k, &r);
    }
}

/// What [`timed_passes`] measured.
struct Timed {
    /// Milliseconds per run, per kernel.
    samples: Vec<Vec<f64>>,
    passes: usize,
    wall_s: f64,
    /// Peak memory once [`MIN_PASSES`] were done, a fixed amount of work.
    rss_mib: f64,
}

/// Times one run of every kernel per pass, with a calibration chunk
/// between passes, for `seconds` and at least [`MIN_PASSES`] passes.
fn timed_passes(
    instances: &mut [Instance<'_>],
    ks: &[Kernel],
    seconds: f64,
    cal: &mut Calibrator,
    tally: &mut Tally,
) -> Timed {
    let mut samples = vec![Vec::new(); ks.len()];
    let mut rss_mib = None;
    let (passes, wall_s) = repeat_for(seconds, MIN_PASSES, |pass| {
        if pass == MIN_PASSES {
            rss_mib = Some(calib::peak_rss_mib());
        }
        cal.tick();
        for (i, k) in ks.iter().enumerate() {
            let t = Instant::now();
            let r = instances[i].run("main", &[k.arg]);
            samples[i].push(t.elapsed().as_secs_f64() * 1e3);
            check_run(tally, k, &r);
        }
        tally.failed == 0
    });
    Timed {
        samples,
        passes,
        wall_s,
        rss_mib: rss_mib.unwrap_or_else(calib::peak_rss_mib),
    }
}

/// The end-to-end metrics, tracing off. The first set-up is followed by
/// the timed passes and the memory reading; the other set-ups only
/// time themselves.
pub fn measure(seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let engine = Engine::new();
    let ks = kernels(seed);
    let mut cal = Calibrator::default();
    let mut setup_s = Vec::new();
    let mut timed = None;
    for rep in 0..SETUPS {
        cal.tick();
        let t = Instant::now();
        let Some(programs) = compile_all(&engine, &ks, tally) else {
            return Vec::new();
        };
        let mut instances: Vec<Instance> = programs.iter().map(|p| engine.instantiate(p)).collect();
        warm(&mut instances, &ks, tally);
        setup_s.push(t.elapsed().as_secs_f64());
        if rep == 0 && tally.failed == 0 {
            timed = Some(timed_passes(&mut instances, &ks, seconds, &mut cal, tally));
        }
    }
    let Some(Timed {
        samples,
        passes,
        wall_s,
        rss_mib,
    }) = timed
    else {
        return Vec::new();
    };
    let scale = cal.scale();
    let sorted: Vec<Vec<f64>> = samples.iter().map(|s| stats::sorted(s)).collect();
    let at = |p: f64| {
        scale
            * geomean(
                &sorted
                    .iter()
                    .map(|s| stats::percentile(s, p))
                    .collect::<Vec<_>>(),
            )
    };
    let n = ks.len();
    let per =
        format!("geomean over {n} kernels of each kernel's percentile, n={passes} runs per kernel");
    let speed = cal.note();
    vec![
        Metric::new(
            "setup_s",
            scale * median(&setup_s),
            format!("median of {SETUPS} set-ups: compile, instantiate, one warm-up run of {n} kernels; {speed}"),
        ),
        Metric::new("op_p25_ms", at(25.0), format!("run_ms.geomean_p25: {per}; {speed}")),
        Metric::new("op_p50_ms", at(50.0), format!("run_ms.geomean_p50: {per}; {speed}")),
        Metric::new(
            "op_tail_ms",
            at(TAIL_P),
            format!(
                "run_ms.geomean_p{TAIL_P}: {} runs per kernel beyond it",
                stats::beyond(passes, TAIL_P)
            ),
        ),
        Metric::new(
            "ops_per_s",
            (passes * n) as f64 / (scale * wall_s),
            format!("kernel runs per second over {wall_s:.2} s; {speed}"),
        ),
        Metric::new(
            "peak_rss_mib",
            rss_mib,
            format!("VmHWM without the calibration table, after the first set-up and {MIN_PASSES} passes"),
        ),
    ]
}

/// The per-layer run: a traced set-up (stage-replayed compiles), then
/// untraced and traced passes alternating for two thirds of the time,
/// and the overhead ratios against the uninstrumented baseline and
/// store-only checking for the last third.
pub fn trace(seed: u64, seconds: f64, tally: &mut Tally, tr: &mut Tracer) -> (Vec<Metric>, Counts) {
    let engine = Engine::new();
    let ks = kernels(seed);
    let sources: Vec<Source> = ks.iter().map(|k| k.src).collect();
    let mut out = (Vec::new(), Counts::new());
    for rep in 0..SETUPS as u64 {
        let mut programs = Vec::with_capacity(ks.len());
        let mut static_counts = StageCounts::default();
        for k in &ks {
            match stages::traced_compile(&engine, &k.src, tr, rep) {
                Ok((p, c)) => {
                    tally.check(true, String::new);
                    static_counts.add(&c);
                    programs.push(p);
                }
                Err(e) => {
                    tally.fail(e);
                    return out;
                }
            }
        }
        let mut instances: Vec<Instance> = programs
            .iter()
            .zip(&ks)
            .map(|(p, k)| {
                tr.leaf("engine.instantiate", k.src.name, rep, 0, || {
                    engine.instantiate(p)
                })
            })
            .collect();
        warm(&mut instances, &ks, tally);
        if rep + 1 == SETUPS as u64 && tally.failed == 0 {
            out = phases(&ks, &mut instances, seconds, tally, tr);
            out.1.extend(stages::stage_counts(&static_counts));
        }
    }
    out.0.extend(stages::stage_metrics(tr, &sources).0);
    out
}

/// Alternating untraced and traced passes, then the baseline ratios.
fn phases(
    ks: &[Kernel],
    instances: &mut [Instance<'_>],
    seconds: f64,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> (Vec<Metric>, Counts) {
    let mut untraced_us = vec![Vec::new(); ks.len()];
    let mut counts = Counts::new();
    let mut reservation = 0;
    let (passes, _) = repeat_for(seconds * 2.0 / 3.0, 2, |pass| {
        for (i, (inst, k)) in instances.iter_mut().zip(ks).enumerate() {
            let t = Instant::now();
            let r = inst.run("main", &[k.arg]);
            untraced_us[i].push(t.elapsed().as_secs_f64() * 1e6);
            check_run(tally, k, &r);
        }
        let op = pass as u64;
        let root = tr.open("figure2.pass", "", op, 0);
        for (inst, k) in instances.iter_mut().zip(ks) {
            let name = k.src.name;
            tr.leaf("engine.reset", name, op, root, || inst.reset());
            let r = tr.leaf("interp.run", name, op, root, || inst.run("main", &[k.arg]));
            check_run(tally, k, &r);
            if pass == 0 {
                reservation += inst.metadata_reservation_bytes();
                add_run_counts(&mut counts, &r.stats, inst.live_entries());
            }
        }
        tr.close(root);
        tally.failed == 0
    });

    let per_kernel = |name: &str| -> Vec<f64> {
        ks.iter()
            .map(|k| median(&tr.item_us(name, k.src.name)))
            .collect()
    };
    let run_us = per_kernel("interp.run");
    let reset_us = per_kernel("engine.reset");
    let spanned_us: Vec<f64> = run_us.iter().zip(&reset_us).map(|(a, b)| a + b).collect();
    let untraced_us: Vec<f64> = untraced_us.iter().map(|s| median(s)).collect();
    let pass_us = median(&tr.per_op_us("figure2.pass"));
    let insts = counts["interp.insts"] as f64;
    let n = ks.len();
    let note = format!("geomean over {n} kernels of each kernel's median, {passes} traced passes");
    let mut m = vec![
        Metric::new("interp.run_us", geomean(&run_us), note.clone()),
        Metric::new("engine.reset_us", geomean(&reset_us), note),
        Metric::new(
            "metadata.reservation_bytes",
            reservation as f64,
            format!("sum over the {n} instances after one run each"),
        ),
        Metric::new(
            "engine.instantiate_us",
            geomean(&per_kernel("engine.instantiate")),
            format!("geomean over {n} kernels of the median of {SETUPS} set-ups"),
        ),
        Metric::new(
            "interp.ns_per_inst",
            run_us.iter().sum::<f64>() * 1e3 / insts,
            "sum of median kernel runs over the instructions of one pass",
        ),
        Metric::new(
            "trace.overhead_share",
            geomean(&spanned_us) / geomean(&untraced_us) - 1.0,
            "traced (reset + run) over untraced run geomean, passes alternating, minus 1",
        ),
        Metric::new(
            "trace.unaccounted_share",
            1.0 - spanned_us.iter().sum::<f64>() / pass_us,
            "share of a traced pass outside its reset and run spans",
        ),
    ];
    m.extend(ratios(ks, seconds / 3.0, tally));
    (m, counts)
}

/// Protected over uninstrumented run time, per kernel on the same lane,
/// host and process, interleaved round by round: full checking split by
/// kernel class, store-only checking over all kernels.
fn ratios(ks: &[Kernel], seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let full = Engine::new();
    let store = Engine::new().check_mode(CheckMode::StoreOnly);
    let mut base_modules = Vec::with_capacity(ks.len());
    for k in ks {
        match sb_cir::compile(k.src.text) {
            Ok(hir) => {
                let mut m = sb_ir::lower(&hir, k.src.name);
                sb_ir::optimize(&mut m, sb_ir::OptLevel::PreInstrument);
                base_modules.push(m);
            }
            Err(e) => {
                tally.fail(format!("{}: {e}", k.src.name));
                return Vec::new();
            }
        }
    }
    let base_execs: Vec<ExecModule> = base_modules.iter().map(ExecModule::lower).collect();
    let mut bases: Vec<Machine<NoRuntime>> = base_modules
        .iter()
        .zip(&base_execs)
        .map(|(m, e)| {
            let mut machine = Machine::new(m, MachineConfig::default(), NoRuntime);
            machine.attach_exec(e);
            machine
        })
        .collect();
    let (Some(full_programs), Some(store_programs)) = (
        compile_all(&full, ks, tally),
        compile_all(&store, ks, tally),
    ) else {
        return Vec::new();
    };
    let mut fulls: Vec<Instance> = full_programs.iter().map(|p| full.instantiate(p)).collect();
    let mut stores: Vec<Instance> = store_programs
        .iter()
        .map(|p| store.instantiate(p))
        .collect();

    let mut ms = vec![[Vec::new(), Vec::new(), Vec::new()]; ks.len()];
    let (rounds, _) = repeat_for(seconds, 2, |_| {
        for (i, k) in ks.iter().enumerate() {
            bases[i].reset();
            let t = Instant::now();
            let r = bases[i].run_predecoded("main", &[k.arg]);
            ms[i][0].push(t.elapsed().as_secs_f64());
            check_run(tally, k, &r);
            for (slot, inst) in [(1, &mut fulls[i]), (2, &mut stores[i])] {
                inst.reset();
                let t = Instant::now();
                let r = inst.run("main", &[k.arg]);
                ms[i][slot].push(t.elapsed().as_secs_f64());
                check_run(tally, k, &r);
            }
        }
        tally.failed == 0
    });
    let over_base = |slot: usize, class: Option<bool>| {
        let r: Vec<f64> = ks
            .iter()
            .zip(&ms)
            .filter(|(k, _)| class.is_none_or(|c| k.pointer == c))
            .map(|(_, s)| median(&s[slot]) / median(&s[0]))
            .collect();
        (geomean(&r), r.len())
    };
    let (array, na) = over_base(1, Some(false));
    let (pointer, np) = over_base(1, Some(true));
    let (store_all, ns) = over_base(2, None);
    let note = |n: usize| {
        format!("geomean over {n} kernels of median ratios, {rounds} interleaved rounds")
    };
    vec![
        Metric::new("runtime.full_over_base.array", array, note(na)),
        Metric::new("runtime.full_over_base.pointer", pointer, note(np)),
        Metric::new("runtime.store_over_base", store_all, note(ns)),
    ]
}
