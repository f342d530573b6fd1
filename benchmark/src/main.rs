//! The repository benchmark: end-to-end metrics with tracing off, or a
//! traced run that splits the time across layers.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload figure2_full --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every operation is checked against a reference result. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end table with `--trace 0`, the
//! per-layer table with `--trace 1`); the lines before it list every
//! metric with its unit, sample counts and the host fingerprint. A
//! traced run also writes its spans and per-layer metrics to
//! `<out>/<workload>-seed<seed>.trace.jsonl`. Any failed operation makes
//! the exit code non-zero.

mod calib;
mod compile;
mod corpus;
mod figure2;
mod fleet;
mod host;
mod report;
mod stages;
mod stats;
mod trace;

use report::{
    complete, listing, result_json, Counts, Metric, Tally, END_TO_END, PER_LAYER, REPORTED,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workloads, by the names `--workload` accepts.
const WORKLOADS: [&str; 3] = ["figure2_full", "compile_corpus", "fleet_mixed"];

/// Calls `f(0)`, `f(1)`, … until at least `min` calls were made and
/// `seconds` have passed, or `f` returns false. Returns the number of
/// calls and their wall time in seconds.
pub(crate) fn repeat_for(
    seconds: f64,
    min: usize,
    mut f: impl FnMut(usize) -> bool,
) -> (usize, f64) {
    let t = Instant::now();
    let mut i = 0;
    while i < min || t.elapsed().as_secs_f64() < seconds {
        let go_on = f(i);
        i += 1;
        if !go_on {
            break;
        }
    }
    (i, t.elapsed().as_secs_f64())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str =
    "usage: softbound-benchmark --workload <figure2_full|compile_corpus|fleet_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// The untraced end-to-end run of `workload`.
fn measure(workload: &str, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    match workload {
        "figure2_full" => figure2::measure(seed, seconds, tally),
        "compile_corpus" => compile::measure(seed, seconds, tally),
        _ => fleet::measure(seed, seconds, tally),
    }
}

/// The traced per-layer run of `workload`.
fn traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> (Vec<Metric>, Counts) {
    match workload {
        "figure2_full" => figure2::trace(seed, seconds, tally, tr),
        "compile_corpus" => compile::trace(seed, seconds, tally, tr),
        _ => fleet::trace(seed, seconds, tally, tr),
    }
}

fn host_line(args: &Args) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        host::nproc(),
        host::cpu_model().replace(['"', '\\'], ""),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// Writes the host line, the per-layer metrics and every span.
fn write_trace(
    args: &Args,
    tr: &Tracer,
    metrics: &[Metric],
    tally: &Tally,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&args.out)?;
    let path = args
        .out
        .join(format!("{}-seed{}.trace.jsonl", args.workload, args.seed));
    let mut body = format!("{{\"host\": {}}}\n", host_line(args));
    body.push_str(&result_json(tally, metrics));
    body.push('\n');
    body.push_str(&tr.to_jsonl());
    std::fs::write(&path, body)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("host: {}", host_line(&args));
    let mut tally = Tally::default();
    let (metrics, reported) = if args.trace {
        let mut tr = Tracer::default();
        let (mut m, counts) = traced(&args.workload, args.seed, args.seconds, &mut tally, &mut tr);
        m.extend(
            counts
                .iter()
                .map(|(&name, &v)| Metric::new(name, v as f64, "deterministic count")),
        );
        let m = complete(&PER_LAYER, &m);
        match write_trace(&args, &tr, &m, &tally) {
            Ok(path) => println!(
                "trace: {} spans written to {}",
                tr.spans().len(),
                path.display()
            ),
            Err(e) => tally.fail(format!("writing the trace: {e}")),
        }
        (m, Vec::new())
    } else {
        let all = measure(&args.workload, args.seed, args.seconds, &mut tally);
        let reported = all
            .iter()
            .filter(|m| REPORTED.iter().any(|(n, _)| *n == m.name))
            .cloned()
            .collect();
        (complete(&END_TO_END, &all), reported)
    };
    println!(
        "{}: attempted={} failed={} failed_share={}",
        args.workload,
        tally.attempted,
        tally.failed,
        tally.failed_share()
    );
    print!("{}", listing(&metrics));
    if !reported.is_empty() {
        println!("reported, not in the result line:");
        print!("{}", listing(&reported));
    }
    for f in &tally.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", result_json(&tally, &metrics));
    if tally.failed == 0 && tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(workload: &str, seed: u64) -> Counts {
        let mut tally = Tally::default();
        let mut tr = Tracer::default();
        let (_, c) = traced(workload, seed, 0.0, &mut tally, &mut tr);
        assert_eq!(tally.failed, 0, "{workload}: {:?}", tally.failures);
        c
    }

    /// The deterministic counters the traced run emits repeat exactly
    /// across two runs with one seed.
    #[test]
    fn deterministic_counts_repeat_with_one_seed() {
        for w in WORKLOADS {
            let a = counts(w, 7);
            assert_eq!(a, counts(w, 7), "{w}");
            for key in [
                "sb_ir.insts_lowered",
                "sb_ir.insts_post_opt",
                "sb_ir.checks_eliminated",
                "exec.fused_checks",
            ] {
                assert!(a.contains_key(key), "{w} lacks {key}");
            }
            if w != "compile_corpus" {
                for key in [
                    "interp.insts",
                    "runtime.checks",
                    "metadata.loads",
                    "metadata.stores",
                ] {
                    assert!(a[key] > 0 || key.starts_with("metadata"), "{w}: {key} = 0");
                }
            }
            for name in a.keys() {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n == name),
                    "{w}: {name} untabled"
                );
            }
        }
        assert_eq!(counts("fleet_mixed", 7)["fleet.traps"] as usize, 32_768 / 8);
    }

    #[test]
    fn repeat_for_honours_min_and_abort() {
        assert_eq!(repeat_for(0.0, 3, |_| true).0, 3);
        assert_eq!(repeat_for(10.0, 3, |i| i < 1).0, 2);
    }
}
