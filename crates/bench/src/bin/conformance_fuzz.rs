//! Differential conformance fuzzer for the libc kernel corpus.
//!
//! Replays a deterministic case stream through the uninstrumented
//! baseline and 3 metadata facilities × 2 execution lanes, checking
//! output/digest agreement on safe cases and first-out-of-bounds-byte
//! traps on overflowing ones (see `sb_bench::conformance`). With
//! `--policy hardened|monitor` the same stream replays under the
//! continuing violation policies, checking evidence telemetry and
//! clamp containment instead of traps.
//!
//! ```sh
//! cargo run -p sb-bench --bin conformance_fuzz --release -- \
//!     --seed 0x50f7b0d --cases 500 --policy hardened
//! ```
//!
//! Exits non-zero on divergence, printing each failure minimized and
//! with the exact `--seed/--start` pair that replays it.

use softbound::ViolationPolicy;
use std::process::ExitCode;

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let mut seed: u64 = 0x050f_7b0d;
    let mut cases: u64 = 500;
    let mut start: u64 = 0;
    let mut policy = ViolationPolicy::Strict;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .and_then(|v| parse_u64(&v))
                .unwrap_or_else(|| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--seed" => seed = take("--seed"),
            "--cases" => cases = take("--cases"),
            "--start" => start = take("--start"),
            "--policy" => {
                policy = match args.next().as_deref() {
                    Some("strict") => ViolationPolicy::Strict,
                    Some("hardened") => ViolationPolicy::Hardened,
                    Some("monitor") => ViolationPolicy::Monitor,
                    other => {
                        eprintln!("--policy needs strict|hardened|monitor, got {other:?}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: conformance_fuzz \
                     [--seed N] [--cases N] [--start N] [--policy strict|hardened|monitor]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!(
        "conformance_fuzz: seed {seed:#x}, cases {start}..{}, policy {} \
         (3 facilities x 2 lanes + baseline per case)",
        start + cases,
        policy.label()
    );
    let report = sb_bench::conformance::fuzz_range_policy(seed, start, cases, policy);
    for f in &report.failures {
        eprintln!("{f}");
    }
    eprintln!(
        "conformance_fuzz: {} cases ({} safe, {} overflow), {} divergences",
        report.cases,
        report.safe,
        report.overflow,
        report.failures.len()
    );
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
