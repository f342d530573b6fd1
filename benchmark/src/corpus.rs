//! The inputs every workload draws from, and the reference results the
//! correctness oracle compares against.

use sb_vm::Outcome;

/// One corpus source.
#[derive(Debug, Clone, Copy)]
pub struct Source {
    /// Unique name (span item and error label).
    pub name: &'static str,
    /// CIR-C text.
    pub text: &'static str,
}

/// Return value of each Figure 1/2 kernel's `main(default_arg)`. Pinned
/// here, not taken from the system under test: a run that returns
/// anything else is a failed operation.
pub const KERNEL_RETURNS: [(&str, i64); 15] = [
    ("go", 7385),
    ("lbm", 37248),
    ("hmmer", 46660),
    ("compress", 5875),
    ("ijpeg", -6920),
    ("bh", 95654),
    ("tsp", 82819),
    ("libquantum", 91890),
    ("perimeter", 55496),
    ("health", 10197),
    ("bisort", 64129),
    ("mst", 3043),
    ("li", 93034),
    ("em3d", 30119),
    ("treeadd", 2047),
];

/// The pinned return value of kernel `name`.
pub fn kernel_return(name: &str) -> Option<i64> {
    KERNEL_RETURNS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, r)| r)
}

/// Gives a generated label the `'static` lifetime span items need. The
/// corpus is built a handful of times per process, so the leak is
/// bounded.
fn label(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// All 50 sources the compile workload cycles through: the 15 kernels,
/// the 11 libc kernels, the 2 daemons, the 18 attacks and the 4
/// BugBench programs.
pub fn all_sources() -> Vec<Source> {
    let mut v: Vec<Source> = sb_workloads::all_benchmarks()
        .into_iter()
        .map(|w| Source {
            name: w.name,
            text: w.source,
        })
        .collect();
    v.extend(
        sb_workloads::all_libc_kernels()
            .into_iter()
            .map(|k| Source {
                name: label(format!("libc.{}", k.name)),
                text: k.source,
            }),
    );
    v.extend(sb_workloads::daemons::all().into_iter().map(|d| Source {
        name: label(format!("daemon.{}", d.name)),
        text: d.source,
    }));
    v.extend(sb_workloads::attacks::all().into_iter().map(|a| Source {
        name: label(format!("attack.{:02}", a.id)),
        text: a.source,
    }));
    v.extend(sb_workloads::bugbench::all().into_iter().map(|b| Source {
        name: label(format!("bugbench.{}", b.name)),
        text: b.source,
    }));
    v
}

/// `items` rotated left by `seed` — the seed picks where every pass
/// starts, never which work a pass does.
pub fn rotated<T: Copy>(items: &[T], seed: u64) -> Vec<T> {
    let mut v = items.to_vec();
    if !v.is_empty() {
        let k = (seed % v.len() as u64) as usize;
        v.rotate_left(k);
    }
    v
}

/// The closed-form answer of `MIXED_HANDLER(n)`: header lengths that fit
/// the 16-byte buffer return the checksum `Σ_{i<n} ('a' + i % 26) + n`;
/// longer ones must end in a spatial-violation trap (`None`).
pub fn mixed_expected(n: i64) -> Option<i64> {
    (0..=16)
        .contains(&n)
        .then(|| (0..n).map(|i| 97 + i % 26).sum::<i64>() + n)
}

/// True when `outcome` is the correct answer to request `n`: a trapping
/// request counts as correct only when it traps.
pub fn mixed_correct(n: i64, outcome: &Outcome) -> bool {
    match mixed_expected(n) {
        Some(ret) => *outcome == Outcome::Finished { ret },
        None => outcome.is_spatial_violation(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_fifty_distinct_sources() {
        let all = all_sources();
        assert_eq!(all.len(), 50);
        let mut names: Vec<_> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 50, "names must be unique");
    }

    #[test]
    fn every_kernel_has_a_pinned_return() {
        for w in sb_workloads::all_benchmarks() {
            assert!(kernel_return(w.name).is_some(), "{}", w.name);
        }
    }

    #[test]
    fn mixed_oracle_closed_form() {
        assert_eq!(mixed_expected(0), Some(0));
        assert_eq!(mixed_expected(1), Some(98));
        assert_eq!(mixed_expected(16), Some(16 * 97 + 120 + 16));
        assert_eq!(mixed_expected(17), None);
        assert_eq!(rotated(&[1, 2, 3], 4), vec![2, 3, 1]);
    }
}
