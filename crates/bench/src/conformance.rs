//! Differential conformance fuzzing of the libc kernel corpus.
//!
//! A deterministic, seed-driven generator produces `(kernel, cap, len,
//! seed)` cases over [`sb_workloads::libc`]; each case runs through the
//! uninstrumented baseline and the instrumented pipeline across **three
//! metadata facilities × both execution lanes** (tree-walk and
//! pre-decoded): the shadow space, the HashMap oracle and the hash
//! table. The oracle is exact, not statistical:
//!
//! - **safe** cases must finish in every lane with the baseline's
//!   return value, byte-identical output, and the baseline's final
//!   globals+heap memory digest (SoftBound metadata is disjoint from
//!   program data, so instrumentation must not perturb a single data
//!   byte) — and with zero recorded violations;
//! - **overflow** cases must trap in every lane with a
//!   `SpatialViolation` whose faulting address is the **first
//!   out-of-bounds byte** the kernel touches (computed from the guarded
//!   base the kernel prints on its `G` line), whose read/write flag and
//!   trap scheme match the kernel's oracle, and whose trap PC (the
//!   dynamic instruction index) is identical across all six lanes —
//!   never later, never silently.
//!
//! On top of the Strict matrix sits a **policy matrix** lane
//! ([`fuzz_range_policy`]): the same cases replayed under
//! [`ViolationPolicy::Hardened`] and [`ViolationPolicy::Monitor`] on a
//! check-preserving build. Safe cases must stay bit-identical to the
//! baseline with zero evidence; overflow cases must *complete* without
//! a spatial trap while recording evidence whose fault address and
//! direction match the kernel's closed form, with Hardened clamps
//! provably never touching a byte outside the guarded object and
//! Monitor runs reproducing the uninstrumented baseline byte-for-byte
//! on heap kernels.
//!
//! On divergence the driver greedily minimizes the case and prints a
//! reproducible seed, so a failure seen in CI replays locally with
//! `cargo run -p sb-bench --bin conformance_fuzz --release -- --seed
//! <seed> --start <index> --cases 1`.

use sb_baselines::Scheme;
use sb_vm::{MachineConfig, NoRuntime, Outcome, RunResult, Trap, FN_BASE, HEAP_BASE};
use sb_workloads::LibcKernel;
use softbound::{
    Engine, EvidenceRecord, MetadataFacility, Program, SoftBoundConfig, SoftBoundRuntime,
    ViolationPolicy,
};

/// One generated conformance case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    /// Index into [`sb_workloads::all_libc_kernels`].
    pub kernel_idx: usize,
    /// Guarded-buffer capacity argument (1..=48).
    pub cap: i64,
    /// Operation length argument (0..=64).
    pub len: i64,
    /// Content seed argument (0..=999) — never affects safety.
    pub seed: i64,
    /// The kernel oracle's verdict for `(cap, len)`.
    pub expect_safe: bool,
}

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cap={} len={} seed={} ({})",
            self.cap,
            self.len,
            self.seed,
            if self.expect_safe { "safe" } else { "overflow" }
        )
    }
}

/// One confirmed divergence, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Generator seed the run started from.
    pub seed0: u64,
    /// Case index within that seed's stream.
    pub index: u64,
    /// Kernel name.
    pub kernel: &'static str,
    /// The generated case.
    pub case: Case,
    /// The same case greedily shrunk while still diverging.
    pub minimized: Case,
    /// What diverged.
    pub message: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "conformance divergence in `{}` at case #{} of seed {:#x}: {}",
            self.kernel, self.index, self.seed0, self.case
        )?;
        writeln!(f, "  {}", self.message)?;
        writeln!(f, "  minimized: {}", self.minimized)?;
        write!(
            f,
            "  reproduce: cargo run -p sb-bench --bin conformance_fuzz --release -- \
             --seed {:#x} --start {} --cases 1",
            self.seed0, self.index
        )
    }
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// How many the oracle classified safe.
    pub safe: u64,
    /// How many the oracle classified overflowing.
    pub overflow: u64,
    /// Divergences found (fuzzing stops after a handful).
    pub failures: Vec<Failure>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates case `index` of the stream rooted at `seed0` — a pure
/// function of `(seed0, index)`, so any case replays in isolation.
/// Lengths are steered toward a roughly even safe/overflow split with a
/// handful of rejection draws; the final verdict always comes from the
/// kernel's own `safe` predicate, so generator and oracle cannot drift.
pub fn gen_case(seed0: u64, index: u64, kernels: &[LibcKernel]) -> Case {
    let mut s = seed0 ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x006c_6962_635f_7631_u64;
    splitmix(&mut s); // decorrelate nearby indices
    let kernel_idx = (splitmix(&mut s) % kernels.len() as u64) as usize;
    let cap = 1 + (splitmix(&mut s) % 48) as i64;
    let want_safe = splitmix(&mut s) & 1 == 0;
    let k = &kernels[kernel_idx];
    let mut len = (splitmix(&mut s) % 65) as i64;
    for _ in 0..16 {
        if (k.safe)(cap, len) == want_safe {
            break;
        }
        len = (splitmix(&mut s) % 65) as i64;
    }
    let seed = (splitmix(&mut s) % 1000) as i64;
    Case {
        kernel_idx,
        cap,
        len,
        seed,
        expect_safe: (k.safe)(cap, len),
    }
}

/// What one execution lane exposes for comparison.
#[derive(Debug, Clone, PartialEq)]
struct LaneObs {
    lane: &'static str,
    outcome: Outcome,
    output: String,
    insts: u64,
    checks: u64,
    cycles: u64,
    mem_hash: u64,
    /// Digest of the globals+heap region only — the program-visible
    /// data an uninstrumented twin must reproduce byte-for-byte (stack
    /// pages carry dead frame residue that differs across
    /// instrumentation, and metadata tables are synthetic addresses
    /// that never land in simulated memory).
    data_hash: u64,
    violation_count: u64,
    /// Evidence the runtime recorded (always empty under Strict, whose
    /// ring has capacity 0).
    evidence: Vec<EvidenceRecord>,
    /// Byte-by-byte snapshot of the requested guard windows after the
    /// run (`None` for unmapped bytes) — `content_hash_range` is
    /// page-granular, so the clamp-containment oracle reads the bytes
    /// around the guarded object directly.
    window: Vec<Option<u8>>,
}

fn observe<F: MetadataFacility>(
    lane: &'static str,
    program: &Program,
    rt: SoftBoundRuntime<F>,
    args: &[i64],
    predecoded: bool,
) -> LaneObs {
    observe_windows(lane, program, rt, args, predecoded, &[])
}

fn observe_windows<F: MetadataFacility>(
    lane: &'static str,
    program: &Program,
    rt: SoftBoundRuntime<F>,
    args: &[i64],
    predecoded: bool,
    windows: &[(u64, u64)],
) -> LaneObs {
    let mut machine = program.machine(MachineConfig::default(), rt);
    let r = if predecoded {
        machine.run_predecoded("main", args)
    } else {
        machine.run("main", args)
    };
    let mut window = Vec::new();
    for &(lo, hi) in windows {
        for a in lo..hi {
            window.push(machine.mem.read_uint(a, 1).ok().map(|v| v as u8));
        }
    }
    LaneObs {
        lane,
        outcome: r.outcome,
        output: r.output,
        insts: r.stats.insts,
        checks: r.stats.checks,
        cycles: r.stats.cycles,
        mem_hash: machine.mem.content_hash(),
        data_hash: machine.mem.content_hash_range(0, FN_BASE),
        violation_count: machine.hooks().violation_count,
        evidence: machine.hooks_mut().drain_evidence(),
        window,
    }
}

/// Parses the guarded base from the kernel's `G <base> <eff_cap>` line
/// (present even in the partial output of a trapped run).
fn parse_guard(output: &str) -> Option<(u64, i64)> {
    let line = output.lines().next()?;
    let mut it = line.split_whitespace();
    if it.next()? != "G" {
        return None;
    }
    let base = it.next()?.parse::<u64>().ok()?;
    let cap = it.next()?.parse::<i64>().ok()?;
    Some((base, cap))
}

/// One kernel compiled once and replayed for many cases: the `Program`
/// (module + exec IR) is facility-independent, and the baseline program
/// is the same source compiled [uninstrumented](Scheme::Uninstrumented).
pub struct KernelHarness {
    kernel: LibcKernel,
    cfg: SoftBoundConfig,
    program: Program,
    baseline: Program,
    /// Check-preserving build shared by the non-Strict policies: the
    /// policy itself lives runtime-side, but redundant-check
    /// elimination is unsound once a failed check may continue, so
    /// Hardened/Monitor run a `PostInstrumentAllChecks` program.
    preserved: Program,
    hardened_cfg: SoftBoundConfig,
    monitor_cfg: SoftBoundConfig,
}

impl KernelHarness {
    /// Compiles `kernel` for both the instrumented and baseline paths.
    pub fn new(kernel: LibcKernel) -> Self {
        let cfg = SoftBoundConfig::full_shadow();
        let program = Engine::new()
            .softbound_config(cfg.clone())
            .compile(kernel.source)
            .unwrap_or_else(|e| panic!("{}: kernel does not compile: {e}", kernel.name));
        let baseline = Scheme::Uninstrumented
            .compile(kernel.source)
            .expect("compiles");
        let mut hardened_cfg = cfg.clone();
        hardened_cfg.policy = ViolationPolicy::Hardened;
        let mut monitor_cfg = cfg.clone();
        monitor_cfg.policy = ViolationPolicy::Monitor;
        let preserved = Engine::new()
            .softbound_config(hardened_cfg.clone())
            .compile(kernel.source)
            .unwrap_or_else(|e| panic!("{}: kernel does not compile: {e}", kernel.name));
        Self {
            kernel,
            cfg,
            program,
            baseline,
            preserved,
            hardened_cfg,
            monitor_cfg,
        }
    }

    /// The kernel under test.
    pub fn kernel(&self) -> &LibcKernel {
        &self.kernel
    }

    fn run_baseline(&self, args: &[i64]) -> (RunResult, u64) {
        let mut machine = self.baseline.machine(MachineConfig::default(), NoRuntime);
        let r = machine.run_predecoded("main", args);
        let hash = machine.mem.content_hash_range(0, FN_BASE);
        (r, hash)
    }

    fn run_lanes(&self, args: &[i64]) -> Vec<LaneObs> {
        self.run_lanes_with(&self.program, &self.cfg, args)
    }

    fn run_lanes_with(&self, p: &Program, cfg: &SoftBoundConfig, args: &[i64]) -> Vec<LaneObs> {
        vec![
            observe(
                "paged/tree",
                p,
                SoftBoundRuntime::new_paged(cfg),
                args,
                false,
            ),
            observe("paged/pre", p, SoftBoundRuntime::new_paged(cfg), args, true),
            observe(
                "hashmap/tree",
                p,
                SoftBoundRuntime::new_shadow_hashmap(cfg),
                args,
                false,
            ),
            observe(
                "hashmap/pre",
                p,
                SoftBoundRuntime::new_shadow_hashmap(cfg),
                args,
                true,
            ),
            observe("hash/tree", p, SoftBoundRuntime::new_hash(cfg), args, false),
            observe("hash/pre", p, SoftBoundRuntime::new_hash(cfg), args, true),
        ]
    }

    /// Runs one case through baseline + all six lanes and checks every
    /// conformance obligation. `Err` carries a human-readable account of
    /// the first divergence.
    pub fn run_case(&self, case: &Case) -> Result<(), String> {
        let k = &self.kernel;
        let args = [case.cap, case.len, case.seed];
        let lanes = self.run_lanes(&args);
        let first = &lanes[0];

        // Lane-invariance obligations hold for safe and overflow cases
        // alike: same outcome, same (possibly partial) output, same trap
        // PC / dynamic instruction count, same executed checks.
        for lane in &lanes[1..] {
            if lane.outcome != first.outcome {
                return Err(format!(
                    "outcome diverged: {} got {:?}, {} got {:?}",
                    first.lane, first.outcome, lane.lane, lane.outcome
                ));
            }
            if lane.output != first.output {
                return Err(format!(
                    "output diverged between {} and {}: {:?} vs {:?}",
                    first.lane, lane.lane, first.output, lane.output
                ));
            }
            if lane.insts != first.insts {
                return Err(format!(
                    "trap PC / instruction count diverged: {}={} vs {}={}",
                    first.lane, first.insts, lane.lane, lane.insts
                ));
            }
            if lane.checks != first.checks {
                return Err(format!(
                    "check count diverged: {}={} vs {}={}",
                    first.lane, first.checks, lane.lane, lane.checks
                ));
            }
        }
        // Pre-decoded twins must match their tree-walk twin bit-for-bit,
        // including cost-model cycles and the final memory image.
        for pair in lanes.chunks(2) {
            if pair[0].cycles != pair[1].cycles || pair[0].mem_hash != pair[1].mem_hash {
                return Err(format!(
                    "{} vs {} diverged on cycles/memory: ({}, {:#x}) vs ({}, {:#x})",
                    pair[0].lane,
                    pair[1].lane,
                    pair[0].cycles,
                    pair[0].mem_hash,
                    pair[1].cycles,
                    pair[1].mem_hash
                ));
            }
        }

        let (base, eff_cap) = parse_guard(&first.output).ok_or_else(|| {
            format!(
                "no `G <base> <cap>` guard line in output {:?} ({:?})",
                first.output, first.outcome
            )
        })?;

        if case.expect_safe {
            let (br, base_hash) = self.run_baseline(&args);
            let bret = br.ret().ok_or_else(|| {
                format!("baseline did not finish on a safe case: {:?}", br.outcome)
            })?;
            for lane in &lanes {
                match lane.outcome {
                    Outcome::Finished { ret } if ret == bret => {}
                    Outcome::Finished { ret } => {
                        return Err(format!(
                            "{}: return value {} != baseline {}",
                            lane.lane, ret, bret
                        ));
                    }
                    ref o => {
                        return Err(format!(
                            "{}: safe case did not finish (false positive?): {o:?}",
                            lane.lane
                        ));
                    }
                }
                if lane.output != br.output {
                    return Err(format!(
                        "{}: output {:?} != baseline {:?}",
                        lane.lane, lane.output, br.output
                    ));
                }
                if lane.violation_count != 0 {
                    return Err(format!(
                        "{}: {} violations recorded on a safe case",
                        lane.lane, lane.violation_count
                    ));
                }
                if lane.checks == 0 {
                    return Err(format!("{}: nothing was checked", lane.lane));
                }
                // Metadata is disjoint from program data (tables are
                // synthetic addresses, shadow state lives host-side), so
                // every lane's globals+heap image must equal the
                // baseline's byte-for-byte.
                if lane.data_hash != base_hash {
                    return Err(format!(
                        "{}: data-region digest {:#x} != baseline {:#x}",
                        lane.lane, lane.data_hash, base_hash
                    ));
                }
            }
        } else {
            let expected_addr = (k.fault_addr)(base, case.cap, case.len);
            for lane in &lanes {
                let (scheme, addr, write) = match lane.outcome {
                    Outcome::Trapped(Trap::SpatialViolation {
                        scheme,
                        addr,
                        write,
                    }) => (scheme, addr, write),
                    ref o => {
                        return Err(format!(
                            "{}: overflow case did not trap spatially \
                             (silent overflow?): {o:?}",
                            lane.lane
                        ));
                    }
                };
                if addr != expected_addr {
                    return Err(format!(
                        "{}: trapped at {addr:#x}, but the first out-of-bounds \
                         byte is {expected_addr:#x} (guard base {base:#x}, \
                         eff_cap {eff_cap})",
                        lane.lane
                    ));
                }
                if write != k.overflow_is_store {
                    return Err(format!(
                        "{}: trap write={write}, kernel overflows with a {}",
                        lane.lane,
                        if k.overflow_is_store { "store" } else { "load" }
                    ));
                }
                if scheme != k.trap_scheme {
                    return Err(format!(
                        "{}: trap scheme {scheme:?}, expected {:?}",
                        lane.lane, k.trap_scheme
                    ));
                }
                // Strict wrapper traps are raised by the VM builtin on
                // the runtime's `Trap` disposition without ticking the
                // violation counter; explicit checks must tick it.
                if k.trap_scheme == "softbound" && lane.violation_count == 0 {
                    return Err(format!(
                        "{}: explicit-check trap left violation_count at 0",
                        lane.lane
                    ));
                }
            }
        }
        Ok(())
    }

    /// Runs one case under a continuing policy (Hardened or Monitor) on
    /// the check-preserving program and checks the policy-matrix
    /// obligations; `Strict` delegates to [`Self::run_case`].
    ///
    /// Safe cases must match the uninstrumented baseline bit-for-bit
    /// with zero evidence. Overflow cases must *not* trap spatially;
    /// every lane must record identical evidence whose first record
    /// names the kernel's closed-form fault address and direction.
    /// Hardened runs must finish, and on heap kernels the 64-byte
    /// windows on either side of the guarded object must match a Strict
    /// reference byte-for-byte (clamps contain the access). Monitor
    /// runs on heap kernels must reproduce the uninstrumented
    /// baseline's outcome and output exactly.
    pub fn run_policy_case(&self, case: &Case, policy: ViolationPolicy) -> Result<(), String> {
        let cfg = match policy {
            ViolationPolicy::Strict => return self.run_case(case),
            ViolationPolicy::Hardened => &self.hardened_cfg,
            ViolationPolicy::Monitor => &self.monitor_cfg,
        };
        let k = &self.kernel;
        let args = [case.cap, case.len, case.seed];
        let lanes = self.run_lanes_with(&self.preserved, cfg, &args);
        let first = &lanes[0];

        // Lane invariance extends to the evidence stream: which
        // accesses violated, in what order, at which dynamic PC must
        // not depend on the facility or the execution lane.
        for lane in &lanes[1..] {
            if lane.outcome != first.outcome {
                return Err(format!(
                    "{policy:?}: outcome diverged: {} got {:?}, {} got {:?}",
                    first.lane, first.outcome, lane.lane, lane.outcome
                ));
            }
            if lane.output != first.output {
                return Err(format!(
                    "{policy:?}: output diverged between {} and {}: {:?} vs {:?}",
                    first.lane, lane.lane, first.output, lane.output
                ));
            }
            if lane.insts != first.insts || lane.checks != first.checks {
                return Err(format!(
                    "{policy:?}: dynamic counts diverged: {}=({}, {}) vs {}=({}, {})",
                    first.lane, first.insts, first.checks, lane.lane, lane.insts, lane.checks
                ));
            }
            if lane.evidence != first.evidence {
                return Err(format!(
                    "{policy:?}: evidence diverged between {} ({} records) and {} ({} records)",
                    first.lane,
                    first.evidence.len(),
                    lane.lane,
                    lane.evidence.len()
                ));
            }
        }
        for pair in lanes.chunks(2) {
            if pair[0].cycles != pair[1].cycles || pair[0].mem_hash != pair[1].mem_hash {
                return Err(format!(
                    "{policy:?}: {} vs {} diverged on cycles/memory: ({}, {:#x}) vs ({}, {:#x})",
                    pair[0].lane,
                    pair[1].lane,
                    pair[0].cycles,
                    pair[0].mem_hash,
                    pair[1].cycles,
                    pair[1].mem_hash
                ));
            }
        }

        if case.expect_safe {
            let (br, base_hash) = self.run_baseline(&args);
            let bret = br.ret().ok_or_else(|| {
                format!("baseline did not finish on a safe case: {:?}", br.outcome)
            })?;
            for lane in &lanes {
                if lane.outcome != (Outcome::Finished { ret: bret }) || lane.output != br.output {
                    return Err(format!(
                        "{policy:?} {}: safe case diverged from baseline: {:?} {:?}",
                        lane.lane, lane.outcome, lane.output
                    ));
                }
                if !lane.evidence.is_empty() || lane.violation_count != 0 {
                    return Err(format!(
                        "{policy:?} {}: safe case recorded {} evidence / {} violations",
                        lane.lane,
                        lane.evidence.len(),
                        lane.violation_count
                    ));
                }
                if lane.data_hash != base_hash {
                    return Err(format!(
                        "{policy:?} {}: data-region digest {:#x} != baseline {:#x}",
                        lane.lane, lane.data_hash, base_hash
                    ));
                }
            }
            return Ok(());
        }

        let (base, eff_cap) = parse_guard(&first.output).ok_or_else(|| {
            format!(
                "no `G <base> <cap>` guard line in output {:?} ({:?})",
                first.output, first.outcome
            )
        })?;
        let expected_addr = (k.fault_addr)(base, case.cap, case.len);
        let on_heap = (HEAP_BASE..FN_BASE).contains(&base);
        for lane in &lanes {
            if matches!(
                lane.outcome,
                Outcome::Trapped(Trap::SpatialViolation { .. })
            ) {
                return Err(format!(
                    "{policy:?} {}: continuing policy still trapped spatially: {:?}",
                    lane.lane, lane.outcome
                ));
            }
            let ev = lane.evidence.first().ok_or_else(|| {
                format!(
                    "{policy:?} {}: overflow case recorded no evidence",
                    lane.lane
                )
            })?;
            if ev.fault_addr != expected_addr {
                return Err(format!(
                    "{policy:?} {}: first evidence at {:#x}, but the first \
                     out-of-bounds byte is {expected_addr:#x} (guard base \
                     {base:#x}, eff_cap {eff_cap})",
                    lane.lane, ev.fault_addr
                ));
            }
            if ev.write != k.overflow_is_store {
                return Err(format!(
                    "{policy:?} {}: evidence write={}, kernel overflows with a {}",
                    lane.lane,
                    ev.write,
                    if k.overflow_is_store { "store" } else { "load" }
                ));
            }
            if lane.violation_count == 0 {
                return Err(format!(
                    "{policy:?} {}: overflow left violation_count at 0",
                    lane.lane
                ));
            }
        }
        match policy {
            ViolationPolicy::Hardened => {
                for lane in &lanes {
                    if !matches!(lane.outcome, Outcome::Finished { .. }) {
                        return Err(format!(
                            "hardened {}: clamped run did not finish: {:?}",
                            lane.lane, lane.outcome
                        ));
                    }
                }
                if on_heap {
                    // Clamp containment: the bytes just outside the
                    // guarded object must be exactly what a Strict run
                    // (which traps before touching them) leaves behind.
                    // Every kernel mallocs the guarded buffer exactly
                    // once, so no neighbouring allocation legitimately
                    // writes into these windows.
                    let bound = base + eff_cap as u64;
                    let windows = [(base.saturating_sub(64), base), (bound, bound + 64)];
                    let strict_ref = observe_windows(
                        "strict/ref",
                        &self.program,
                        SoftBoundRuntime::new_paged(&self.cfg),
                        &args,
                        false,
                        &windows,
                    );
                    let hardened = observe_windows(
                        "hardened/ref",
                        &self.preserved,
                        SoftBoundRuntime::new_paged(cfg),
                        &args,
                        false,
                        &windows,
                    );
                    if hardened.window != strict_ref.window {
                        return Err(format!(
                            "hardened clamp leaked outside the guarded object: \
                             windows around [{base:#x}, {bound:#x}) differ from \
                             the strict reference"
                        ));
                    }
                }
            }
            ViolationPolicy::Monitor => {
                if on_heap {
                    // Monitor performs the access: the run must be
                    // indistinguishable from the uninstrumented
                    // baseline (including an identical memory fault if
                    // the stray access leaves the mapped heap).
                    let (br, _) = self.run_baseline(&args);
                    if first.outcome != br.outcome || first.output != br.output {
                        return Err(format!(
                            "monitor diverged from the uninstrumented baseline: \
                             {:?} {:?} vs {:?} {:?}",
                            first.outcome, first.output, br.outcome, br.output
                        ));
                    }
                }
            }
            ViolationPolicy::Strict => unreachable!("handled above"),
        }
        Ok(())
    }

    /// Greedy shrink under the Strict oracle: try smaller
    /// `cap`/`len`/`seed` values that keep the case diverging,
    /// preferring the smallest reproducer.
    pub fn minimize(&self, case: &Case) -> Case {
        self.minimize_policy(case, ViolationPolicy::Strict)
    }

    /// Greedy shrink against the given policy's oracle.
    pub fn minimize_policy(&self, case: &Case, policy: ViolationPolicy) -> Case {
        let mut best = *case;
        let mut progress = true;
        while progress {
            progress = false;
            let mut candidates = Vec::new();
            if best.len > 0 {
                candidates.push(Case {
                    len: best.len - 1,
                    ..best
                });
                candidates.push(Case { len: 0, ..best });
            }
            if best.cap > 1 {
                candidates.push(Case {
                    cap: best.cap - 1,
                    ..best
                });
                candidates.push(Case { cap: 1, ..best });
            }
            if best.seed != 0 {
                candidates.push(Case { seed: 0, ..best });
            }
            for mut c in candidates {
                c.expect_safe = (self.kernel.safe)(c.cap, c.len);
                let smaller = (c.cap, c.len, c.seed) < (best.cap, best.len, best.seed);
                if smaller && self.run_policy_case(&c, policy).is_err() {
                    best = c;
                    progress = true;
                    break;
                }
            }
        }
        best
    }
}

/// Builds one harness per kernel (each compiles its program once).
pub fn harnesses() -> Vec<KernelHarness> {
    sb_workloads::all_libc_kernels()
        .into_iter()
        .map(KernelHarness::new)
        .collect()
}

/// Fuzzes cases `start..start + cases` of the stream rooted at `seed0`
/// under the Strict oracle. Stops after a handful of failures; each
/// failure is minimized and carries a reproducible seed.
pub fn fuzz_range(seed0: u64, start: u64, cases: u64) -> FuzzReport {
    fuzz_range_policy(seed0, start, cases, ViolationPolicy::Strict)
}

/// Fuzzes cases `start..start + cases` of the stream rooted at `seed0`
/// under `policy`'s conformance oracle: [`KernelHarness::run_case`] for
/// Strict, [`KernelHarness::run_policy_case`] for the continuing
/// policies. The case stream is policy-independent, so the same seed
/// covers the same `(kernel, cap, len, seed)` points in every mode.
pub fn fuzz_range_policy(
    seed0: u64,
    start: u64,
    cases: u64,
    policy: ViolationPolicy,
) -> FuzzReport {
    let kernels = sb_workloads::all_libc_kernels();
    let harnesses = harnesses();
    let mut report = FuzzReport::default();
    for index in start..start + cases {
        let case = gen_case(seed0, index, &kernels);
        let h = &harnesses[case.kernel_idx];
        report.cases += 1;
        if case.expect_safe {
            report.safe += 1;
        } else {
            report.overflow += 1;
        }
        if let Err(message) = h.run_policy_case(&case, policy) {
            let minimized = h.minimize_policy(&case, policy);
            report.failures.push(Failure {
                seed0,
                index,
                kernel: h.kernel.name,
                case,
                minimized,
                message,
            });
            if report.failures.len() >= 5 {
                break;
            }
        }
    }
    report
}

/// Fuzzes the first `cases` cases of the stream rooted at `seed0`.
pub fn fuzz(seed0: u64, cases: u64) -> FuzzReport {
    fuzz_range(seed0, 0, cases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_steers_both_regimes() {
        let kernels = sb_workloads::all_libc_kernels();
        let a: Vec<Case> = (0..64).map(|i| gen_case(7, i, &kernels)).collect();
        let b: Vec<Case> = (0..64).map(|i| gen_case(7, i, &kernels)).collect();
        assert_eq!(a, b, "same (seed, index) must regenerate the same case");
        let safe = a.iter().filter(|c| c.expect_safe).count();
        assert!(
            (16..=48).contains(&safe),
            "steering failed: {safe}/64 safe cases"
        );
        let distinct_kernels: std::collections::HashSet<usize> =
            a.iter().map(|c| c.kernel_idx).collect();
        assert!(distinct_kernels.len() >= 6, "kernel coverage too narrow");
    }

    #[test]
    fn verdict_always_matches_the_kernel_oracle() {
        let kernels = sb_workloads::all_libc_kernels();
        for i in 0..256 {
            let c = gen_case(42, i, &kernels);
            assert_eq!(
                c.expect_safe,
                (kernels[c.kernel_idx].safe)(c.cap, c.len),
                "case #{i} verdict out of sync with the oracle"
            );
            assert!((1..=48).contains(&c.cap), "cap {} out of range", c.cap);
            assert!((0..=64).contains(&c.len), "len {} out of range", c.len);
            assert!((0..=999).contains(&c.seed), "seed {} out of range", c.seed);
        }
    }

    #[test]
    fn smoke_fuzz_is_clean() {
        let report = fuzz(0xc0ffee, 48);
        assert!(
            report.failures.is_empty(),
            "divergences:\n{}",
            report
                .failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.safe > 0 && report.overflow > 0);
    }

    #[test]
    fn policy_matrix_smoke_is_clean() {
        for policy in [ViolationPolicy::Hardened, ViolationPolicy::Monitor] {
            let report = fuzz_range_policy(0xc0ffee, 0, 32, policy);
            assert!(
                report.failures.is_empty(),
                "{policy:?} divergences:\n{}",
                report
                    .failures
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
            assert!(report.safe > 0 && report.overflow > 0);
        }
    }
}
