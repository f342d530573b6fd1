//! Runtime interfaces: traps, outcomes, statistics, the x86-style cost
//! model, an optional L1 cache model, and the [`RuntimeHooks`] trait that
//! safety schemes (SoftBound, object tables, redzones, MSCC) implement,
//! with the [`RtCtx`] their calls run in.

use crate::mem::MemFault;
use sb_ir::{AllocaInfo, RtFn};
use std::fmt;

/// Why an execution stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// A safety runtime detected a spatial violation and aborted the
    /// program (the paper's `abort()` in `check()`).
    SpatialViolation {
        /// Which scheme fired.
        scheme: &'static str,
        /// The out-of-bounds address (or pointer value).
        addr: u64,
        /// True if the faulting access was a write.
        write: bool,
    },
    /// Access to an unmapped page — the simulated SIGSEGV.
    MemFault {
        /// Faulting address.
        addr: u64,
        /// True for writes.
        write: bool,
    },
    /// The spilled return token was corrupted and did not decode to a
    /// function (a crash in a real system).
    CorruptedReturn,
    /// The saved frame pointer was corrupted (and no viable fake frame).
    CorruptedFrame,
    /// A `longjmp` buffer held a token that decodes to nothing.
    CorruptedJmpBuf,
    /// `longjmp` to a frame that already returned.
    DeadJmpBuf,
    /// Integer division by zero.
    DivByZero,
    /// `assert()` failed.
    AssertFail,
    /// `abort()` was called.
    Abort,
    /// Heap exhausted.
    OutOfMemory,
    /// Instruction budget exhausted (runaway loop guard).
    FuelExhausted,
    /// Call to an undefined (external, unlinked) function.
    UndefinedFunction(String),
    /// Indirect call through a value that is not a function address.
    BadIndirectCall {
        /// The bogus target value.
        addr: u64,
    },
    /// An `unreachable` instruction was executed.
    Unreachable,
    /// `free()` of a pointer that is not a live allocation.
    BadFree {
        /// The bogus pointer.
        addr: u64,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::SpatialViolation {
                scheme,
                addr,
                write,
            } => write!(
                f,
                "{scheme}: spatial memory violation ({} at {addr:#x})",
                if *write { "store" } else { "load" }
            ),
            Trap::MemFault { addr, write } => write!(
                f,
                "memory fault ({} at {addr:#x})",
                if *write { "store" } else { "load" }
            ),
            Trap::CorruptedReturn => write!(f, "return token corrupted"),
            Trap::CorruptedFrame => write!(f, "saved frame pointer corrupted"),
            Trap::CorruptedJmpBuf => write!(f, "longjmp buffer corrupted"),
            Trap::DeadJmpBuf => write!(f, "longjmp target frame has returned"),
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::AssertFail => write!(f, "assertion failed"),
            Trap::Abort => write!(f, "abort() called"),
            Trap::OutOfMemory => write!(f, "out of memory"),
            Trap::FuelExhausted => write!(f, "instruction budget exhausted"),
            Trap::UndefinedFunction(n) => write!(f, "call to undefined function `{n}`"),
            Trap::BadIndirectCall { addr } => write!(f, "indirect call to non-function {addr:#x}"),
            Trap::Unreachable => write!(f, "unreachable executed"),
            Trap::BadFree { addr } => write!(f, "free() of invalid pointer {addr:#x}"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<MemFault> for Trap {
    fn from(e: MemFault) -> Self {
        Trap::MemFault {
            addr: e.addr,
            write: e.write,
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The entry function returned normally.
    Finished {
        /// Its return value (0 for void).
        ret: i64,
    },
    /// `exit(code)` was called.
    Exited {
        /// The exit code.
        code: i64,
    },
    /// Abnormal termination.
    Trapped(Trap),
    /// Control flow was successfully diverted to an attacker-chosen
    /// function (a corrupted return token / frame pointer / jmp_buf that
    /// decoded to a valid function). This is the *attack succeeded* state
    /// of the Wilander suite.
    Hijacked {
        /// Name of the function the attacker redirected control to.
        target: String,
    },
}

impl Outcome {
    /// True if this outcome represents a *detected* spatial violation.
    pub fn is_spatial_violation(&self) -> bool {
        matches!(self, Outcome::Trapped(Trap::SpatialViolation { .. }))
    }

    /// True if the run completed without traps or hijacks.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Finished { .. } | Outcome::Exited { code: 0 })
    }
}

/// Cache statistics (when the cache model is enabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

/// Dynamic execution statistics — the raw material for Figures 1 and 2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Dynamic IR instructions executed.
    pub insts: u64,
    /// Cost-model cycles (x86-equivalent instruction count + cache
    /// penalties + runtime-helper costs).
    pub cycles: u64,
    /// Program loads executed.
    pub loads: u64,
    /// Program stores executed.
    pub stores: u64,
    /// Loads/stores of pointer values (the Figure 1 numerator).
    pub ptr_mem_ops: u64,
    /// Runtime-helper invocations (checks + metadata ops).
    pub rt_calls: u64,
    /// Cycles spent in runtime helpers.
    pub rt_cycles: u64,
    /// Bounds checks executed.
    pub checks: u64,
    /// Metadata loads executed.
    pub meta_loads: u64,
    /// Metadata stores executed.
    pub meta_stores: u64,
    /// `malloc`/`calloc` calls.
    pub mallocs: u64,
    /// `free` calls.
    pub frees: u64,
    /// Calls executed.
    pub calls: u64,
    /// Maximum frame depth.
    pub max_depth: u64,
    /// Cache behaviour, if modelled.
    pub cache: CacheStats,
}

impl ExecStats {
    /// Total program memory operations (loads + stores).
    pub fn mem_ops(&self) -> u64 {
        self.loads + self.stores
    }

    /// Fraction of memory operations that move pointers — Figure 1's
    /// y-axis.
    pub fn ptr_mem_fraction(&self) -> f64 {
        if self.mem_ops() == 0 {
            0.0
        } else {
            self.ptr_mem_ops as f64 / self.mem_ops() as f64
        }
    }
}

/// Per-instruction costs in x86-equivalent instructions: the shape of
/// the machine's one cost model, [`COST_MODEL`]. It follows the paper's
/// own accounting (§5.1: shadow-space lookup ≈ 5, hash lookup ≈ 9,
/// check ≈ 3 — the helper costs live in the runtime implementations;
/// these are the base program costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Simple ALU op (add/sub/logic).
    pub alu: u64,
    /// Multiply.
    pub mul: u64,
    /// Divide / remainder.
    pub div: u64,
    /// Compare (+ setcc).
    pub cmp: u64,
    /// Load (hit cost; misses add `miss_penalty`).
    pub load: u64,
    /// Store.
    pub store: u64,
    /// Address computation (lea).
    pub gep: u64,
    /// Register move (usually renamed away).
    pub mov: u64,
    /// Width cast (movsx/movzx).
    pub cast: u64,
    /// Unconditional jump.
    pub jmp: u64,
    /// Conditional branch.
    pub branch: u64,
    /// Call overhead (caller+callee bookkeeping).
    pub call: u64,
    /// Return overhead.
    pub ret: u64,
    /// Per-argument cost of a call.
    pub call_arg: u64,
}

/// The cost every machine charges. Every cycle count the evaluation
/// reports (Figure 2's overhead ratios, the differential suites' cycle
/// comparisons) is measured against this one model.
pub const COST_MODEL: CostModel = CostModel {
    alu: 1,
    mul: 3,
    div: 22,
    cmp: 1,
    load: 1,
    store: 1,
    gep: 1,
    mov: 0,
    cast: 1,
    jmp: 1,
    branch: 1,
    call: 4,
    ret: 2,
    call_arg: 1,
};

/// Geometry of a set-associative L1 model. Machines model
/// [`CacheConfig::CORE2_L1`] when `MachineConfig::cache` is on; other
/// geometries serve [`CacheSim`]'s own unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity.
    pub ways: u64,
    /// Extra cycles on a miss.
    pub miss_penalty: u64,
}

impl CacheConfig {
    /// 32 KiB, 64 B lines, 8-way, 30-cycle miss penalty: a Core 2-era
    /// L1D (the paper's evaluation machine is a 2.66 GHz Core 2).
    pub const CORE2_L1: CacheConfig = CacheConfig {
        size: 32 * 1024,
        line: 64,
        ways: 8,
        miss_penalty: 30,
    };
}

/// A small set-associative cache with LRU replacement, used to model the
/// memory-pressure effects the paper mentions for treeadd/mst/health
/// (§6.3: "simulations of cache miss rates indicate the additional memory
/// pressure is contributing to the runtime overheads").
#[derive(Debug)]
pub struct CacheSim {
    cfg: CacheConfig,
    sets: Vec<Vec<u64>>, // per-set LRU stack of tags (front = MRU)
    /// Statistics.
    pub stats: CacheStats,
}

impl CacheSim {
    /// Creates a cache from a config.
    pub fn new(cfg: CacheConfig) -> Self {
        let nsets = (cfg.size / (cfg.line * cfg.ways)).max(1) as usize;
        CacheSim {
            cfg,
            sets: vec![Vec::new(); nsets],
            stats: CacheStats::default(),
        }
    }

    /// Touches `addr`; returns the extra cycles (0 on hit, `miss_penalty`
    /// on miss).
    pub fn access(&mut self, addr: u64) -> u64 {
        self.stats.accesses += 1;
        let line = addr / self.cfg.line;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let ways = self.cfg.ways as usize;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&t| t == tag) {
            let t = s.remove(pos);
            s.insert(0, t);
            0
        } else {
            self.stats.misses += 1;
            s.insert(0, tag);
            s.truncate(ways);
            self.cfg.miss_penalty
        }
    }
}

/// The context a safety runtime's helper runs in: the helper adds its
/// cost in x86-equivalent instructions and reports each simulated table
/// line it touches through [`touch`](RtCtx::touch), and reads the
/// call-site PC. A repair-and-continue runtime hands its clamp order
/// back here.
///
/// The machine owns one context for its whole life, and with it the
/// optional L1 [`CacheSim`]: a touched line that misses adds its penalty
/// to [`cost`](RtCtx::cost) at once, so the machine charges a helper by
/// reading one number after the call.
#[derive(Debug, Default)]
pub struct RtCtx {
    /// Cycles consumed by the helper (e.g. 5 for a shadow-space lookup),
    /// including the miss penalties of the table lines it touched.
    pub cost: u64,
    /// The machine's L1 cache model, when `MachineConfig::cache` is on.
    /// Program accesses and runtime table touches share it.
    pub cache: Option<CacheSim>,
    /// Dynamic instruction index at the call site — the "PC" a runtime
    /// stamps into evidence records. The machine writes it before every
    /// hook call; [`reset`](RtCtx::reset) leaves it alone.
    pub pc: u64,
    /// Repair order from a repair-and-continue runtime: `Some((base,
    /// bound))` means "the check I just ran would have trapped; perform
    /// the guarded access clamped to these bounds instead". It waits here,
    /// across any metadata calls in between, until the machine's very
    /// next load/store takes it (check and access are adjacent by
    /// construction of the instrumentation pass).
    pub repair: Option<(u64, u64)>,
}

impl RtCtx {
    /// Resets for the next call; the cache model, the PC and a waiting
    /// repair order stay.
    pub fn reset(&mut self) {
        self.cost = 0;
    }

    /// Reports a touched simulated metadata-table address: under the
    /// cache model, a miss adds its penalty to [`cost`](RtCtx::cost).
    #[inline]
    pub fn touch(&mut self, table_addr: u64) {
        if let Some(c) = &mut self.cache {
            self.cost += c.access(table_addr);
        }
    }
}

/// The bounds test every pointer-based check shares: `None` when the
/// `len`-byte access at `ptr` lies inside `[base, bound)`, otherwise its
/// [first out-of-bounds byte](first_oob_byte). The end is a checked add:
/// an access whose last byte would wrap past zero is out of bounds, not
/// a tiny range below `bound`.
#[inline]
pub fn out_of_bounds(ptr: u64, len: u64, base: u64, bound: u64) -> Option<u64> {
    if ptr >= base && ptr.checked_add(len).is_some_and(|end| end <= bound) {
        None
    } else {
        Some(first_oob_byte(ptr, base, bound))
    }
}

/// The first byte a violating access touches out of bounds: the pointer
/// itself when it starts outside `[base, bound)` (including the
/// NULL-bounds `base == bound == 0` encoding), otherwise `bound`, the
/// first byte past the object an upward walk reaches. Wrapper traps
/// report it, and evidence records name it for every violation.
#[inline]
pub fn first_oob_byte(ptr: u64, base: u64, bound: u64) -> u64 {
    if ptr < base || ptr >= bound {
        ptr
    } else {
        bound
    }
}

/// Return values of a runtime helper (at most 2: base and bound).
pub type RtVals = [i64; 2];

/// The interface between the VM and a safety runtime.
///
/// Instrumentation passes insert [`RtFn`] instructions; the VM forwards
/// them here together with allocation-lifecycle events and the libc
/// wrappers' range checks and metadata copies. Implementations live in
/// the `softbound` and `sb-baselines` crates.
pub trait RuntimeHooks {
    /// Bytes of unaddressable padding the heap puts on both sides of
    /// every block: Memcheck-style redzones for a runtime that detects
    /// overflows by address. A runtime that checks bounds needs none.
    const REDZONE: u64 = 0;

    /// Executes a runtime helper.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] (usually [`Trap::SpatialViolation`]) to abort the
    /// program, exactly like the paper's `check()` calling `abort()`.
    fn rt_call(&mut self, rt: RtFn, args: &[i64], ctx: &mut RtCtx) -> Result<RtVals, Trap>;

    /// A heap allocation of `size` user bytes succeeded at `addr`.
    fn on_malloc(&mut self, addr: u64, size: u64, ctx: &mut RtCtx) {
        let _ = (addr, size, ctx);
    }

    /// A heap block is being freed.
    fn on_free(&mut self, addr: u64, size: u64, ptr_hint: bool, ctx: &mut RtCtx) {
        let _ = (addr, size, ptr_hint, ctx);
    }

    /// A wrapped `memcpy` whose type heuristic says the buffers may hold
    /// pointers copied `len` bytes from `src` to `dst` (§5.2): a runtime
    /// with a metadata table copies the pointer slots' metadata along.
    /// `len` is what the builtin actually copied, which a clamping
    /// policy may have cut short of the requested length.
    fn on_memcpy(&mut self, dst: u64, src: u64, len: u64, ctx: &mut RtCtx) {
        let _ = (dst, src, len, ctx);
    }

    /// A stack allocation materialized at `addr`.
    fn on_alloca(&mut self, addr: u64, info: &AllocaInfo, ctx: &mut RtCtx) {
        let _ = (addr, info, ctx);
    }

    /// A frame is being torn down, on a return or a `longjmp` unwind
    /// alike; `allocas` lists its stack allocations as `(addr, info)`, in
    /// frame-layout order. SoftBound clears the metadata of those that
    /// hold pointers (§5.2), the object-table schemes unregister them.
    fn on_frame_exit(&mut self, allocas: &[(u64, &AllocaInfo)], ctx: &mut RtCtx) {
        let _ = (allocas, ctx);
    }

    /// A global was laid out at `addr` during module load.
    fn on_global(&mut self, addr: u64, size: u64, ctx: &mut RtCtx) {
        let _ = (addr, size, ctx);
    }

    /// Interposition point for C-library builtins (memcpy/strcpy/…): the
    /// VM reports each buffer of `len` bytes at `ptr` a builtin is about
    /// to touch, before it touches any, and touches only as many bytes
    /// as this returns. `bounds` is the pointer's `(base, bound)` when a
    /// pointer-based pass wrapped the call (§5.2), `None` otherwise.
    ///
    /// The default is the paper's Strict wrapper check: it traps
    /// `"softbound-wrapper"` at the [first out-of-bounds
    /// byte](first_oob_byte) of a wrapped buffer and passes the rest
    /// whole. SoftBound applies its violation policy instead; schemes
    /// that check by *address* (object tables, addressability maps)
    /// ignore `bounds` and check the range themselves.
    ///
    /// # Errors
    ///
    /// A [`Trap`] aborts the program before the builtin runs.
    fn check_builtin_range(
        &mut self,
        ptr: u64,
        len: u64,
        write: bool,
        bounds: Option<(u64, u64)>,
        ctx: &mut RtCtx,
    ) -> Result<u64, Trap> {
        let _ = ctx;
        match bounds.and_then(|(base, bound)| out_of_bounds(ptr, len, base, bound)) {
            None => Ok(len),
            Some(addr) => Err(Trap::SpatialViolation {
                scheme: "softbound-wrapper",
                addr,
                write,
            }),
        }
    }

    /// Clears all per-execution state (metadata tables, counters) so a
    /// reused [`Machine`](crate::Machine) behaves exactly like a freshly
    /// constructed one while keeping expensive allocations alive.
    /// Runtimes holding state between `rt_call`s **must** implement this
    /// for [`Machine::reset`](crate::Machine::reset) to be sound; the
    /// default is a no-op for stateless runtimes.
    fn reset(&mut self) {}
}

/// A no-op runtime for uninstrumented executions.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRuntime;

impl RuntimeHooks for NoRuntime {
    fn rt_call(&mut self, rt: RtFn, _args: &[i64], _ctx: &mut RtCtx) -> Result<RtVals, Trap> {
        // Uninstrumented modules contain no Rt instructions; reaching here
        // means a pass/module mismatch, which we surface loudly.
        panic!("runtime call {rt:?} executed without an installed runtime");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_display() {
        let t = Trap::SpatialViolation {
            scheme: "softbound",
            addr: 0x1234,
            write: true,
        };
        assert!(t.to_string().contains("softbound"));
        assert!(t.to_string().contains("store"));
    }

    #[test]
    fn outcome_predicates() {
        assert!(Outcome::Finished { ret: 0 }.is_success());
        assert!(Outcome::Exited { code: 0 }.is_success());
        assert!(!Outcome::Exited { code: 66 }.is_success());
        assert!(Outcome::Trapped(Trap::SpatialViolation {
            scheme: "x",
            addr: 0,
            write: false
        })
        .is_spatial_violation());
        assert!(!Outcome::Hijacked {
            target: "evil".into()
        }
        .is_success());
    }

    #[test]
    fn stats_fraction() {
        let mut s = ExecStats::default();
        assert_eq!(s.ptr_mem_fraction(), 0.0);
        s.loads = 60;
        s.stores = 40;
        s.ptr_mem_ops = 25;
        assert!((s.ptr_mem_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cache_hits_and_misses() {
        let mut c = CacheSim::new(CacheConfig {
            size: 128,
            line: 64,
            ways: 1,
            miss_penalty: 10,
        });
        assert_eq!(c.access(0), 10, "cold miss");
        assert_eq!(c.access(8), 0, "same line hits");
        assert_eq!(c.access(64), 10, "different set");
        // Conflict: set 0 holds line 0; line 128 maps to set 0 in a 2-set
        // direct-mapped cache and evicts it.
        assert_eq!(c.access(128), 10);
        assert_eq!(c.access(0), 10, "evicted");
        assert_eq!(c.stats.accesses, 5);
        assert_eq!(c.stats.misses, 4);
    }

    #[test]
    fn cache_lru_within_set() {
        let mut c = CacheSim::new(CacheConfig {
            size: 256,
            line: 64,
            ways: 2,
            miss_penalty: 1,
        });
        // 2 sets × 2 ways. Lines 0,2,4 all map to set 0.
        c.access(0); // miss
        c.access(128); // miss (line 2, set 0)
        c.access(0); // hit, now MRU
        c.access(256); // miss (line 4, set 0) — evicts 128
        assert_eq!(c.access(0), 0, "0 stayed (was MRU)");
        assert_eq!(c.access(128), 1, "128 was evicted");
    }

    #[test]
    fn rtctx_reuse() {
        let mut ctx = RtCtx {
            cost: 9,
            cache: Some(CacheSim::new(CacheConfig::CORE2_L1)),
            ..RtCtx::default()
        };
        ctx.touch(0x10);
        ctx.touch(0x18);
        assert_eq!(ctx.cost, 9 + CacheConfig::CORE2_L1.miss_penalty);
        ctx.reset();
        assert_eq!(ctx.cost, 0);
        // The cache model survives the reset: the line is still warm.
        ctx.touch(0x10);
        assert_eq!(ctx.cost, 0);
        let stats = ctx.cache.as_ref().expect("cache kept").stats;
        assert_eq!((stats.accesses, stats.misses), (3, 1));
    }
}
