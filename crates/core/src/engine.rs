//! The session-oriented embedding surface: [`Engine`] → [`Program`] →
//! [`Instance`].
//!
//! A one-shot entry point — re-compile the source, rebuild the metadata
//! facility and the `Machine`, run once — is the wrong shape for
//! fleet-style traffic, and it is exactly the shape SoftBound's
//! disjoint-metadata design (§5.1) does *not* require: because metadata
//! lives apart from program memory, both reset independently and
//! cheaply between runs. The session API therefore splits the pipeline
//! into three owned artifacts:
//!
//! * [`Engine`] — a reusable builder capturing the
//!   [`SoftBoundConfig`] and [`MachineConfig`]; cheap to clone, one per
//!   deployment configuration.
//! * [`Program`] — a compiled, instrumented, *verified* module plus the
//!   post-instrument [`PassStats`] and its pre-decoded [`ExecModule`].
//!   Compile once, share among instances.
//! * [`Instance`] — a persistent monomorphized
//!   [`SoftBoundRuntime`]`<F>` + [`Machine`] that can
//!   [`run`](Instance::run) an entry point repeatedly, always through
//!   the program's pre-decoded [`ExecModule`]
//!   ([`Machine::run_predecoded`]).
//!   [`reset`](Instance::reset) clears program memory and metadata
//!   between runs while keeping the shadow directory, the interpreter's
//!   frame pool, and frame plans alive, so back-to-back requests skip
//!   the per-machine setup entirely (the `throughput` bench measures the
//!   win).
//!
//! Every scheme compiles through the same stages (§6.1): [`front_half`]
//! (frontend, lowering, pre-instrument optimizer), a pass, then
//! [`Program::build`] (post-instrument optimizer, verifier, exec
//! lowering). [`Engine::compile`] is that pipeline with SoftBound's
//! pass; the baselines of `sb-baselines` run theirs, so every scheme's
//! result is a `Program`, served on the pre-decoded lane by a machine
//! from [`Program::machine`].
//!
//! The tree-walk interpreter ([`Machine::run`]) is the reference those
//! runs are held to: differential suites build a `Machine` over
//! [`Program::module`] with a runtime of their choice and compare the
//! two.
//!
//! ```
//! use softbound::{Engine, SoftBoundConfig};
//!
//! let engine = Engine::new();
//! let program = engine.compile("int main(int n) { return n * 2; }")?;
//! let mut instance = engine.instantiate(&program);
//! for request in 0..3 {
//!     let r = instance.run("main", &[request]);
//!     assert_eq!(r.ret(), Some(request * 2));
//! }
//! assert_eq!(instance.runs(), 3);
//! # Ok::<(), softbound::SoftBoundError>(())
//! ```

use crate::config::{CheckMode, Facility, SoftBoundConfig};
use crate::error::SoftBoundError;
use crate::metadata::{HashTableFacility, ShadowPages};
use crate::policy::{EvidenceRecord, ViolationPolicy};
use crate::runtime::SoftBoundRuntime;
use crate::transform::instrument;
use sb_cir::PtrLayout;
use sb_ir::{Module, OptLevel, PassStats};
use sb_vm::{ExecModule, Machine, MachineConfig, RunResult, RuntimeHooks};

/// The pipeline's front half (§6.1), shared by every scheme: the
/// frontend at `layout`, lowering to a module named `name`, and the
/// pre-instrument optimizer. A pass instruments the result, and
/// [`Program::build`] finishes it.
///
/// # Errors
///
/// [`SoftBoundError::Compile`] for frontend rejections.
pub fn front_half(src: &str, layout: PtrLayout, name: &str) -> Result<Module, SoftBoundError> {
    let prog = sb_cir::compile_with_layout(src, layout)?;
    let mut module = sb_ir::lower(&prog, name);
    sb_ir::optimize(&mut module, OptLevel::PreInstrument);
    Ok(module)
}

/// A reusable SoftBound pipeline configuration: the entry point of the
/// session API.
///
/// An engine owns no per-program state — it is a builder over
/// [`SoftBoundConfig`] (checking mode, metadata facility, violation
/// policy) and [`MachineConfig`] (L1 model, fuel). Build one
/// per deployment configuration, then [`compile`](Engine::compile)
/// programs and [`instantiate`](Engine::instantiate) long-lived machines
/// from it.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    sb: SoftBoundConfig,
    machine: MachineConfig,
}

impl Engine {
    /// An engine with the paper's headline configuration (full checking
    /// over the paged shadow space, default machine).
    pub fn new() -> Self {
        Engine::default()
    }

    /// Replaces the SoftBound configuration wholesale.
    pub fn softbound_config(mut self, cfg: SoftBoundConfig) -> Self {
        self.sb = cfg;
        self
    }

    /// Selects the metadata facility (§5.1).
    pub fn facility(mut self, facility: Facility) -> Self {
        self.sb.facility = facility;
        self
    }

    /// Selects the checking mode (full vs store-only, §6.3).
    pub fn check_mode(mut self, mode: CheckMode) -> Self {
        self.sb.mode = mode;
        self
    }

    /// Selects the violation policy (trap / repair / observe).
    /// Non-Strict policies compile with redundant-check elimination
    /// disabled, so every retained check guards exactly the access it
    /// precedes — a clamp repairs one access, never a "proven" later one.
    pub fn policy(mut self, policy: ViolationPolicy) -> Self {
        self.sb.policy = policy;
        self
    }

    /// Replaces the machine configuration (L1 model, fuel).
    pub fn machine_config(mut self, cfg: MachineConfig) -> Self {
        self.machine = cfg;
        self
    }

    /// The SoftBound configuration this engine instruments with.
    pub fn config(&self) -> &SoftBoundConfig {
        &self.sb
    }

    /// The machine configuration instances are built with.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Compiles CIR-C source through the full paper pipeline (§6.1):
    /// [`front_half`], SoftBound's [`instrument`], then
    /// [`Program::build`] at the policy's
    /// [post-instrument level](SoftBoundConfig::post_instrument_level).
    ///
    /// # Errors
    ///
    /// [`SoftBoundError::Compile`] for frontend rejections and
    /// [`SoftBoundError::Verify`] when the instrumented module fails
    /// structural verification (a pass bug, reported instead of
    /// panicking so embedders can log and keep serving).
    pub fn compile(&self, src: &str) -> Result<Program, SoftBoundError> {
        let module = instrument(&front_half(src, PtrLayout::Thin, "program")?, &self.sb);
        Program::build(module, Some(self.sb.post_instrument_level()))
    }

    /// Builds a persistent machine over a compiled program,
    /// monomorphized on the configured facility, with the program's
    /// cached [`ExecModule`] attached — instantiation pays no decode.
    pub fn instantiate<'p>(&self, program: &'p Program) -> Instance<'p> {
        let cfg = self.machine.clone();
        let repr = match self.sb.facility {
            Facility::ShadowShared => {
                Repr::Shadow(program.machine(cfg, SoftBoundRuntime::new_paged(&self.sb)))
            }
            Facility::HashTable => {
                Repr::HashTable(program.machine(cfg, SoftBoundRuntime::new_hash(&self.sb)))
            }
        };
        Instance {
            repr,
            runs: 0,
            dirty: false,
        }
    }

    /// Compile + instantiate + run in one call, for one-shot callers.
    ///
    /// # Errors
    ///
    /// Pipeline errors from [`Engine::compile`].
    pub fn run_once(
        &self,
        src: &str,
        entry: &str,
        args: &[i64],
    ) -> Result<RunResult, SoftBoundError> {
        let program = self.compile(src)?;
        Ok(self.instantiate(&program).run(entry, args))
    }
}

/// A compiled, instrumented, verified module plus the post-instrument
/// optimizer statistics and the cached pre-decoded lowering. Produced
/// by [`Engine::compile`], or by [`Program::build`] for any other
/// scheme's module; immutable and shareable among any number of
/// [`Instance`]s — which is exactly why the [`ExecModule`] lives here:
/// the flat-IR decode runs once per compilation, and every instance
/// (and every run) borrows the result.
#[derive(Debug, Clone)]
pub struct Program {
    module: Module,
    stats: PassStats,
    exec: ExecModule,
}

impl Program {
    /// The pipeline's back half (§6.1), shared by every scheme: the
    /// post-instrument optimizer at `post` (`None` for a module no pass
    /// instrumented), the verifier, and the lowering to the pre-decoded
    /// [`ExecModule`] every instance of the program shares.
    ///
    /// # Errors
    ///
    /// [`SoftBoundError::Verify`] when the module fails structural
    /// verification (a pass bug, reported instead of panicking).
    pub fn build(mut module: Module, post: Option<OptLevel>) -> Result<Program, SoftBoundError> {
        let stats = post.map_or_else(PassStats::default, |level| {
            sb_ir::optimize_with_stats(&mut module, level)
        });
        sb_ir::verify(&module)?;
        let exec = ExecModule::lower(&module);
        Ok(Program {
            module,
            stats,
            exec,
        })
    }

    /// A machine over this program with `hooks` installed and the
    /// cached [`ExecModule`] attached, ready for
    /// [`Machine::run_predecoded`]: the served lane, for any runtime.
    pub fn machine<H: RuntimeHooks>(&self, cfg: MachineConfig, hooks: H) -> Machine<'_, H> {
        let mut machine = Machine::new(&self.module, cfg, hooks);
        machine.attach_exec(&self.exec);
        machine
    }

    /// The instrumented module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The cached pre-decoded execution IR (lowered once at compile
    /// time; [`Engine::instantiate`] attaches it to every machine).
    pub fn exec(&self) -> &ExecModule {
        &self.exec
    }

    /// Post-instrument optimizer statistics (instructions removed,
    /// redundant checks eliminated) — the experiment harness's
    /// elimination counts.
    pub fn stats(&self) -> PassStats {
        self.stats
    }
}

/// The two monomorphized machines an engine can build, one per §5.1
/// facility. One `match` per public call, then fully static dispatch
/// inside — the check path never sees a vtable.
enum Repr<'p> {
    Shadow(Machine<'p, SoftBoundRuntime<ShadowPages>>),
    HashTable(Machine<'p, SoftBoundRuntime<HashTableFacility>>),
}

macro_rules! each_machine {
    ($self:expr, $m:ident => $body:expr) => {
        match &$self.repr {
            Repr::Shadow($m) => $body,
            Repr::HashTable($m) => $body,
        }
    };
}

macro_rules! each_machine_mut {
    ($self:expr, $m:ident => $body:expr) => {
        match &mut $self.repr {
            Repr::Shadow($m) => $body,
            Repr::HashTable($m) => $body,
        }
    };
}

/// A persistent execution session: one monomorphized
/// [`SoftBoundRuntime`]`<F>` plus one [`Machine`], reusable across any
/// number of runs, each dispatched through the program's pre-decoded
/// [`ExecModule`].
///
/// [`run`](Instance::run) resets automatically between runs, so N
/// back-to-back runs observe exactly what N fresh machines would —
/// identical traps, outputs, check counts, and final memory (pinned by
/// `tests/instance_reuse.rs`) — while reusing the shadow directory,
/// the laid-out frame plans, and the interpreter's pooled buffers
/// instead of rebuilding them per request.
pub struct Instance<'p> {
    repr: Repr<'p>,
    runs: u64,
    dirty: bool,
}

impl Instance<'_> {
    /// Runs `entry` with the given arguments. If the instance has run
    /// before, program memory and metadata are
    /// [`reset`](Instance::reset) first, so every run starts from the
    /// same initial state a fresh machine would.
    pub fn run(&mut self, entry: &str, args: &[i64]) -> RunResult {
        if self.dirty {
            each_machine_mut!(self, m => m.reset());
        }
        self.dirty = true;
        self.runs += 1;
        each_machine_mut!(self, m => m.run_predecoded(entry, args))
    }

    /// Eagerly clears program memory, heap, and all pointer metadata
    /// (`live_entries()` is 0 afterwards) while keeping the shadow
    /// directory and machine plans alive; the paged shadow's page frames
    /// go back to the process-wide pool. [`run`](Instance::run) does
    /// this lazily; call it directly to drop a finished request's
    /// metadata footprint before the instance goes idle.
    pub fn reset(&mut self) {
        each_machine_mut!(self, m => m.reset());
        self.dirty = false;
    }

    /// Number of completed [`run`](Instance::run) calls.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Live (non-NULL) metadata entries in the facility right now.
    pub fn live_entries(&self) -> usize {
        each_machine!(self, m => m.hooks().live_entries())
    }

    /// Bytes of host memory the metadata facility owns
    /// ([`MetadataFacility::reservation_bytes`]): for the paged shadow,
    /// its directory plus the page frames the current run committed
    /// (none after a [`reset`](Instance::reset)); for the hash table,
    /// its buckets and chains.
    ///
    /// [`MetadataFacility::reservation_bytes`]: crate::MetadataFacility::reservation_bytes
    pub fn metadata_reservation_bytes(&self) -> usize {
        each_machine!(self, m => m.hooks().reservation_bytes())
    }

    /// Violations detected by the runtime since the last reset.
    pub fn violation_count(&self) -> u64 {
        each_machine!(self, m => m.hooks().violation_count)
    }

    /// The violation policy the underlying runtime enforces.
    pub fn policy(&self) -> ViolationPolicy {
        each_machine!(self, m => m.hooks().policy())
    }

    /// Removes and returns all evidence records accumulated since the
    /// last drain (or reset), oldest first. Strict instances never
    /// record evidence, so this always returns an empty vector there.
    ///
    /// Draining does not count as a run: the next [`run`](Instance::run)
    /// still observes the reset-between-runs contract, and an undrained
    /// ring is cleared by it.
    pub fn drain_evidence(&mut self) -> Vec<EvidenceRecord> {
        each_machine_mut!(self, m => m.hooks_mut().drain_evidence())
    }

    /// Evidence records currently held in the ring (without draining).
    pub fn evidence_len(&self) -> usize {
        each_machine!(self, m => m.hooks().evidence_len())
    }

    /// Evidence records lost to ring overflow since the last reset — a
    /// non-zero value means the drain cadence is too slow for the
    /// violation rate (the ring holds
    /// [`EVIDENCE_CAPACITY`](crate::EVIDENCE_CAPACITY) records).
    pub fn evidence_overflow(&self) -> u64 {
        each_machine!(self, m => m.hooks().evidence_overflow())
    }

    /// Digest of the current simulated memory image
    /// ([`Mem::content_hash`](sb_vm::Mem::content_hash)), for comparing
    /// runs against fresh machines and serial oracles.
    pub fn mem_content_hash(&self) -> u64 {
        each_machine!(self, m => m.mem.content_hash())
    }

    /// The facility this instance monomorphizes over.
    pub fn facility(&self) -> Facility {
        match self.repr {
            Repr::Shadow(_) => Facility::ShadowShared,
            Repr::HashTable(_) => Facility::HashTable,
        }
    }
}

// The fleet contract, checked at compile time: an `Engine` and a
// compiled `Program` cross thread boundaries by shared reference (every
// worker borrows the same program), and an `Instance` may be *moved*
// into a worker thread (each worker owns exactly one). These hold
// because the whole pipeline is plain owned data — no interior
// mutability, no `Rc`, no raw-pointer caches — so a regression (say, a
// lazily-populated `RefCell` decode cache on `Program`) fails this
// file's build rather than some downstream fleet test.
const fn assert_send_sync<T: Send + Sync>() {}
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send_sync::<Engine>();
    assert_send_sync::<Program>();
    assert_send::<Instance<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_builder_selects_facility_and_mode() {
        let e = Engine::new()
            .facility(Facility::HashTable)
            .check_mode(CheckMode::StoreOnly);
        assert_eq!(e.config().facility, Facility::HashTable);
        assert_eq!(e.config().mode, CheckMode::StoreOnly);
        let program = e.compile("int main() { return 7; }").expect("compiles");
        let inst = e.instantiate(&program);
        assert_eq!(inst.facility(), Facility::HashTable);
    }

    #[test]
    fn shared_facility_instance_runs_resets_and_reports_reservation() {
        let src = r#"
            int main(int n) {
                int* p = (int*)malloc(4 * sizeof(int));
                for (int i = 0; i < 4; i++) p[i] = n + i;
                int s = p[0] + p[3];
                free(p);
                return s;
            }
        "#;
        let engine = Engine::new().facility(Facility::ShadowShared);
        let program = engine.compile(src).expect("compiles");
        let mut inst = engine.instantiate(&program);
        assert_eq!(inst.facility(), Facility::ShadowShared);
        for n in 0..3 {
            let r = inst.run("main", &[n]);
            assert_eq!(r.ret(), Some(2 * n + 3), "{:?}", r.outcome);
        }
        inst.reset();
        assert_eq!(inst.live_entries(), 0);
        // After reset the paged shadow owns only its directory: the
        // 16 KiB root and the chunks its runs allocated. Its page frames
        // went back to the process-wide pool.
        let idle = inst.metadata_reservation_bytes();
        assert!(
            (16 << 10..1 << 20).contains(&idle),
            "idle reservation {idle}"
        );
        // The hash table owns its 2^20 buckets of 24 bytes each.
        let hash = Engine::new()
            .facility(Facility::HashTable)
            .instantiate(&program);
        assert!(hash.metadata_reservation_bytes() >= 24 << 20);
    }

    #[test]
    fn compile_reports_frontend_errors() {
        for src in [
            "int main( { return 0; }",
            // Builtins used as values: they have no code address.
            "int main() { return (long)malloc != 0; }",
            "int main() { return (long)&printf != 0; }",
            // Function-pointer difference: the pointee has no size.
            "int f(int x) { return x; } \
             int main() { int (*p)(int) = f; int (*q)(int) = f; return (int)(p - q); }",
            "int f(int x) { return x; } int main() { return (int)(f - f); }",
            // Sizes past 2^64 bytes: an array, a field offset, a struct.
            "char g[4611686018427387904][4]; int main(int n) { return 3; }",
            "struct s { char a[9223372036854775807][2]; char b; long c; }; \
             int main() { return 0; }",
            "struct s { char c; long a[2305843009213693951]; }; int main() { return 0; }",
            // Objects past the 256 MiB memory limit: lowering would walk
            // 2^27 pointer slots, an instance would commit 4 GiB of
            // globals, a frame would map 512 MiB.
            "char* g[134217728]; int main(int n) { return 3; }",
            "char g[4294967296]; int main(int n) { return 3; }",
            "int main() { char b[536870912]; b[0] = 1; return b[0]; }",
            // A global segment past it, each object within.
            "char a[209715200]; char b[209715200]; int main() { return 0; }",
        ] {
            let err = Engine::new().compile(src).expect_err(src);
            assert!(matches!(err, SoftBoundError::Compile(_)), "{src}: {err}");
        }
    }

    #[test]
    fn instance_runs_repeatedly_with_identical_results() {
        let src = r#"
            int main(int n) {
                int* p = (int*)malloc(4 * sizeof(int));
                for (int i = 0; i < 4; i++) p[i] = n + i;
                int s = p[0] + p[3];
                free(p);
                return s;
            }
        "#;
        let engine = Engine::new();
        let program = engine.compile(src).expect("compiles");
        let mut inst = engine.instantiate(&program);
        for n in 0..4 {
            let r = inst.run("main", &[n]);
            assert_eq!(r.ret(), Some(2 * n + 3), "{:?}", r.outcome);
        }
        assert_eq!(inst.runs(), 4);
    }

    #[test]
    fn reset_clears_metadata_between_runs() {
        // A program that leaks pointer-bearing heap blocks, leaving live
        // metadata behind on purpose.
        let src = r#"
            int main() {
                long** blocks = (long**)malloc(8 * sizeof(long*));
                for (int i = 0; i < 8; i++) {
                    blocks[i] = (long*)malloc(sizeof(long));
                }
                return blocks[7] != 0;
            }
        "#;
        let engine = Engine::new();
        let program = engine.compile(src).expect("compiles");
        let mut inst = engine.instantiate(&program);
        let r = inst.run("main", &[]);
        assert_eq!(r.ret(), Some(1));
        assert!(r.stats.checks > 0);
        assert!(inst.live_entries() > 0, "leaked metadata expected");
        inst.reset();
        assert_eq!(inst.live_entries(), 0, "reset must clear all metadata");
        assert_eq!(inst.violation_count(), 0);
    }

    #[test]
    fn hardened_instance_clamps_records_and_survives_reuse() {
        let src = r#"
            int main() {
                int* p = (int*)malloc(4 * sizeof(int));
                p[4] = 99;
                int v = p[0];
                free(p);
                return v;
            }
        "#;
        let engine = Engine::new().policy(ViolationPolicy::Hardened);
        let program = engine.compile(src).expect("compiles");
        let mut inst = engine.instantiate(&program);
        assert_eq!(inst.policy(), ViolationPolicy::Hardened);
        for _ in 0..2 {
            let r = inst.run("main", &[]);
            assert_eq!(
                r.ret(),
                Some(0),
                "clamped store is dropped: {:?}",
                r.outcome
            );
            let ev = inst.drain_evidence();
            assert_eq!(ev.len(), 1, "one violation per run after reset");
            assert!(ev[0].write);
            assert_eq!(
                ev[0].fault_addr, ev[0].bound,
                "p + 16 is the first byte past the object"
            );
            assert_eq!(inst.evidence_len(), 0);
            assert_eq!(inst.evidence_overflow(), 0);
        }
        // The same program under Strict traps.
        let strict = Engine::new();
        let sp = strict.compile(src).expect("compiles");
        let r = strict.instantiate(&sp).run("main", &[]);
        assert!(r.outcome.is_spatial_violation(), "{:?}", r.outcome);
    }

    #[test]
    fn program_exposes_pass_stats() {
        // A pointer re-dereferenced without redefinition: the
        // post-instrument pass eliminates the duplicate check, and the
        // Program surfaces the count.
        let src = r#"
            int main() {
                int* p = (int*)malloc(2 * sizeof(int));
                *p = 4;
                int v = *p + *p;
                free(p);
                return v;
            }
        "#;
        let program = Engine::new().compile(src).expect("compiles");
        assert!(
            program.stats().checks_eliminated > 0,
            "expected elimination, got {:?}",
            program.stats()
        );
        assert!(!program.module().funcs.is_empty());
    }
}
