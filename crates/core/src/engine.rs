//! The session-oriented embedding surface: [`Engine`] → [`Program`] →
//! [`Instance`].
//!
//! The original entry points (`protect`, `run_instrumented`) are
//! one-shot: each call re-compiles the source, re-allocates the shadow
//! facility (a 256 MiB directory reservation for the paged shadow
//! space), and rebuilds a `Machine`. That is the wrong shape for the
//! fleet-style traffic the ROADMAP targets, and it is exactly the shape
//! SoftBound's disjoint-metadata design (§5.1) does *not* require:
//! because metadata lives apart from program memory, both reset
//! independently and cheaply between runs.
//!
//! The session API splits the pipeline into three owned artifacts:
//!
//! * [`Engine`] — a reusable builder capturing the
//!   [`SoftBoundConfig`] and [`MachineConfig`]; cheap to clone, one per
//!   deployment configuration.
//! * [`Program`] — a compiled, instrumented, *verified* module plus the
//!   post-instrument [`PassStats`]. Compile once, share among
//!   instances.
//! * [`Instance`] — a persistent monomorphized
//!   [`SoftBoundRuntime`]`<F>` + [`Machine`] that can
//!   [`run`](Instance::run) an entry point repeatedly.
//!   [`reset`](Instance::reset) clears program memory and metadata
//!   between runs while keeping the shadow reservation, frame pool, and
//!   frame plans alive, so back-to-back requests skip the per-machine
//!   setup entirely (the `throughput` bench measures the win).
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

use crate::config::{CheckMode, Facility, Lane, SoftBoundConfig};
use crate::error::SoftBoundError;
use crate::metadata::{HashTableFacility, ShadowHashMapFacility, ShadowPages, SharedShadowPages};
use crate::policy::{EvidenceRecord, ViolationPolicy};
use crate::runtime::SoftBoundRuntime;
use crate::transform::instrument;
use sb_ir::{Module, PassStats};
use sb_vm::{ExecModule, Machine, MachineConfig, RunResult};

/// A reusable SoftBound pipeline configuration: the entry point of the
/// session API.
///
/// An engine owns no per-program state — it is a builder over
/// [`SoftBoundConfig`] (what to instrument, which metadata facility) and
/// [`MachineConfig`] (cost model, cache model, fuel). Build one per
/// deployment configuration, then [`compile`](Engine::compile) programs
/// and [`instantiate`](Engine::instantiate) long-lived machines from it.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    sb: SoftBoundConfig,
    machine: MachineConfig,
    lane: Lane,
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

    /// Replaces the machine configuration (cost model, cache, fuel…).
    pub fn machine_config(mut self, cfg: MachineConfig) -> Self {
        self.machine = cfg;
        self
    }

    /// Selects the execution lane ([`Lane::Predecoded`] by default).
    /// [`Lane::TreeWalk`] forces the tree-walk oracle — differential
    /// testing and debugging.
    pub fn lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }

    /// The execution lane instances built from programs will drive.
    pub fn execution_lane(&self) -> Lane {
        self.lane
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
    /// compile → lower → optimize → instrument → re-optimize → verify.
    ///
    /// # Errors
    ///
    /// [`SoftBoundError::Compile`] for frontend rejections and
    /// [`SoftBoundError::Verify`] when the instrumented module fails
    /// structural verification (a pass bug, reported instead of
    /// panicking so embedders can log and keep serving).
    pub fn compile(&self, src: &str) -> Result<Program, SoftBoundError> {
        let prog = sb_cir::compile(src)?;
        let mut module = sb_ir::lower(&prog, "program");
        sb_ir::optimize(&mut module, sb_ir::OptLevel::PreInstrument);
        let mut module = instrument(&module, &self.sb);
        // Strict keeps the paper pipeline (redundant-check elimination);
        // repair/observe policies retain every check so a clamp applies
        // to exactly the access its own check guards.
        let post = if self.sb.policy == ViolationPolicy::Strict {
            sb_ir::OptLevel::PostInstrument
        } else {
            sb_ir::OptLevel::PostInstrumentAllChecks
        };
        let stats = sb_ir::optimize_with_stats(&mut module, post);
        sb_ir::verify(&module)?;
        // Lower the verified module to the flat execution IR now, so
        // every instance of this program shares one decode.
        let exec = ExecModule::lower(&module);
        Ok(Program {
            module,
            stats,
            exec,
        })
    }

    /// Builds a persistent machine over a compiled program,
    /// monomorphized on the configured facility and driving the
    /// engine's [`Lane`] (pre-decoded by default — the cached
    /// [`ExecModule`] is attached, so instantiation pays no decode).
    pub fn instantiate<'p>(&self, program: &'p Program) -> Instance<'p> {
        let mut instance = self.instantiate_module(program.module());
        if self.lane == Lane::Predecoded {
            match &mut instance.repr {
                Repr::Paged(m) => m.attach_exec(program.exec()),
                Repr::ShadowHashMap(m) => m.attach_exec(program.exec()),
                Repr::HashTable(m) => m.attach_exec(program.exec()),
                Repr::Shared(m) => m.attach_exec(program.exec()),
            }
            instance.lane = Lane::Predecoded;
        }
        instance
    }

    /// Builds a persistent machine over an already instrumented module
    /// (one produced by [`Engine::compile`] on the same configuration,
    /// or by [`instrument`] directly). This is the seam the one-shot
    /// shims ([`run_instrumented`](crate::run_instrumented)) delegate
    /// through.
    ///
    /// A bare module carries no cached [`ExecModule`], so instances
    /// built here always drive the tree-walk lane regardless of the
    /// engine's [`Lane`]; use [`Engine::instantiate`] with a
    /// [`Program`] for the pre-decoded lane.
    pub fn instantiate_module<'m>(&self, module: &'m Module) -> Instance<'m> {
        let repr = match self.sb.facility {
            Facility::ShadowPaged => Repr::Paged(Machine::new(
                module,
                self.machine.clone(),
                SoftBoundRuntime::new_paged(&self.sb),
            )),
            Facility::ShadowHashMap => Repr::ShadowHashMap(Machine::new(
                module,
                self.machine.clone(),
                SoftBoundRuntime::new_shadow_hashmap(&self.sb),
            )),
            Facility::HashTable => Repr::HashTable(Machine::new(
                module,
                self.machine.clone(),
                SoftBoundRuntime::new_hash(&self.sb),
            )),
            Facility::ShadowShared => Repr::Shared(Machine::new(
                module,
                self.machine.clone(),
                SoftBoundRuntime::new_shared(&self.sb),
            )),
        };
        Instance {
            repr,
            runs: 0,
            dirty: false,
            lane: Lane::TreeWalk,
        }
    }

    /// Compile + instantiate + run in one call — the convenience the
    /// old free functions provided, expressed on the session API.
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
/// by [`Engine::compile`]; immutable and shareable among any number of
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

    /// Decomposes into the owned module and the pass statistics (for
    /// callers that hand the module to other tooling, e.g. the linker).
    pub fn into_parts(self) -> (Module, PassStats) {
        (self.module, self.stats)
    }
}

/// The four monomorphized machines an engine can build. One `match`
/// per public call, then fully static dispatch inside — the check path
/// never sees a vtable.
enum Repr<'p> {
    Paged(Machine<'p, SoftBoundRuntime<ShadowPages>>),
    ShadowHashMap(Machine<'p, SoftBoundRuntime<ShadowHashMapFacility>>),
    HashTable(Machine<'p, SoftBoundRuntime<HashTableFacility>>),
    Shared(Machine<'p, SoftBoundRuntime<SharedShadowPages>>),
}

macro_rules! each_machine {
    ($self:expr, $m:ident => $body:expr) => {
        match &$self.repr {
            Repr::Paged($m) => $body,
            Repr::ShadowHashMap($m) => $body,
            Repr::HashTable($m) => $body,
            Repr::Shared($m) => $body,
        }
    };
}

macro_rules! each_machine_mut {
    ($self:expr, $m:ident => $body:expr) => {
        match &mut $self.repr {
            Repr::Paged($m) => $body,
            Repr::ShadowHashMap($m) => $body,
            Repr::HashTable($m) => $body,
            Repr::Shared($m) => $body,
        }
    };
}

/// A persistent execution session: one monomorphized
/// [`SoftBoundRuntime`]`<F>` plus one [`Machine`], reusable across any
/// number of runs.
///
/// [`run`](Instance::run) resets automatically between runs, so N
/// back-to-back runs observe exactly what N fresh machines would —
/// identical traps, outputs, check counts, and final memory (pinned by
/// `tests/instance_reuse.rs`) — while reusing the shadow reservation,
/// the laid-out frame plans, and the interpreter's pooled buffers
/// instead of rebuilding them per request.
pub struct Instance<'p> {
    repr: Repr<'p>,
    runs: u64,
    dirty: bool,
    lane: Lane,
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
        match self.lane {
            Lane::Predecoded => each_machine_mut!(self, m => m.run_predecoded(entry, args)),
            Lane::TreeWalk => each_machine_mut!(self, m => m.run(entry, args)),
        }
    }

    /// The execution lane this instance drives.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Eagerly clears program memory, heap, and all pointer metadata
    /// (`live_entries()` is 0 afterwards) while keeping the shadow
    /// reservation and machine plans alive. [`run`](Instance::run) does
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

    /// Bytes of host memory the metadata facility holds onto between
    /// runs — the per-worker standing cost a fleet pays (256 MiB of
    /// zeroed virtual directory for the paged shadow). The ROADMAP's
    /// shared-reservation follow-on is sized from this number.
    pub fn metadata_reservation_bytes(&self) -> usize {
        each_machine!(self, m => m.hooks().reservation_bytes())
    }

    /// The portion of
    /// [`metadata_reservation_bytes`](Self::metadata_reservation_bytes)
    /// that is process-wide shared state — one copy serves every worker
    /// over the same reservation, so a fleet counts it once per pool.
    /// 0 for the private facilities.
    pub fn metadata_shared_reservation_bytes(&self) -> usize {
        each_machine!(self, m => m.hooks().shared_reservation_bytes())
    }

    /// Bounds checks executed by the runtime since the last reset.
    pub fn check_count(&self) -> u64 {
        each_machine!(self, m => m.hooks().check_count)
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
    /// non-zero value means the drain cadence (or the configured
    /// `evidence_capacity`) is too small for the violation rate.
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
            Repr::Paged(_) => Facility::ShadowPaged,
            Repr::ShadowHashMap(_) => Facility::ShadowHashMap,
            Repr::HashTable(_) => Facility::HashTable,
            Repr::Shared(_) => Facility::ShadowShared,
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
    fn shared_facility_instance_runs_resets_and_reports_split() {
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
        assert_eq!(inst.lane(), Lane::Predecoded);
        for n in 0..3 {
            let r = inst.run("main", &[n]);
            assert_eq!(r.ret(), Some(2 * n + 3), "{:?}", r.outcome);
        }
        inst.reset();
        assert_eq!(inst.live_entries(), 0);
        // The 256 MiB directory shows up in the total but is flagged as
        // process-shared; the private remainder is small.
        let shared = inst.metadata_shared_reservation_bytes();
        assert_eq!(
            shared,
            (1 << 28) + crate::SharedShadowReservation::frame_pool_capacity_bytes()
        );
        assert!(inst.metadata_reservation_bytes() >= shared);
        assert!(inst.metadata_reservation_bytes() - shared < 1 << 24);
        // Private facilities report a zero shared portion.
        let private = Engine::new().instantiate(&program);
        assert_eq!(private.metadata_shared_reservation_bytes(), 0);
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
        assert!(inst.live_entries() > 0, "leaked metadata expected");
        assert!(inst.check_count() > 0);
        inst.reset();
        assert_eq!(inst.live_entries(), 0, "reset must clear all metadata");
        assert_eq!(inst.check_count(), 0);
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
