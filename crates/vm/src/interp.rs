//! The IR interpreter ("the machine").
//!
//! Executes one [`Module`] against simulated memory with an x86-style
//! instruction-count cost model ([`COST_MODEL`]), an optional Core 2 L1
//! cache model, and an installed [`RuntimeHooks`] safety runtime.
//!
//! ## Two lanes, one semantics
//!
//! [`Machine::run`] walks the tree-shaped module one [`Inst`] per
//! `step`: the reference semantics. [`Machine::run_predecoded`]
//! dispatches the same module's flat [`ExecModule`] lowering, and is the
//! lane a `softbound::Instance` serves. Its one dispatch loop
//! (`run_exec`) holds the current frame's op slice, register file and
//! program counter in locals, reads every operand as a plain frame slot,
//! and rebinds the frame only after a call, a return or a `longjmp`.
//! The lowering has fixed each hot op's operator, width and runtime
//! helper, so its arm decides nothing at run time, and it has fused the
//! hottest adjacent pairs (check+access, cmp+br, cast+gep, mov+jmp)
//! into one op each. Fuel and the instruction count tick once per IR
//! instruction — twice for a fused op, before each half — so a budget
//! can run out between a check and its access, or a compare and its
//! branch, in both lanes alike. The two produce identical traps, output,
//! counters, cycles and final memory, which
//! `tests/machine_differential.rs` pins.
//!
//! ## Control-flow realism
//!
//! To make the Wilander & Kamkar attack suite (paper Table 3) genuinely
//! executable, each frame spills two words *into simulated memory* above
//! its locals, like a real calling convention:
//!
//! ```text
//!   frame_base → [allocas, declaration order ...]
//!                [saved frame pointer]  (8 bytes)
//!                [return token]         (8 bytes)
//!   frame_top  →
//! ```
//!
//! On return the machine validates both words. A corrupted return token
//! that decodes to a function address transfers control there — the run
//! ends as [`Outcome::Hijacked`], the attack-succeeded state. Likewise for
//! corrupted saved frame pointers (via a fake frame) and `longjmp`
//! buffers. Uninstrumented runs therefore demonstrate real control-flow
//! hijacks; SoftBound-instrumented runs abort at the out-of-bounds store
//! instead.

use crate::exec::{global_layout_into, ExecCallee, ExecFunc, ExecModule, Op, Operands};
use crate::mem::{decode_fn_addr, fn_addr, Heap, Mem, GLOBAL_BASE, STACK_BASE};
use crate::rt::{
    CacheConfig, CacheSim, ExecStats, NoRuntime, Outcome, RtCtx, RtVals, RuntimeHooks, Trap,
    COST_MODEL,
};
use sb_cir::hir::Builtin;
use sb_cir::MEMORY_LIMIT;
use sb_ir::opt::{eval_bin, eval_cmp};
use sb_ir::{AllocaInfo, Callee, FuncId, Inst, MemTy, Module, RegId, RtFn, Value, CTOR_PREFIX};

/// Machine configuration: only what a caller varies. Every machine
/// charges the same [`COST_MODEL`], captures at most 1 MiB of program
/// output, and traps `OutOfMemory` past 100 000 nested calls or a stack
/// of [`MEMORY_LIMIT`] bytes. The installed runtime decides the heap's
/// redzones ([`RuntimeHooks::REDZONE`]).
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Model the Core 2 L1 data cache ([`CacheConfig::CORE2_L1`]);
    /// `false` = flat memory.
    pub cache: bool,
    /// Dynamic instruction budget (runaway guard).
    pub fuel: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cache: false,
            fuel: 2_000_000_000,
        }
    }
}

/// Captured program output is cut off at this many bytes: a `printf` or
/// `puts` piece that would cross it is dropped whole.
const OUTPUT_LIMIT: usize = 1 << 20;
/// Call depth past which a call traps `OutOfMemory`, as does a call
/// that would grow the stack past [`MEMORY_LIMIT`] bytes.
const MAX_DEPTH: usize = 100_000;

/// The result of one execution.
#[derive(Debug)]
pub struct RunResult {
    /// How it ended.
    pub outcome: Outcome,
    /// Dynamic statistics (instructions, cycles, pointer memory ops…).
    pub stats: ExecStats,
    /// Captured `printf`/`puts` output.
    pub output: String,
}

impl RunResult {
    /// Convenience: the integer return value if the run finished normally.
    pub fn ret(&self) -> Option<i64> {
        match self.outcome {
            Outcome::Finished { ret } => Some(ret),
            _ => None,
        }
    }
}

const RET_TOKEN_BASE: u64 = 0x5245_5400_0000_0000;
const SETJMP_TOKEN_BASE: u64 = 0x534A_0000_0000_0000;
/// The tag bits of a `setjmp` token; the low 48 bits are its id.
const SETJMP_TAG_MASK: u64 = 0xFFFF_0000_0000_0000;
/// Seed of the deterministic `rand()` stream; restored by [`Machine::reset`].
const RNG_SEED: u64 = 0x2545_F491_4F6C_DD1D;

struct FramePlan<'m> {
    /// (dst register, frame offset, alloca info) per entry-block alloca
    allocas: Vec<(RegId, u64, &'m AllocaInfo)>,
    /// Offset of the saved-frame-pointer slot.
    fp_slot: u64,
    /// Offset of the return-token slot.
    token_slot: u64,
    /// Total frame bytes (16-aligned).
    size: u64,
}

struct Frame<'m> {
    func: usize,
    block: u32,
    idx: usize,
    regs: Vec<i64>,
    /// Caller registers receiving the return values — borrowed straight
    /// from the module's `Call` instruction, so pushing a frame never
    /// clones the destination list.
    ret_dsts: &'m [RegId],
    frame_base: u64,
    expected_token: u64,
    allocas: Vec<(u64, &'m AllocaInfo)>,
    varargs: Vec<i64>,
}

impl Frame<'_> {
    fn empty() -> Self {
        Frame {
            func: 0,
            block: 0,
            idx: 0,
            regs: Vec::new(),
            ret_dsts: &[],
            frame_base: 0,
            expected_token: 0,
            allocas: Vec::new(),
            varargs: Vec::new(),
        }
    }
}

/// Where a `longjmp` through one live `setjmp` token resumes.
struct JumpPoint {
    /// The token's id, unique within a run.
    id: u64,
    /// Index in `frames` of the frame that called `setjmp`.
    depth: usize,
    block: u32,
    /// Instruction after the `setjmp` call.
    idx: usize,
    dst: Option<RegId>,
}

enum Flow {
    Continue,
    Finished(i64),
    Exited(i64),
    Hijacked(String),
}

/// The outcome a run that ended in `end` reports.
fn outcome_of(end: Result<Flow, Trap>) -> Outcome {
    match end {
        Ok(Flow::Finished(v)) => Outcome::Finished { ret: v },
        Ok(Flow::Exited(c)) => Outcome::Exited { code: c },
        Ok(Flow::Hijacked(t)) => Outcome::Hijacked { target: t },
        Ok(Flow::Continue) => unreachable!("a run ends only on a terminal flow"),
        Err(t) => Outcome::Trapped(t),
    }
}

/// A context for a machine configured by `cfg`: it carries the L1 model
/// when `cfg.cache` asks for one.
fn fresh_ctx(cfg: &MachineConfig) -> RtCtx {
    RtCtx {
        cache: cfg.cache.then(|| CacheSim::new(CacheConfig::CORE2_L1)),
        ..RtCtx::default()
    }
}

/// Runs a program access at `addr` through the cache model, if any.
#[inline]
fn touch(stats: &mut ExecStats, cache: &mut Option<CacheSim>, addr: u64) {
    if let Some(c) = cache {
        stats.cycles += c.access(addr);
    }
}

/// Calls runtime helper `rt` on `args`, the one way both lanes enter the
/// runtime for an instrumentation call: resets the context, stamps the call-site PC,
/// counts the call by kind, and charges the helper's cost, miss
/// penalties included. A repair order the helper hands back stays in
/// the context until the guarded access takes it. It takes the fields
/// it needs rather than the machine, so the dispatch loop can call it
/// while it holds the current frame, and is forced inline like [`load`].
#[inline(always)]
fn rt_call<H: RuntimeHooks>(
    hooks: &mut H,
    stats: &mut ExecStats,
    ctx: &mut RtCtx,
    rt: RtFn,
    args: &[i64],
) -> Result<RtVals, Trap> {
    ctx.reset();
    ctx.pc = stats.insts;
    stats.rt_calls += 1;
    if rt.is_check() {
        stats.checks += 1;
    } else if rt == RtFn::SbMetaLoad {
        stats.meta_loads += 1;
    } else if rt == RtFn::SbMetaStore {
        stats.meta_stores += 1;
    }
    let res = hooks.rt_call(rt, args, ctx);
    stats.cycles += ctx.cost;
    stats.rt_cycles += ctx.cost;
    res
}

/// A program load of `ty` at `addr`, clamped to the bounds of the repair
/// order a check left in `ctx`, if any, then counted, charged and run
/// through the cache model. Like [`rt_call`], it takes the fields it
/// needs; it is forced inline because the dispatch loop would otherwise
/// call it out of line on every load.
#[inline(always)]
fn load(
    mem: &mut Mem,
    stats: &mut ExecStats,
    ctx: &mut RtCtx,
    addr: u64,
    ty: MemTy,
) -> Result<i64, Trap> {
    let raw = match ctx.repair.take() {
        Some((lo, hi)) => mem.read_uint_clamped(addr, ty.size(), lo, hi)?,
        None => mem.read_uint(addr, ty.size())?,
    };
    stats.loads += 1;
    if ty.is_ptr() {
        stats.ptr_mem_ops += 1;
    }
    stats.cycles += COST_MODEL.load;
    touch(stats, &mut ctx.cache, addr);
    Ok(extend(raw, ty))
}

/// The store counterpart of [`load`].
#[inline(always)]
fn store(
    mem: &mut Mem,
    stats: &mut ExecStats,
    ctx: &mut RtCtx,
    addr: u64,
    ty: MemTy,
    value: i64,
) -> Result<(), Trap> {
    match ctx.repair.take() {
        Some((lo, hi)) => mem.write_uint_clamped(addr, ty.size(), value as u64, lo, hi)?,
        None => mem.write_uint(addr, ty.size(), value as u64)?,
    }
    stats.stores += 1;
    if ty.is_ptr() {
        stats.ptr_mem_ops += 1;
    }
    stats.cycles += COST_MODEL.store;
    touch(stats, &mut ctx.cache, addr);
    Ok(())
}

/// An executing machine bound to a module, statically specialized on its
/// safety runtime `H`.
///
/// The generic parameter keeps the metadata hot path static: every
/// `rt_call` (bounds check, metadata load/store) and lifecycle hook is a
/// direct — typically inlined — call into the concrete runtime. Callers
/// that choose the runtime at run time match on their choice once and
/// build one concrete machine per arm (as `softbound::Engine` does).
pub struct Machine<'m, H: RuntimeHooks> {
    module: &'m Module,
    /// The pre-decoded lowering of `module`, when attached
    /// ([`Machine::attach_exec`]); enables [`Machine::run_predecoded`].
    exec: Option<&'m ExecModule>,
    /// Simulated memory (public for tests and runtimes).
    pub mem: Mem,
    /// The heap allocator.
    pub heap: Heap,
    global_addrs: Vec<u64>,
    plans: Vec<FramePlan<'m>>,
    cfg: MachineConfig,
    hooks: H,
    /// Execution statistics.
    pub stats: ExecStats,
    output: Vec<u8>,
    rng: u64,
    stack_top: u64,
    frames: Vec<Frame<'m>>,
    /// Popped frames kept for reuse: their `regs`/`allocas`/`varargs`
    /// buffers make `Inst::Call` allocation-free in the steady state.
    frame_pool: Vec<Frame<'m>>,
    /// Reusable argument-marshalling buffer for `Inst::Call` (the `Rt`
    /// path uses a fixed stack buffer; calls can be arbitrarily wide, so
    /// they share one growable scratch instead).
    call_args: Vec<i64>,
    /// Jump points of the live frames, ordered by depth and by id. A
    /// frame's entries are dropped when it returns or is unwound, and a
    /// frame calling `setjmp` again at the same site reuses its entry,
    /// so the table is bounded by the live frames' `setjmp` sites.
    setjmps: Vec<JumpPoint>,
    /// Id of the next new jump point: every lower id was issued this run.
    next_setjmp_id: u64,
    /// The context every runtime call runs in. It owns the cache model,
    /// and holds a check's repair order (`RtCtx::repair`) until the next
    /// load/store takes it and clamps itself to those bounds.
    /// Instrumentation places each check immediately before its access
    /// (metadata ops may intervene, but never another access), so the
    /// hand-off is unambiguous in both lanes.
    ctx: RtCtx,
    /// The instruction count at which the fuel runs out: `cfg.fuel` past
    /// the count at the last reset. Fuel and `stats.insts` tick together,
    /// so one counter serves both.
    fuel_end: u64,
    frame_serial: u64,
}

impl<'m> Machine<'m, NoRuntime> {
    /// Creates an uninstrumented machine (no safety runtime).
    pub fn uninstrumented(module: &'m Module) -> Self {
        Machine::new(module, MachineConfig::default(), NoRuntime)
    }
}

impl<'m, H: RuntimeHooks> Machine<'m, H> {
    /// Creates a machine with an installed safety runtime.
    pub fn new(module: &'m Module, cfg: MachineConfig, hooks: H) -> Self {
        let heap = Heap::new(H::REDZONE);
        let fuel_end = cfg.fuel;
        let ctx = fresh_ctx(&cfg);
        let mut m = Machine {
            module,
            exec: None,
            mem: Mem::new(),
            heap,
            global_addrs: Vec::new(),
            plans: Vec::new(),
            cfg,
            hooks,
            stats: ExecStats::default(),
            output: Vec::new(),
            rng: RNG_SEED,
            stack_top: STACK_BASE,
            frames: Vec::new(),
            frame_pool: Vec::new(),
            call_args: Vec::new(),
            setjmps: Vec::new(),
            next_setjmp_id: 0,
            ctx,
            fuel_end,
            frame_serial: 0,
        };
        m.layout_globals();
        m.build_plans();
        m
    }

    /// The installed safety runtime (for reading its counters after a
    /// run, e.g. in differential tests).
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// Restores the machine to its just-constructed state so the next
    /// [`run`](Machine::run) behaves exactly like a run on a fresh
    /// machine: program memory, heap, stack, statistics, output, fuel,
    /// the `rand()` stream, and the installed runtime's state
    /// ([`RuntimeHooks::reset`]) are all cleared, and globals are laid
    /// out (and their lifecycle events fired) again.
    ///
    /// What it deliberately *keeps* is everything derived from the module
    /// alone — frame plans, the recycled frame pool, the call-argument
    /// scratch — plus whatever allocations the runtime's own `reset`
    /// preserves (e.g. the paged shadow facility's directory chunks). That
    /// is the amortization a long-lived `softbound::Instance` exploits
    /// between back-to-back requests.
    pub fn reset(&mut self) {
        // `Mem::reset` (rather than a fresh `Mem`) recycles the page
        // frames of the previous run — and clears the page-translation
        // cache, which would otherwise leak stale (page → frame) pairs
        // into the next run's different layout.
        self.mem.reset();
        self.heap = Heap::new(H::REDZONE);
        self.ctx = fresh_ctx(&self.cfg);
        self.stats = ExecStats::default();
        self.output.clear();
        self.rng = RNG_SEED;
        self.stack_top = STACK_BASE;
        // Trapped runs leave their frames in place (no unwinding); drain
        // them into the pool so their buffers stay reusable.
        while let Some(f) = self.frames.pop() {
            self.frame_pool.push(f);
        }
        self.setjmps.clear();
        self.next_setjmp_id = 0;
        self.fuel_end = self.cfg.fuel;
        self.frame_serial = 0;
        self.global_addrs.clear();
        self.hooks.reset();
        self.layout_globals();
    }

    /// Mutable access to the installed safety runtime.
    pub fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
    }

    fn layout_globals(&mut self) {
        // The walk is shared with `ExecModule::lower`, which folds these
        // addresses into constant slots — the two must agree by
        // construction.
        let end = global_layout_into(self.module, &mut self.global_addrs);
        self.mem.map_range(GLOBAL_BASE, end - GLOBAL_BASE + 1);
        for (i, g) in self.module.globals.iter().enumerate() {
            let base = self.global_addrs[i];
            for (off, init) in &g.init {
                match init {
                    sb_ir::GInit::Bytes(b) => {
                        self.mem
                            .write(base + off, b)
                            .expect("global segment mapped");
                    }
                    sb_ir::GInit::GlobalAddr { id, offset } => {
                        let v = self.global_addrs[id.0 as usize] + offset;
                        self.mem
                            .write_uint(base + off, 8, v)
                            .expect("global segment mapped");
                    }
                    sb_ir::GInit::FuncAddr(fid) => {
                        self.mem
                            .write_uint(base + off, 8, fn_addr(fid.0))
                            .expect("global segment mapped");
                    }
                }
            }
        }
        // Lifecycle events after everything is laid out.
        let module: &'m Module = self.module;
        for (i, g) in module.globals.iter().enumerate() {
            let addr = self.global_addrs[i];
            self.hook(|h, ctx| h.on_global(addr, g.size, ctx));
        }
    }

    /// Runs one lifecycle hook — a global, an alloca, a frame exit, a
    /// heap allocation or free, a builtin's range check or `memcpy`
    /// metadata copy — in a reset context stamped with the current PC,
    /// and charges its cost.
    fn hook<R>(&mut self, call: impl FnOnce(&mut H, &mut RtCtx) -> R) -> R {
        self.ctx.reset();
        self.ctx.pc = self.stats.insts;
        let r = call(&mut self.hooks, &mut self.ctx);
        self.stats.cycles += self.ctx.cost;
        self.stats.rt_cycles += self.ctx.cost;
        r
    }

    fn build_plans(&mut self) {
        let module: &'m Module = self.module;
        for f in &module.funcs {
            let mut allocas = Vec::new();
            let mut off: u64 = 0;
            if f.defined {
                for inst in &f.blocks[0].insts {
                    if let Inst::Alloca { dst, info } = inst {
                        let a = info.align.max(1);
                        off = off.div_ceil(a) * a;
                        allocas.push((*dst, off, info));
                        off += info.size.max(1);
                    }
                }
            }
            let fp_slot = off.div_ceil(8) * 8;
            let token_slot = fp_slot + 8;
            let size = (token_slot + 8).div_ceil(16) * 16;
            self.plans.push(FramePlan {
                allocas,
                fp_slot,
                token_slot,
                size,
            });
        }
    }

    /// Attaches the pre-decoded lowering of this machine's module,
    /// enabling [`run_predecoded`](Machine::run_predecoded). The
    /// lowering must come from [`ExecModule::lower`] on the *same*
    /// module (`softbound::Program` caches one per compilation).
    ///
    /// # Panics
    ///
    /// Panics if `exec` was lowered from a module with a different
    /// function count — a sure sign it belongs to another module.
    pub fn attach_exec(&mut self, exec: &'m ExecModule) {
        assert_eq!(
            exec.funcs.len(),
            self.module.funcs.len(),
            "ExecModule lowered from a different module"
        );
        self.exec = Some(exec);
    }

    /// Runs `entry` (falling back to one scheme prefix, `_<tag>_<entry>`,
    /// for transformed modules) with the given integer arguments, walking
    /// the tree-shaped module: the reference lane the differential suites
    /// hold [`run_predecoded`](Machine::run_predecoded) to.
    ///
    /// Functions whose name starts with `__ctor.` run first, in module
    /// order — the C++-global-constructor convention instrumentation
    /// passes use to seed global metadata (paper §5.2).
    pub fn run(&mut self, entry: &str, args: &[i64]) -> RunResult {
        self.run_lane(entry, args, false)
    }

    /// [`run`](Machine::run), but driving the attached pre-decoded
    /// execution IR through the flat dispatch loop instead of walking
    /// the tree-shaped module. Observables — traps, output, statistics,
    /// cycles, final memory — are identical to the tree-walk lane by
    /// construction (and by `tests/machine_differential.rs`).
    ///
    /// # Panics
    ///
    /// Panics if no [`ExecModule`] is attached
    /// ([`attach_exec`](Machine::attach_exec)).
    pub fn run_predecoded(&mut self, entry: &str, args: &[i64]) -> RunResult {
        assert!(
            self.exec.is_some(),
            "run_predecoded requires attach_exec first"
        );
        self.run_lane(entry, args, true)
    }

    fn run_lane(&mut self, entry: &str, args: &[i64], predecoded: bool) -> RunResult {
        // Transformed modules rename functions with one scheme prefix
        // (`_sb_`, `_fat_`, `_mscc_`, …); fall back to exactly one such
        // renaming, so `_sb_x_main` is not taken for `main`.
        let fid = self.module.func_id(entry).or_else(|| {
            self.module
                .funcs
                .iter()
                .position(|f| {
                    f.defined
                        && f.name
                            .strip_prefix('_')
                            .and_then(|s| s.split_once('_'))
                            .is_some_and(|(_, rest)| rest == entry)
                })
                .map(|i| FuncId(i as u32))
        });
        let Some(fid) = fid else {
            let stats = std::mem::take(&mut self.stats);
            // The fuel left is `fuel_end - insts`; keep it as the count
            // restarts from 0.
            self.fuel_end -= stats.insts;
            return RunResult {
                outcome: Outcome::Trapped(Trap::UndefinedFunction(entry.to_owned())),
                stats,
                output: String::new(),
            };
        };
        // `self.module` is a shared reference; copying it out lets the
        // ctor scan walk the function table while `invoke` borrows the
        // machine mutably — without collecting ids into a Vec (this is
        // the run path's only steady-state host allocation otherwise).
        let module = self.module;
        let mut outcome = None;
        for (i, func) in module.funcs.iter().enumerate() {
            if !(func.defined && func.name.starts_with(CTOR_PREFIX)) {
                continue;
            }
            let ctor = FuncId(i as u32);
            match self.invoke(ctor, &[], predecoded) {
                Outcome::Finished { .. } => {}
                other => {
                    outcome = Some(other);
                    break;
                }
            }
        }
        let outcome = outcome.unwrap_or_else(|| self.invoke(fid, args, predecoded));
        self.stats.cache = self.ctx.cache.as_ref().map(|c| c.stats).unwrap_or_default();
        RunResult {
            outcome,
            stats: self.stats.clone(),
            output: String::from_utf8_lossy(&self.output).into_owned(),
        }
    }

    /// Runs `fid` to completion in the chosen lane.
    fn invoke(&mut self, fid: FuncId, args: &[i64], predecoded: bool) -> Outcome {
        outcome_of(if predecoded {
            self.run_exec(fid, args)
        } else {
            self.run_tree(fid, args)
        })
    }

    /// Pushes a frame for `fid` and steps the tree-shaped module until
    /// the run ends.
    fn run_tree(&mut self, fid: FuncId, args: &[i64]) -> Result<Flow, Trap> {
        self.push_frame(fid, args, &[], &[])?;
        loop {
            match self.step()? {
                Flow::Continue => {}
                end => return Ok(end),
            }
        }
    }

    // ------------------------------------------------------------- frames

    /// Pushes a frame for `fid` whose register file is followed by
    /// `consts` (the pre-decoded lane's immediate slots; empty for the
    /// tree walk).
    fn push_frame(
        &mut self,
        fid: FuncId,
        args: &[i64],
        ret_dsts: &'m [RegId],
        consts: &[i64],
    ) -> Result<(), Trap> {
        let module: &'m Module = self.module;
        let f = &module.funcs[fid.0 as usize];
        if !f.defined {
            return Err(Trap::UndefinedFunction(f.name.clone()));
        }
        let plan = &self.plans[fid.0 as usize];
        let (plan_size, fp_slot, token_slot) = (plan.size, plan.fp_slot, plan.token_slot);
        let n_allocas = plan.allocas.len();
        let frame_base = self.stack_top.div_ceil(16) * 16;
        // Every frame page is mapped below, so the stack is bounded in
        // bytes as well as in depth.
        let stack_end = (frame_base - STACK_BASE).saturating_add(plan_size);
        if self.frames.len() >= MAX_DEPTH || stack_end > MEMORY_LIMIT {
            return Err(Trap::OutOfMemory);
        }
        self.mem.map_range(frame_base, plan_size);
        self.stack_top = frame_base + plan_size;

        self.frame_serial += 1;
        let expected_token = RET_TOKEN_BASE | self.frame_serial;
        self.mem
            .write_uint(frame_base + fp_slot, 8, frame_base)
            .expect("frame mapped");
        self.mem
            .write_uint(frame_base + token_slot, 8, expected_token)
            .expect("frame mapped");

        // Recycle a popped frame's buffers; a fresh frame is only built
        // while the call stack is at its deepest point so far.
        let mut frame = self.frame_pool.pop().unwrap_or_else(Frame::empty);
        frame.func = fid.0 as usize;
        frame.block = 0;
        frame.idx = 0;
        frame.ret_dsts = ret_dsts;
        frame.frame_base = frame_base;
        frame.expected_token = expected_token;
        frame.regs.clear();
        frame.regs.resize(f.reg_kinds.len(), 0);
        frame.regs.extend_from_slice(consts);
        let nparams = f.params.len();
        for (i, &p) in f.params.iter().enumerate() {
            frame.regs[p.0 as usize] = args.get(i).copied().unwrap_or(0);
        }
        frame.varargs.clear();
        frame
            .varargs
            .extend_from_slice(args.get(nparams..).unwrap_or(&[]));

        // Materialize allocas now (the Alloca instructions become cheap
        // moves) and fire lifecycle events.
        frame.allocas.clear();
        for i in 0..n_allocas {
            let (dst, off, info) = self.plans[fid.0 as usize].allocas[i];
            let addr = frame_base + off;
            frame.regs[dst.0 as usize] = addr as i64;
            frame.allocas.push((addr, info));
            self.hook(|h, ctx| h.on_alloca(addr, info, ctx));
        }

        self.stats.calls += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.frames.len() as u64 + 1);
        self.stats.cycles += COST_MODEL.call + COST_MODEL.call_arg * args.len() as u64;
        self.frames.push(frame);
        Ok(())
    }

    /// Validates the spilled return token and saved frame pointer, then
    /// pops the frame. Returns a hijack target if the attacker won.
    fn pop_frame(&mut self, vals: &[i64]) -> Result<Option<Flow>, Trap> {
        let frame = self.frames.last().expect("frame exists");
        let fid = frame.func;
        let plan = &self.plans[fid];
        let token = self.mem.read_uint(frame.frame_base + plan.token_slot, 8)?;
        if token != frame.expected_token {
            if let Some(t) = decode_fn_addr(token) {
                if (t as usize) < self.module.funcs.len() {
                    let name = self.module.funcs[t as usize].name.clone();
                    return Ok(Some(Flow::Hijacked(name)));
                }
            }
            return Err(Trap::CorruptedReturn);
        }
        let fp = self.mem.read_uint(frame.frame_base + plan.fp_slot, 8)?;
        if fp != frame.frame_base {
            // Fake-frame attack: the attacker repoints the saved FP at a
            // crafted frame whose "return token" slot redirects control.
            // The token-slot address must be computed with a *checked*
            // add: a saved FP near `u64::MAX` would wrap to low memory,
            // and whatever happens to be mapped there could misclassify
            // the corruption as a hijack of an unrelated function.
            let Some(fake_token_addr) = fp.checked_add(8) else {
                return Err(Trap::CorruptedFrame);
            };
            if let Ok(fake_ret) = self.mem.read_uint(fake_token_addr, 8) {
                if let Some(t) = decode_fn_addr(fake_ret) {
                    if (t as usize) < self.module.funcs.len() {
                        let name = self.module.funcs[t as usize].name.clone();
                        return Ok(Some(Flow::Hijacked(name)));
                    }
                }
            }
            return Err(Trap::CorruptedFrame);
        }

        let ret_dsts = self.teardown_frame();
        self.stats.cycles += COST_MODEL.ret;
        let Some(caller) = self.frames.last_mut() else {
            return Ok(Some(Flow::Finished(vals.first().copied().unwrap_or(0))));
        };
        for (i, dst) in ret_dsts.iter().enumerate() {
            caller.regs[dst.0 as usize] = vals.get(i).copied().unwrap_or(0);
        }
        Ok(None)
    }

    /// Tears down the top frame, on a return or a `longjmp` unwind: fires
    /// `on_frame_exit` over its allocas, releases its stack, drops its
    /// jump points and pools its buffers. Returns the caller registers
    /// awaiting its return values.
    fn teardown_frame(&mut self) -> &'m [RegId] {
        let frame = self.frames.pop().expect("frame exists");
        self.hook(|h, ctx| h.on_frame_exit(&frame.allocas, ctx));
        self.stack_top = frame.frame_base;
        self.drop_dead_jump_points();
        let ret_dsts = frame.ret_dsts;
        self.frame_pool.push(frame);
        ret_dsts
    }

    /// Drops the jump points of frames that returned or were unwound. A
    /// `longjmp` through one of their tokens then finds no entry and
    /// traps [`Trap::DeadJmpBuf`].
    fn drop_dead_jump_points(&mut self) {
        let live = self.frames.len();
        let keep = self.setjmps.partition_point(|jp| jp.depth < live);
        self.setjmps.truncate(keep);
    }

    // ------------------------------------------------------------ stepping

    fn val(&self, v: &Value) -> i64 {
        match v {
            Value::Reg(r) => self.frames.last().expect("frame").regs[r.0 as usize],
            Value::Const(c) => *c,
            Value::GlobalAddr { id, offset } => (self.global_addrs[id.0 as usize] + offset) as i64,
            Value::FuncAddr(f) => fn_addr(f.0) as i64,
        }
    }

    fn set_reg(&mut self, r: RegId, v: i64) {
        self.frames.last_mut().expect("frame").regs[r.0 as usize] = v;
    }

    fn step(&mut self) -> Result<Flow, Trap> {
        if self.stats.insts == self.fuel_end {
            return Err(Trap::FuelExhausted);
        }
        self.stats.insts += 1;

        let module: &'m Module = self.module;
        let frame = self.frames.last().expect("frame");
        let (fidx, bidx, iidx) = (frame.func, frame.block, frame.idx);
        let inst = &module.funcs[fidx].blocks[bidx as usize].insts[iidx];
        // Default: advance to the next instruction.
        self.frames.last_mut().expect("frame").idx += 1;

        match inst {
            Inst::Bin {
                dst,
                op,
                k,
                lhs,
                rhs,
            } => {
                let a = self.val(lhs);
                let b = self.val(rhs);
                let v = eval_bin(*op, *k, a, b).ok_or(Trap::DivByZero)?;
                self.stats.cycles += match op {
                    sb_ir::ArithOp::Mul => COST_MODEL.mul,
                    sb_ir::ArithOp::Div | sb_ir::ArithOp::Rem => COST_MODEL.div,
                    _ => COST_MODEL.alu,
                };
                self.set_reg(*dst, v);
            }
            Inst::Cmp {
                dst,
                op,
                k,
                lhs,
                rhs,
            } => {
                let a = self.val(lhs);
                let b = self.val(rhs);
                self.stats.cycles += COST_MODEL.cmp;
                self.set_reg(*dst, eval_cmp(*op, *k, a, b));
            }
            Inst::Cast { dst, k, src } => {
                let v = k.wrap(self.val(src));
                self.stats.cycles += COST_MODEL.cast;
                self.set_reg(*dst, v);
            }
            Inst::Mov { dst, src } => {
                let v = self.val(src);
                self.stats.cycles += COST_MODEL.mov;
                self.set_reg(*dst, v);
            }
            Inst::Alloca { dst, .. } => {
                // Address precomputed at frame entry; ensure it is set (it
                // is — push_frame wrote it), cost folded into call.
                let cur = self.frames.last().expect("frame").regs[dst.0 as usize];
                debug_assert_ne!(cur, 0, "alloca address must be precomputed");
            }
            Inst::Load { dst, mem, addr } => {
                let a = self.val(addr) as u64;
                let v = load(&mut self.mem, &mut self.stats, &mut self.ctx, a, *mem)?;
                self.set_reg(*dst, v);
            }
            Inst::Store { mem, addr, value } => {
                let (a, v) = (self.val(addr) as u64, self.val(value));
                store(&mut self.mem, &mut self.stats, &mut self.ctx, a, *mem, v)?;
            }
            Inst::Gep {
                dst,
                base,
                index,
                scale,
                offset,
                ..
            } => {
                let b = self.val(base);
                let i = self.val(index);
                let v = b
                    .wrapping_add(i.wrapping_mul(*scale as i64))
                    .wrapping_add(*offset);
                self.stats.cycles += COST_MODEL.gep;
                self.set_reg(*dst, v);
            }
            Inst::Jmp { to } => {
                self.stats.cycles += COST_MODEL.jmp;
                let f = self.frames.last_mut().expect("frame");
                f.block = to.0;
                f.idx = 0;
            }
            Inst::Br {
                cond,
                then_to,
                else_to,
            } => {
                let c = self.val(cond);
                self.stats.cycles += COST_MODEL.branch;
                let to = if c != 0 { *then_to } else { *else_to };
                let f = self.frames.last_mut().expect("frame");
                f.block = to.0;
                f.idx = 0;
            }
            Inst::Ret { vals } => {
                // At most 3 return values today (value + base + bound in
                // wrapper mode); a fixed buffer keeps returns
                // allocation-free, like the Rt argument buffer. The IR
                // puts no upper bound on ret arity, so wider returns
                // spill through the call-arg scratch (idle outside
                // `Inst::Call`) rather than corrupting the fast path.
                let flow = if vals.len() <= 8 {
                    let mut vbuf = [0i64; 8];
                    for (i, v) in vals.iter().enumerate() {
                        vbuf[i] = self.val(v);
                    }
                    self.pop_frame(&vbuf[..vals.len()])?
                } else {
                    let mut vs = std::mem::take(&mut self.call_args);
                    vs.clear();
                    vs.extend(vals.iter().map(|v| self.val(v)));
                    let popped = self.pop_frame(&vs);
                    self.call_args = vs;
                    popped?
                };
                if let Some(flow) = flow {
                    return Ok(flow);
                }
            }
            Inst::Unreachable => return Err(Trap::Unreachable),
            Inst::Rt { dsts, rt, args } => {
                // Runtime helpers take at most 4 operands (SbCheck); a
                // fixed buffer keeps the check path allocation-free.
                debug_assert!(args.len() <= 8, "rt call with {} args", args.len());
                let mut abuf = [0i64; 8];
                for (i, v) in args.iter().enumerate() {
                    abuf[i] = self.val(v);
                }
                let vals = rt_call(
                    &mut self.hooks,
                    &mut self.stats,
                    &mut self.ctx,
                    *rt,
                    &abuf[..args.len()],
                )?;
                for (i, d) in dsts.iter().enumerate() {
                    self.set_reg(*d, vals[i]);
                }
            }
            Inst::Call {
                dsts,
                callee,
                args,
                ptr_hint,
                wrapped,
            } => {
                // Marshal arguments through the machine's reusable
                // scratch buffer (taken out of `self` for the duration so
                // `&mut self` methods remain callable): no per-call heap
                // allocation once the buffer has grown to the widest call.
                let mut avs = std::mem::take(&mut self.call_args);
                avs.clear();
                avs.extend(args.iter().map(|v| self.val(v)));
                let result = match callee {
                    Callee::Direct(fid) => self
                        .push_frame(*fid, &avs, dsts, &[])
                        .map(|()| Flow::Continue),
                    Callee::Indirect(v) => {
                        let target = self.val(v) as u64;
                        match decode_fn_addr(target) {
                            Some(fi) if (fi as usize) < module.funcs.len() => self
                                .push_frame(FuncId(fi), &avs, dsts, &[])
                                .map(|()| Flow::Continue),
                            _ => Err(Trap::BadIndirectCall { addr: target }),
                        }
                    }
                    Callee::Builtin(b) => self.builtin(*b, dsts, &avs, *ptr_hint, *wrapped),
                };
                self.call_args = avs;
                let flow = result?;
                if !matches!(flow, Flow::Continue) {
                    return Ok(flow);
                }
            }
        }
        Ok(Flow::Continue)
    }

    /// Pushes a frame for `fid` and dispatches the pre-decoded ops until
    /// the run ends: the served lane's one loop, observably identical to
    /// [`step`](Machine::step).
    ///
    /// Each pass of the outer loop binds the current frame — its op
    /// slice, register file and program counter (`frame.idx`;
    /// `frame.block` stays 0) — into locals, and the inner loop
    /// dispatches ops against them. Only a call, a return or a `longjmp`
    /// (a builtin call) changes frames: the pc is written back first and
    /// the outer loop rebinds. Everything else an op touches — stats,
    /// memory, the runtime and its context, the cache model — is a field
    /// disjoint from `frames`, so it stays usable while the frame is
    /// borrowed.
    ///
    /// The lowering has already chosen each op's operator, width and
    /// runtime helper, so an arm runs one form with nothing left to
    /// decide. A fused op runs both of its instructions in the oracle's
    /// exact order: a fuel check and an instruction tick before each, each
    /// one's cycles in turn, and nothing of the second when the first
    /// traps — so fuel can run out between the halves in both lanes alike.
    /// Only the dispatch is paid once.
    fn run_exec(&mut self, fid: FuncId, args: &[i64]) -> Result<Flow, Trap> {
        let exec: &'m ExecModule = self.exec.expect("exec attached");
        let fuel_end = self.fuel_end;
        self.push_frame(fid, args, &[], &exec.funcs[fid.0 as usize].consts)?;
        loop {
            let frame = self.frames.last_mut().expect("frame");
            let func: &'m ExecFunc = &exec.funcs[frame.func];
            let ops = &func.ops[..];
            let regs = &mut frame.regs[..];
            let mut pc = frame.idx;
            // The fuel check and tick before each IR instruction: the
            // dispatch runs it for an op's first, a fused op for its
            // second.
            macro_rules! tick {
                () => {
                    if self.stats.insts == fuel_end {
                        return Err(Trap::FuelExhausted);
                    }
                    self.stats.insts += 1;
                };
            }
            // An arithmetic op of its own: `lhs.$f(rhs)` on the operands
            // truncated to `$t`, then extended back — `eval_bin` at the
            // op's operator and kind.
            macro_rules! arith {
                ($o:expr, $t:ty, $f:ident, $cost:ident) => {{
                    let Operands { dst, lhs, rhs } = $o;
                    regs[dst as usize] =
                        (regs[lhs as usize] as $t).$f(regs[rhs as usize] as $t) as i64;
                    self.stats.cycles += COST_MODEL.$cost;
                }};
            }
            // Runtime helper `$rt` on the values of slots `$args`.
            macro_rules! helper {
                ($rt:expr, [$($arg:expr),*]) => {
                    rt_call(
                        &mut self.hooks,
                        &mut self.stats,
                        &mut self.ctx,
                        $rt,
                        &[$(regs[$arg as usize]),*],
                    )?
                };
            }
            loop {
                tick!();
                let op = ops[pc];
                pc += 1;
                match op {
                    Op::Bin { op, k, o } => {
                        let (a, b) = (regs[o.lhs as usize], regs[o.rhs as usize]);
                        regs[o.dst as usize] = eval_bin(op, k, a, b).ok_or(Trap::DivByZero)?;
                        self.stats.cycles += match op {
                            sb_ir::ArithOp::Mul => COST_MODEL.mul,
                            sb_ir::ArithOp::Div | sb_ir::ArithOp::Rem => COST_MODEL.div,
                            _ => COST_MODEL.alu,
                        };
                    }
                    Op::AddI32(o) => arith!(o, i32, wrapping_add, alu),
                    Op::SubI32(o) => arith!(o, i32, wrapping_sub, alu),
                    Op::MulI32(o) => arith!(o, i32, wrapping_mul, mul),
                    Op::AddI64(o) => arith!(o, i64, wrapping_add, alu),
                    Op::SubI64(o) => arith!(o, i64, wrapping_sub, alu),
                    Op::MulI64(o) => arith!(o, i64, wrapping_mul, mul),
                    Op::Cmp { op, k, o } => {
                        regs[o.dst as usize] =
                            eval_cmp(op, k, regs[o.lhs as usize], regs[o.rhs as usize]);
                        self.stats.cycles += COST_MODEL.cmp;
                    }
                    Op::CmpBranch {
                        op,
                        k,
                        o,
                        then_t,
                        else_t,
                    } => {
                        let c = eval_cmp(op, k, regs[o.lhs as usize], regs[o.rhs as usize]);
                        regs[o.dst as usize] = c;
                        self.stats.cycles += COST_MODEL.cmp;
                        tick!();
                        pc = if c != 0 { then_t } else { else_t } as usize;
                        self.stats.cycles += COST_MODEL.branch;
                    }
                    Op::Cast { dst, k, src } => {
                        regs[dst as usize] = k.wrap(regs[src as usize]);
                        self.stats.cycles += COST_MODEL.cast;
                    }
                    Op::CastGep {
                        k,
                        src,
                        index,
                        dst,
                        base,
                        scale,
                        offset,
                    } => {
                        let i = k.wrap(regs[src as usize]);
                        regs[index as usize] = i;
                        self.stats.cycles += COST_MODEL.cast;
                        tick!();
                        regs[dst as usize] = regs[base as usize]
                            .wrapping_add(i.wrapping_mul(scale as i64))
                            .wrapping_add(offset as i64);
                        self.stats.cycles += COST_MODEL.gep;
                    }
                    Op::Mov { dst, src } => {
                        regs[dst as usize] = regs[src as usize];
                        self.stats.cycles += COST_MODEL.mov;
                    }
                    Op::MovJump { dst, src, target } => {
                        regs[dst as usize] = regs[src as usize];
                        self.stats.cycles += COST_MODEL.mov;
                        tick!();
                        pc = target as usize;
                        self.stats.cycles += COST_MODEL.jmp;
                    }
                    Op::Alloca { dst } => {
                        debug_assert_ne!(
                            regs[dst as usize], 0,
                            "alloca address must be precomputed"
                        );
                    }
                    Op::Load { dst, mem, addr } => {
                        let a = regs[addr as usize] as u64;
                        regs[dst as usize] =
                            load(&mut self.mem, &mut self.stats, &mut self.ctx, a, mem)?;
                    }
                    Op::Store { mem, addr, value } => {
                        let (a, v) = (regs[addr as usize] as u64, regs[value as usize]);
                        store(&mut self.mem, &mut self.stats, &mut self.ctx, a, mem, v)?;
                    }
                    Op::CheckLoad {
                        dst,
                        mem,
                        addr,
                        base,
                        bound,
                    } => {
                        // First half: the check, exactly as a standalone
                        // Rt op (empty dsts — nothing to write back).
                        let p = regs[addr as usize];
                        let avs = [
                            p,
                            regs[base as usize],
                            regs[bound as usize],
                            mem.size() as i64,
                        ];
                        rt_call(
                            &mut self.hooks,
                            &mut self.stats,
                            &mut self.ctx,
                            RtFn::SbCheck { is_store: false },
                            &avs,
                        )?;
                        // Second half: the guarded load, with its own fuel
                        // and instruction tick.
                        tick!();
                        regs[dst as usize] =
                            load(&mut self.mem, &mut self.stats, &mut self.ctx, p as u64, mem)?;
                    }
                    Op::CheckStore {
                        mem,
                        addr,
                        value,
                        base,
                        bound,
                    } => {
                        let (p, v) = (regs[addr as usize], regs[value as usize]);
                        let avs = [
                            p,
                            regs[base as usize],
                            regs[bound as usize],
                            mem.size() as i64,
                        ];
                        rt_call(
                            &mut self.hooks,
                            &mut self.stats,
                            &mut self.ctx,
                            RtFn::SbCheck { is_store: true },
                            &avs,
                        )?;
                        tick!();
                        store(
                            &mut self.mem,
                            &mut self.stats,
                            &mut self.ctx,
                            p as u64,
                            mem,
                            v,
                        )?;
                    }
                    Op::Gep {
                        dst,
                        base,
                        index,
                        scale,
                        offset,
                    } => {
                        regs[dst as usize] = regs[base as usize]
                            .wrapping_add(regs[index as usize].wrapping_mul(scale as i64))
                            .wrapping_add(offset);
                        self.stats.cycles += COST_MODEL.gep;
                    }
                    Op::Jump { target } => {
                        pc = target as usize;
                        self.stats.cycles += COST_MODEL.jmp;
                    }
                    Op::Branch {
                        cond,
                        then_t,
                        else_t,
                    } => {
                        pc = if regs[cond as usize] != 0 {
                            then_t
                        } else {
                            else_t
                        } as usize;
                        self.stats.cycles += COST_MODEL.branch;
                    }
                    Op::Unreachable => return Err(Trap::Unreachable),
                    Op::SbCheck {
                        is_store,
                        ptr,
                        base,
                        bound,
                        size,
                    } => {
                        helper!(RtFn::SbCheck { is_store }, [ptr, base, bound, size]);
                    }
                    Op::SbMetaLoad {
                        addr,
                        base_dst,
                        bound_dst,
                    } => {
                        let [base, bound] = helper!(RtFn::SbMetaLoad, [addr]);
                        regs[base_dst as usize] = base;
                        regs[bound_dst as usize] = bound;
                    }
                    Op::SbMetaStore { addr, base, bound } => {
                        helper!(RtFn::SbMetaStore, [addr, base, bound]);
                    }
                    Op::Rt { rt, args, dsts } => {
                        let srcs = &func.vals[args.range()];
                        debug_assert!(srcs.len() <= 8, "rt call with {} args", srcs.len());
                        let mut abuf = [0i64; 8];
                        for (a, &s) in abuf.iter_mut().zip(srcs) {
                            *a = regs[s as usize];
                        }
                        let vals = rt_call(
                            &mut self.hooks,
                            &mut self.stats,
                            &mut self.ctx,
                            rt,
                            &abuf[..srcs.len()],
                        )?;
                        for (i, d) in func.regs[dsts.range()].iter().enumerate() {
                            regs[d.0 as usize] = vals[i];
                        }
                    }
                    Op::Ret { vals } => {
                        // Return values go through the call-argument
                        // scratch (idle between calls), so a return of any
                        // width allocates nothing once it has grown.
                        let mut out = std::mem::take(&mut self.call_args);
                        out.clear();
                        out.extend(func.vals[vals.range()].iter().map(|&s| regs[s as usize]));
                        let popped = self.pop_frame(&out);
                        self.call_args = out;
                        if let Some(end) = popped? {
                            return Ok(end);
                        }
                        break;
                    }
                    Op::Call {
                        callee,
                        args,
                        dsts,
                        ptr_hint,
                        wrapped,
                    } => {
                        let ret_dsts: &'m [RegId] = &func.regs[dsts.range()];
                        let mut avs = std::mem::take(&mut self.call_args);
                        avs.clear();
                        avs.extend(func.vals[args.range()].iter().map(|&s| regs[s as usize]));
                        let target = match callee {
                            ExecCallee::Indirect(s) => regs[s as usize] as u64,
                            _ => 0,
                        };
                        // Save the pc: the callee returns to it, and a
                        // `setjmp` records it as its resume point.
                        frame.idx = pc;
                        let result = match callee {
                            ExecCallee::Direct(fi) => {
                                let consts = &exec.funcs[fi as usize].consts;
                                self.push_frame(FuncId(fi), &avs, ret_dsts, consts)
                                    .map(|()| Flow::Continue)
                            }
                            ExecCallee::Indirect(_) => match decode_fn_addr(target) {
                                Some(fi) if (fi as usize) < self.module.funcs.len() => {
                                    let consts = &exec.funcs[fi as usize].consts;
                                    self.push_frame(FuncId(fi), &avs, ret_dsts, consts)
                                        .map(|()| Flow::Continue)
                                }
                                _ => Err(Trap::BadIndirectCall { addr: target }),
                            },
                            ExecCallee::Builtin(b) => {
                                self.builtin(b, ret_dsts, &avs, ptr_hint, wrapped)
                            }
                        };
                        self.call_args = avs;
                        match result? {
                            Flow::Continue => break,
                            end => return Ok(end),
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------ builtins

    fn builtin(
        &mut self,
        b: Builtin,
        dsts: &[RegId],
        args: &[i64],
        ptr_hint: bool,
        wrapped: bool,
    ) -> Result<Flow, Trap> {
        let set = |m: &mut Self, i: usize, v: i64| {
            if let Some(&d) = dsts.get(i) {
                m.set_reg(d, v);
            }
        };
        // A wrapped builtin that returns a pointer also returns its bounds.
        let set_bounds = |m: &mut Self, bounds: Option<(u64, u64)>| {
            if let Some((lo, hi)) = bounds {
                set(m, 1, lo as i64);
                set(m, 2, hi as i64);
            }
        };
        let (args, bounds) = wrapped_operands(b, args, wrapped);
        match b {
            Builtin::Malloc | Builtin::Calloc => {
                let size = if b == Builtin::Calloc {
                    (args[0].max(0) as u64).saturating_mul(args[1].max(0) as u64)
                } else {
                    args[0].max(0) as u64
                };
                self.stats.mallocs += 1;
                self.stats.cycles += 30;
                let block = self.heap.alloc(&mut self.mem, size);
                if let Some(p) = block {
                    // Only a block the heap handed out costs in
                    // proportion to its size.
                    self.stats.cycles += size / 64;
                    self.hook(|h, ctx| h.on_malloc(p, size, ctx));
                }
                set(self, 0, block.unwrap_or(0) as i64);
                set_bounds(
                    self,
                    wrapped.then(|| block.map_or((0, 0), |p| (p, p + size))),
                );
            }
            Builtin::Free => {
                let p = args[0] as u64;
                self.stats.frees += 1;
                self.stats.cycles += 15;
                if p != 0 {
                    let size = self.heap.dealloc(p).ok_or(Trap::BadFree { addr: p })?;
                    self.hook(|h, ctx| h.on_free(p, size, ptr_hint, ctx));
                }
            }
            Builtin::Memcpy => {
                let (d, s, n) = (args[0] as u64, args[1] as u64, args[2].max(0) as u64);
                // One check per buffer, at the start (§5.2). A clamping
                // policy truncates the copy to what both buffers can
                // legally provide/receive.
                let es = self.check_range(s, n, false, bounds(1))?;
                let ed = self.check_range(d, n, true, bounds(0))?;
                let eff = es.min(ed);
                self.copy_bytes(d, s, eff)?;
                // The §5.2 type heuristic: metadata moves with the bytes
                // copied unless the buffers cannot hold pointers.
                if wrapped && ptr_hint {
                    self.hook(|h, ctx| h.on_memcpy(d, s, eff, ctx));
                }
                // Charged for the bytes copied: a clamp that let 16
                // bytes through costs 16, not the requested `n`.
                self.stats.cycles += 4 + eff / 8;
                set(self, 0, d as i64);
                set_bounds(self, bounds(0));
            }
            Builtin::Memset => {
                let (d, c, n) = (args[0] as u64, args[1] as u8, args[2].max(0) as u64);
                let eff = self.check_range(d, n, true, bounds(0))?;
                self.fill(d, c, eff)?;
                self.stats.cycles += 4 + eff / 8;
                set(self, 0, d as i64);
                set_bounds(self, bounds(0));
            }
            Builtin::Strcpy | Builtin::Strcat => {
                let (d, s) = (args[0] as u64, args[1] as u64);
                let sv = self.mem.read_cstr(s, 1 << 20)?;
                let dlen = if b == Builtin::Strcat {
                    self.mem.read_cstr(d, 1 << 20)?.len() as u64
                } else {
                    0
                };
                let n = sv.len() as u64 + 1;
                let eff_s = self.check_range(s, n, false, bounds(1))?;
                let eff_d = self.check_range(d + dlen, n, true, bounds(0))?;
                // A clamped source read zero-fills past its bound, so the
                // effective payload ends there; a clamped destination
                // truncates the write (terminator included only if it
                // still fits).
                let payload = &sv[..sv.len().min(eff_s as usize)];
                let w = (payload.len() as u64 + 1).min(eff_d);
                self.mem
                    .write(d + dlen, &payload[..payload.len().min(w as usize)])?;
                if w > payload.len() as u64 {
                    self.mem.write_uint(d + dlen + payload.len() as u64, 1, 0)?;
                }
                self.stats.cycles += 4 + n;
                set(self, 0, d as i64);
                set_bounds(self, bounds(0));
            }
            Builtin::Strncpy => {
                let (d, s, n) = (args[0] as u64, args[1] as u64, args[2].max(0) as u64);
                let sv = self.mem.read_cstr(s, n)?;
                let src_len = (sv.len() as u64 + 1).min(n);
                let eff_d = self.check_range(d, n, true, bounds(0))?;
                let eff_s = self.check_range(s, src_len, false, bounds(1))?;
                // Clamped source: payload ends at the boundary (zero-fill
                // behaves like an early terminator). Clamped destination:
                // the n-byte write is truncated to the in-bounds prefix.
                // The zero padding after the payload is written in place,
                // so the host allocates nothing for a huge `n`.
                let w = n.min(eff_d);
                let payload = &sv[..sv.len().min(eff_s as usize).min(w as usize)];
                self.mem.write(d, payload)?;
                self.fill(d + payload.len() as u64, 0, w - payload.len() as u64)?;
                self.stats.cycles += 4 + w;
                set(self, 0, d as i64);
                set_bounds(self, bounds(0));
            }
            Builtin::Strlen => {
                let s = args[0] as u64;
                let sv = self.mem.read_cstr(s, 1 << 20)?;
                let eff = self.check_range(s, sv.len() as u64 + 1, false, bounds(0))?;
                self.stats.cycles += 2 + sv.len() as u64;
                // A clamped scan stops at the boundary: the zero-fill
                // past the object reads as a terminator.
                set(self, 0, (sv.len() as u64).min(eff) as i64);
            }
            Builtin::Strcmp | Builtin::Strncmp => {
                // A bounded compare reads at most n bytes of each string:
                // the terminator only when a string ends before the limit.
                let n = match b {
                    Builtin::Strncmp => args[2].max(0) as u64,
                    _ => u64::MAX,
                };
                let (pa, pc) = (args[0] as u64, args[1] as u64);
                let a = self.mem.read_cstr(pa, n.min(1 << 20))?;
                let c = self.mem.read_cstr(pc, n.min(1 << 20))?;
                let a_len = (a.len() as u64 + 1).min(n);
                let c_len = (c.len() as u64 + 1).min(n);
                let eff_a = self.check_range(pa, a_len, false, bounds(0))?;
                let eff_c = self.check_range(pc, c_len, false, bounds(1))?;
                // Clamped reads end at the boundary (zero-fill acts as a
                // terminator), so a clamped compare sees the truncation.
                let a = &a[..a.len().min(eff_a as usize)];
                let c = &c[..c.len().min(eff_c as usize)];
                self.stats.cycles += 2 + a.len().min(c.len()) as u64;
                set(
                    self,
                    0,
                    match a.cmp(c) {
                        std::cmp::Ordering::Less => -1,
                        std::cmp::Ordering::Equal => 0,
                        std::cmp::Ordering::Greater => 1,
                    },
                );
            }
            Builtin::Printf => {
                let n = self.printf(args, &bounds)?;
                set(self, 0, n);
            }
            Builtin::Puts => {
                let p = args[0] as u64;
                let s = self.mem.read_cstr(p, 1 << 20)?;
                let eff = self.check_range(p, s.len() as u64 + 1, false, bounds(0))?;
                self.stats.cycles += 2 + s.len() as u64;
                self.emit_out(&s[..s.len().min(eff as usize)]);
                self.emit_out(b"\n");
                set(self, 0, 0);
            }
            Builtin::Putchar => {
                self.emit_out(&[args[0] as u8]);
                self.stats.cycles += 2;
                set(self, 0, args[0]);
            }
            Builtin::Abort => return Err(Trap::Abort),
            Builtin::Exit => return Ok(Flow::Exited(*args.first().unwrap_or(&0))),
            Builtin::Assert => {
                if args[0] == 0 {
                    return Err(Trap::AssertFail);
                }
                self.stats.cycles += 1;
            }
            Builtin::Setjmp => {
                let buf = args[0] as u64;
                let eff = if wrapped {
                    self.check_range(buf, 8, true, bounds(0))?
                } else {
                    8
                };
                let depth = self.frames.len() - 1;
                let frame = self.frames.last().expect("frame");
                // `idx` has already advanced past the call.
                let (block, idx) = (frame.block, frame.idx);
                // The calling frame's entries sit at the end of the table.
                let same_site = self
                    .setjmps
                    .iter()
                    .rev()
                    .take_while(|jp| jp.depth == depth)
                    .find(|jp| jp.block == block && jp.idx == idx)
                    .map(|jp| jp.id);
                let id = same_site.unwrap_or_else(|| {
                    let id = self.next_setjmp_id;
                    self.next_setjmp_id += 1;
                    self.setjmps.push(JumpPoint {
                        id,
                        depth,
                        block,
                        idx,
                        dst: dsts.first().copied(),
                    });
                    id
                });
                let token = SETJMP_TOKEN_BASE | id;
                // A clamped jmp_buf write stores only the in-bounds prefix
                // of the token; a later longjmp through it reports a
                // corrupted buffer instead of jumping wild.
                self.mem
                    .write(buf, &token.to_le_bytes()[..eff.min(8) as usize])?;
                self.stats.cycles += 6;
                set(self, 0, 0);
            }
            Builtin::Longjmp => {
                let buf = args[0] as u64;
                let v = *args.get(1).unwrap_or(&1);
                let token = self.mem.read_uint(buf, 8)?;
                self.stats.cycles += 8;
                if token & SETJMP_TAG_MASK == SETJMP_TOKEN_BASE {
                    let id = token & !SETJMP_TAG_MASK;
                    let Ok(i) = self.setjmps.binary_search_by_key(&id, |jp| jp.id) else {
                        // An id issued this run whose frame is gone is
                        // dead; any other was never issued.
                        return Err(if id < self.next_setjmp_id {
                            Trap::DeadJmpBuf
                        } else {
                            Trap::CorruptedJmpBuf
                        });
                    };
                    // Unwind to the setjmp frame.
                    let jp = &self.setjmps[i];
                    let (depth, block, idx_r, dst) = (jp.depth, jp.block, jp.idx, jp.dst);
                    while self.frames.len() > depth + 1 {
                        self.teardown_frame();
                    }
                    let f = self.frames.last_mut().expect("frame");
                    f.block = block;
                    f.idx = idx_r;
                    if let Some(d) = dst {
                        f.regs[d.0 as usize] = if v == 0 { 1 } else { v };
                    }
                } else if let Some(t) = decode_fn_addr(token) {
                    // Corrupted jmp_buf pointing at attacker code.
                    if (t as usize) < self.module.funcs.len() {
                        return Ok(Flow::Hijacked(self.module.funcs[t as usize].name.clone()));
                    }
                    return Err(Trap::CorruptedJmpBuf);
                } else {
                    return Err(Trap::CorruptedJmpBuf);
                }
            }
            Builtin::Rand => {
                self.rng = self
                    .rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                self.stats.cycles += 4;
                set(self, 0, ((self.rng >> 33) & 0x7fff_ffff) as i64);
            }
            Builtin::Srand => {
                self.rng = (args[0] as u64) ^ 0x9E37_79B9_7F4A_7C15;
                self.stats.cycles += 1;
            }
            Builtin::Setbound => {
                // Identity at runtime; the pointer-based pass compiles the
                // call away into the explicit bounds [p, p+size) (§5.2).
                set(self, 0, args[0]);
                self.stats.cycles += 1;
            }
            Builtin::VaCount => {
                let n = self.frames.last().expect("frame").varargs.len();
                set(self, 0, n as i64);
                self.stats.cycles += 1;
            }
            Builtin::VaArgLong | Builtin::VaArgPtr => {
                let i = args[0];
                let varargs = &self.frames.last().expect("frame").varargs;
                let passed = usize::try_from(i).is_ok_and(|i| i < varargs.len());
                let v = varargs.get(i.max(0) as usize).copied().unwrap_or(0);
                if wrapped {
                    // The wrapper's decode check (§5.2): an index outside
                    // the arguments passed traps under every policy, as
                    // there is no in-bounds vararg slot to clamp to.
                    self.stats.cycles += 2;
                    if !passed {
                        return Err(Trap::SpatialViolation {
                            scheme: "softbound-wrapper",
                            addr: i as u64,
                            write: false,
                        });
                    }
                }
                set(self, 0, v);
                if wrapped && b == Builtin::VaArgPtr {
                    // Pointers decoded from varargs get NULL bounds — the
                    // safe default of §5.2 (any dereference traps).
                    set_bounds(self, Some((0, 0)));
                }
                self.stats.cycles += 2;
            }
        }
        Ok(Flow::Continue)
    }

    /// Asks the installed runtime how many of the `len` bytes at `ptr` a
    /// builtin may touch ([`RuntimeHooks::check_builtin_range`]);
    /// `bounds` are the pointer's when the call is wrapped. A wrapper's
    /// check of its buffer counts and costs like an explicit `SbCheck`,
    /// whether it passes or traps.
    fn check_range(
        &mut self,
        ptr: u64,
        len: u64,
        write: bool,
        bounds: Option<(u64, u64)>,
    ) -> Result<u64, Trap> {
        if bounds.is_some() {
            self.stats.checks += 1;
            self.stats.cycles += 3;
        }
        self.hook(|h, ctx| h.check_builtin_range(ptr, len, write, bounds, ctx))
    }

    /// Copies `n` bytes through a fixed stack chunk: the host allocates
    /// nothing, however long the guest range.
    fn copy_bytes(&mut self, dst: u64, src: u64, n: u64) -> Result<(), Trap> {
        let mut buf = [0u8; 256];
        let mut off = 0;
        while off < n {
            let len = (n - off).min(256) as usize;
            self.mem.read(src + off, &mut buf[..len])?;
            self.mem.write(dst + off, &buf[..len])?;
            off += len as u64;
        }
        Ok(())
    }

    /// Writes `n` copies of `byte` from `dst` through a fixed stack
    /// chunk, like [`copy_bytes`](Self::copy_bytes).
    fn fill(&mut self, dst: u64, byte: u8, n: u64) -> Result<(), Trap> {
        let chunk = [byte; 256];
        let mut off = 0;
        while off < n {
            let len = (n - off).min(256);
            self.mem.write(dst + off, &chunk[..len as usize])?;
            off += len;
        }
        Ok(())
    }

    fn emit_out(&mut self, bytes: &[u8]) {
        if self.output.len() + bytes.len() <= OUTPUT_LIMIT {
            self.output.extend_from_slice(bytes);
        }
    }

    /// Minimal printf: `%d %u %ld %lu %x %c %s %p %%` with optional `-`,
    /// `0` flags and width. Returns the number of bytes the format
    /// produces (saturating), whether or not they fit the output limit.
    /// `bounds(0)` bounds the format and `bounds(1 + k)` the `k`-th
    /// variadic argument. Only a wrapped call consults the runtime on the
    /// format, which may clamp the scan at the boundary; every `%s`
    /// string is checked like `puts`'s.
    fn printf(
        &mut self,
        args: &[i64],
        bounds: &dyn Fn(usize) -> Option<(u64, u64)>,
    ) -> Result<i64, Trap> {
        let fmt_ptr = args[0] as u64;
        let mut fmt = self.mem.read_cstr(fmt_ptr, 1 << 16)?;
        let fmt_bounds = bounds(0);
        if fmt_bounds.is_some() {
            let eff = self.check_range(fmt_ptr, fmt.len() as u64 + 1, false, fmt_bounds)?;
            fmt.truncate(fmt.len().min(eff as usize));
        }
        let varargs = &args[1..];
        let mut ai = 0usize;
        let mut out: Vec<u8> = Vec::with_capacity(fmt.len() + 16);
        // `emit_out` drops output that would cross the limit whole, so
        // once the logical length `len` passes what is left, `out` stops
        // growing: a huge field width costs the host nothing. The
        // conversions still run, so `%s` reads trap as before.
        let budget = OUTPUT_LIMIT.saturating_sub(self.output.len());
        let mut len = 0usize;
        let mut i = 0usize;
        while i < fmt.len() {
            let c = fmt[i];
            if c != b'%' {
                len = len.saturating_add(1);
                if len <= budget {
                    out.push(c);
                }
                i += 1;
                continue;
            }
            i += 1;
            if i >= fmt.len() {
                break;
            }
            // Flags and width.
            let mut left = false;
            let mut zero = false;
            let mut width = 0usize;
            while i < fmt.len() && (fmt[i] == b'-' || fmt[i] == b'0') {
                if fmt[i] == b'-' {
                    left = true;
                } else {
                    zero = true;
                }
                i += 1;
            }
            while i < fmt.len() && fmt[i].is_ascii_digit() {
                width = width
                    .saturating_mul(10)
                    .saturating_add((fmt[i] - b'0') as usize);
                i += 1;
            }
            while i < fmt.len() && fmt[i] == b'l' {
                i += 1;
            }
            if i >= fmt.len() {
                break;
            }
            let conv = fmt[i];
            i += 1;
            let mut next = || {
                let v = varargs.get(ai).copied().unwrap_or(0);
                ai += 1;
                v
            };
            let piece: Vec<u8> = match conv {
                b'%' => vec![b'%'],
                b'd' | b'i' => next().to_string().into_bytes(),
                b'u' => (next() as u64).to_string().into_bytes(),
                b'x' => format!("{:x}", next() as u64).into_bytes(),
                b'p' => format!("{:#x}", next() as u64).into_bytes(),
                b'c' => vec![next() as u8],
                b's' => {
                    let p = next() as u64;
                    let mut s = self.mem.read_cstr(p, 1 << 16)?;
                    let eff = self.check_range(p, s.len() as u64 + 1, false, bounds(ai))?;
                    s.truncate(s.len().min(eff as usize));
                    s
                }
                other => vec![b'%', other],
            };
            let pad = width.saturating_sub(piece.len());
            len = len.saturating_add(pad).saturating_add(piece.len());
            if len <= budget {
                if pad > 0 && !left {
                    let fill = if zero { b'0' } else { b' ' };
                    out.extend(std::iter::repeat_n(fill, pad));
                }
                out.extend_from_slice(&piece);
                if pad > 0 && left {
                    out.extend(std::iter::repeat_n(b' ', pad));
                }
            }
        }
        // Output longer than the whole limit is charged as if it were
        // exactly that long: an uncapped charge (a 25-digit width) would
        // wrap `cycles`.
        self.stats.cycles += 10 + len.min(OUTPUT_LIMIT) as u64;
        if len <= budget {
            self.emit_out(&out);
        }
        Ok(i64::try_from(len).unwrap_or(i64::MAX))
    }
}

/// Splits a builtin call's operands into its C arguments and a reader of
/// the bounds a wrapping pass appended after them (§5.2): one `(base,
/// bound)` pair per pointer parameter, in declaration order, after all
/// arguments (printf's varargs included), then, for printf, one pair per
/// variadic argument, so a wrapped printf's operands come in threes. The
/// reader returns `None` for an unwrapped call.
fn wrapped_operands(
    b: Builtin,
    args: &[i64],
    wrapped: bool,
) -> (&[i64], impl Fn(usize) -> Option<(u64, u64)> + '_) {
    let pairs = match b {
        _ if !wrapped => 0,
        Builtin::Printf => args.len() / 3,
        _ => b.ptr_params(),
    };
    let (args, bounds) = args.split_at(args.len().saturating_sub(2 * pairs));
    let read = |k: usize| {
        let pair = bounds.get(2 * k..2 * k + 2)?;
        Some((pair[0] as u64, pair[1] as u64))
    };
    (args, read)
}

fn extend(raw: u64, mem: MemTy) -> i64 {
    match mem {
        MemTy::I8 => raw as u8 as i8 as i64,
        MemTy::U8 => raw as u8 as i64,
        MemTy::I16 => raw as u16 as i16 as i64,
        MemTy::U16 => raw as u16 as i64,
        MemTy::I32 => raw as u32 as i32 as i64,
        MemTy::U32 => raw as u32 as i64,
        MemTy::I64 | MemTy::Ptr => raw as i64,
    }
}

/// Compiles, lowers, optimizes and runs a CIR-C source uninstrumented:
/// the one-call helper used across tests and examples.
///
/// # Panics
///
/// Panics if the source does not compile (tests pass known-good sources).
pub fn run_source(src: &str, entry: &str, args: &[i64]) -> RunResult {
    let prog = sb_cir::compile(src).expect("source compiles");
    let mut module = sb_ir::lower(&prog, "run");
    sb_ir::optimize(&mut module, sb_ir::OptLevel::PreInstrument);
    sb_ir::verify(&module).expect("module verifies");
    let mut m = Machine::uninstrumented(&module);
    m.run(entry, args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> RunResult {
        run_source(src, "main", &[])
    }

    fn ret(src: &str) -> i64 {
        let r = run(src);
        match r.outcome {
            Outcome::Finished { ret } => ret,
            other => panic!(
                "expected normal finish, got {other:?}; output: {}",
                r.output
            ),
        }
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ret("int main() { return 2 + 3 * 4 - 6 / 2; }"), 11);
        assert_eq!(ret("int main() { int x = -7; return x % 3; }"), -1);
        assert_eq!(
            ret("int main() { unsigned int x = 0 - 1; return x > 100; }"),
            1
        );
    }

    #[test]
    fn int_wrapping() {
        assert_eq!(
            ret("int main() { int x = 2147483647; return x + 1 < 0; }"),
            1
        );
        assert_eq!(ret("int main() { char c = 200; return c < 0; }"), 1);
        assert_eq!(
            ret("int main() { unsigned char c = 200; return c > 0; }"),
            1
        );
    }

    #[test]
    fn loops_and_conditionals() {
        assert_eq!(
            ret("int main() { int s = 0; for (int i = 1; i <= 10; i++) s += i; return s; }"),
            55
        );
        assert_eq!(
            ret("int main() { int n = 0; int i = 100; while (i > 1) { i /= 2; n++; } return n; }"),
            6
        );
        assert_eq!(ret("int main() { return 3 > 2 ? 10 : 20; }"), 10);
    }

    #[test]
    fn pointers_and_arrays() {
        assert_eq!(
            ret(r#"
            int main() {
                int a[5];
                for (int i = 0; i < 5; i++) a[i] = i * i;
                int* p = &a[1];
                return p[2] + *(a + 4); // 9 + 16
            }"#),
            25
        );
    }

    #[test]
    fn structs_and_lists() {
        assert_eq!(
            ret(r#"
            struct node { int v; struct node* next; };
            int main() {
                struct node* head = NULL;
                for (int i = 1; i <= 4; i++) {
                    struct node* n = (struct node*)malloc(sizeof(struct node));
                    n->v = i;
                    n->next = head;
                    head = n;
                }
                int s = 0;
                while (head) { s = s * 10 + head->v; head = head->next; }
                return s; // 4321
            }"#),
            4321
        );
    }

    #[test]
    fn recursion() {
        assert_eq!(
            ret("int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main() { return fib(12); }"),
            144
        );
    }

    #[test]
    fn function_pointers_work() {
        assert_eq!(
            ret(r#"
            int dbl(int x) { return 2 * x; }
            int neg(int x) { return -x; }
            int apply(int (*f)(int), int v) { return f(v); }
            int main() { return apply(dbl, 10) + apply(neg, 3); }
        "#),
            17
        );
    }

    #[test]
    fn global_initializers_visible() {
        assert_eq!(
            ret("int table[4] = {10, 20, 30, 40}; int main() { return table[2]; }"),
            30
        );
        assert_eq!(
            ret("int x = 5; int* px = &x; int main() { return *px; }"),
            5
        );
    }

    #[test]
    fn strings_and_builtins() {
        let r = run(r#"
            int main() {
                char buf[16];
                strcpy(buf, "hello");
                strcat(buf, " vm");
                printf("%s/%d\n", buf, (int)strlen(buf));
                return strcmp(buf, "hello vm") == 0;
            }
        "#);
        assert_eq!(r.ret(), Some(1));
        assert_eq!(r.output, "hello vm/8\n");
    }

    #[test]
    fn printf_formats() {
        let r = run(r#"
            int main() {
                printf("%d %u %x %c %s %% %p", -5, 300, 255, 'A', "ok", (void*)16);
                return 0;
            }
        "#);
        assert_eq!(r.output, "-5 300 ff A ok % 0x10");
    }

    #[test]
    fn printf_width() {
        let r = run(r#"int main() { printf("[%5d][%-4d][%04x]", 42, 7, 11); return 0; }"#);
        assert_eq!(r.output, "[   42][7   ][000b]");
        // Widths past the 1 MiB output limit: the output is dropped whole
        // without being built first (building it would take 3 GB per call
        // at 3e9, and abort at 1e11), and a width past `usize::MAX`
        // saturates. `printf` returns the logical length, which the `int`
        // result truncates; later output still fits.
        for (width, len) in [
            ("3000000000", 3_000_000_000i64),
            ("100000000000", 100_000_000_000),
            ("9999999999999999999999999", i64::MAX),
        ] {
            let r = run(&format!(
                r#"int main() {{ long n = printf("%{width}d", 1); printf("[%3d]", 7); return n; }}"#
            ));
            assert_eq!(r.ret(), Some(len as i32 as i64), "{width}");
            assert_eq!(r.output, "[  7]", "{width}");
        }
    }

    #[test]
    fn heap_roundtrip_and_free() {
        assert_eq!(
            ret(r#"
            int main() {
                int* p = (int*)malloc(10 * sizeof(int));
                for (int i = 0; i < 10; i++) p[i] = i;
                int s = 0;
                for (int i = 0; i < 10; i++) s += p[i];
                free(p);
                return s;
            }"#),
            45
        );
    }

    #[test]
    fn memcpy_memset() {
        assert_eq!(
            ret(r#"
            int main() {
                char a[8]; char b[8];
                memset(a, 7, 8);
                memcpy(b, a, 8);
                return b[0] + b[7];
            }"#),
            14
        );
    }

    #[test]
    fn silent_intra_page_overflow_is_silent() {
        // The raison d'être of SoftBound: an uninstrumented overflow into
        // an adjacent global silently corrupts it.
        assert_eq!(
            ret(r#"
            char buf[8];
            char victim[8];
            int main() {
                for (int i = 0; i < 12; i++) buf[i] = 'X';
                return victim[0] == 'X'; // corrupted neighbour
            }"#),
            1
        );
    }

    #[test]
    fn wild_unmapped_store_faults() {
        let r = run("int main() { *(int*)123456789 = 1; return 0; }");
        assert!(
            matches!(r.outcome, Outcome::Trapped(Trap::MemFault { .. })),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn division_by_zero_traps() {
        let r = run("int main() { int z = 0; return 5 / z; }");
        assert!(matches!(r.outcome, Outcome::Trapped(Trap::DivByZero)));
    }

    #[test]
    fn abort_exit_assert() {
        assert!(matches!(
            run("int main() { abort(); return 0; }").outcome,
            Outcome::Trapped(Trap::Abort)
        ));
        assert!(matches!(
            run("int main() { exit(42); return 0; }").outcome,
            Outcome::Exited { code: 42 }
        ));
        assert!(matches!(
            run("int main() { assert(1 == 2); return 0; }").outcome,
            Outcome::Trapped(Trap::AssertFail)
        ));
    }

    #[test]
    fn setjmp_longjmp_roundtrip() {
        assert_eq!(
            ret(r#"
            long jb[8];
            int depth(int n) {
                if (n == 0) { longjmp(jb, 7); }
                return depth(n - 1);
            }
            int main() {
                int r = setjmp(jb);
                if (r == 0) { depth(5); return -1; }
                return r;
            }"#),
            7
        );
    }

    #[test]
    fn longjmp_dead_frame_traps() {
        let r = run(r#"
            long jb[8];
            int setter() { return setjmp(jb); }
            int main() { setter(); longjmp(jb, 1); return 0; }
        "#);
        assert!(
            matches!(r.outcome, Outcome::Trapped(Trap::DeadJmpBuf)),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn setjmp_table_is_bounded_by_the_live_frames() {
        // Two `setjmp` sites in `main` run 10,000 times each, and so does
        // a helper that calls `setjmp` and returns. Re-entering a site
        // reuses the frame's entry and a returning frame drops its own,
        // so only main's two sites are left when the final `longjmp`
        // through the helper's dead token traps.
        let src = r#"
            long a[8];
            long b[8];
            long c[8];
            int helper() { return setjmp(c); }
            int main() {
                for (int i = 0; i < 10000; i++) {
                    setjmp(a);
                    setjmp(b);
                    helper();
                }
                longjmp(c, 1);
                return 0;
            }
        "#;
        let prog = sb_cir::compile(src).expect("source compiles");
        let mut module = sb_ir::lower(&prog, "run");
        sb_ir::optimize(&mut module, sb_ir::OptLevel::PreInstrument);
        sb_ir::verify(&module).expect("module verifies");
        let mut m = Machine::uninstrumented(&module);
        let r = m.run("main", &[]);
        assert!(
            matches!(r.outcome, Outcome::Trapped(Trap::DeadJmpBuf)),
            "{:?}",
            r.outcome
        );
        assert!(
            m.setjmps.len() <= 2,
            "{} jump points left for 2 live sites",
            m.setjmps.len()
        );
    }

    #[test]
    fn return_token_overflow_hijacks() {
        // Classic stack smash: overflow a local buffer upward into the
        // spilled return token, redirecting control to `evil`.
        let r = run(r#"
            void evil(void) { exit(66); }
            void vulnerable(long target) {
                long buf[2];
                long* p = buf;
                // Overwrite saved fp (buf+2... padding) and the token.
                for (int i = 0; i < 6; i++) p[i] = target;
            }
            int main() {
                vulnerable((long)&evil);
                return 0;
            }
        "#);
        assert!(
            matches!(&r.outcome, Outcome::Hijacked { target } if target == "evil"),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn return_token_garbage_crashes() {
        let r = run(r#"
            void vulnerable(void) {
                long buf[2];
                long* p = buf;
                for (int i = 0; i < 6; i++) p[i] = 0x4141414141414141l;
            }
            int main() { vulnerable(); return 0; }
        "#);
        assert!(
            matches!(r.outcome, Outcome::Trapped(Trap::CorruptedReturn)),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn saved_fp_near_u64_max_is_corruption_not_hijack() {
        // Boundary-value fake-frame probe: the attacker plants a saved FP
        // of `u64::MAX - 7`, whose token-slot address `fp + 8` wraps to
        // address 0. With the old wrapping add, whatever sits in low
        // memory is read as the fake frame's "return token" — mapping a
        // valid code address there made the detector misreport the
        // corruption as a successful hijack of that function. The checked
        // add classifies the wrap itself as frame corruption.
        let src = r#"
            void evil(void) { exit(66); }
            void vulnerable(void) {
                long buf[1];
                buf[1] = -8; // saved-FP slot := u64::MAX - 7; token intact
            }
            int main() { vulnerable(); return 0; }
        "#;
        let prog = sb_cir::compile(src).expect("source compiles");
        let mut module = sb_ir::lower(&prog, "run");
        sb_ir::optimize(&mut module, sb_ir::OptLevel::PreInstrument);
        sb_ir::verify(&module).expect("module verifies");
        let evil = module
            .funcs
            .iter()
            .position(|f| f.name == "evil")
            .expect("evil exists") as u32;
        let mut m = Machine::uninstrumented(&module);
        // Adversarial low memory: the wrapped address holds a valid code
        // pointer, so a wrapping implementation would say Hijacked(evil).
        m.mem.map_range(0, 16);
        m.mem.write_uint(0, 8, fn_addr(evil)).expect("mapped");
        let r = m.run("main", &[]);
        assert!(
            matches!(r.outcome, Outcome::Trapped(Trap::CorruptedFrame)),
            "wrapping saved FP must trap as frame corruption, got {:?}",
            r.outcome
        );
    }

    #[test]
    fn corrupted_fnptr_in_global_hijack_via_exit() {
        // Data-pointer attack: overflow a global buffer into an adjacent
        // function pointer; the program then calls it "legitimately".
        let r = run(r#"
            void evil(void) { exit(66); }
            void good(void) { }
            char buf[8];
            void (*handler)(void) = good;
            int main() {
                long* p = (long*)buf;
                p[1] = (long)&evil; // overflow into handler
                handler();
                return 0;
            }
        "#);
        assert!(
            matches!(r.outcome, Outcome::Exited { code: 66 }),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn vararg_builtins() {
        assert_eq!(
            ret(r#"
            int sum_all(int n, ...) {
                int s = 0;
                for (int i = 0; i < n; i++) s += (int)va_arg_long(i);
                return s;
            }
            int main() { return sum_all(4, 10, 20, 30, 40) + va_helper(); }
            int va_helper() { return 0; }
        "#),
            100
        );
    }

    #[test]
    fn stats_count_pointer_memops() {
        let r = run(r#"
            struct node { int v; struct node* next; };
            int main() {
                struct node* head = NULL;
                for (int i = 0; i < 50; i++) {
                    struct node* n = (struct node*)malloc(sizeof(struct node));
                    n->v = i; n->next = head; head = n;
                }
                int s = 0;
                while (head) { s += head->v; head = head->next; }
                return s;
            }
        "#);
        assert_eq!(r.ret(), Some(1225));
        assert!(
            r.stats.ptr_mem_ops > 0,
            "pointer loads/stores must be counted"
        );
        assert!(
            r.stats.ptr_mem_fraction() > 0.2,
            "list walk is pointer-heavy: {}",
            r.stats.ptr_mem_fraction()
        );
        assert!(r.stats.mallocs == 50);
    }

    #[test]
    fn fuel_guard() {
        let prog = sb_cir::compile("int main() { while (1) { } return 0; }").expect("compiles");
        let module = sb_ir::lower(&prog, "t");
        let cfg = MachineConfig {
            fuel: 10_000,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(&module, cfg, NoRuntime);
        let r = m.run("main", &[]);
        assert!(matches!(r.outcome, Outcome::Trapped(Trap::FuelExhausted)));
    }

    #[test]
    fn runs_between_resets_share_one_fuel_budget() {
        // A run whose entry does not exist hands back the statistics and
        // restarts the count; the fuel left must carry over all the same.
        let src = "int main(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }";
        let module = sb_ir::lower(&sb_cir::compile(src).expect("compiles"), "t");
        let whole = Machine::uninstrumented(&module)
            .run("main", &[10])
            .stats
            .insts;
        let cfg = MachineConfig {
            fuel: 2 * whole - 1,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(&module, cfg, NoRuntime);
        assert_eq!(m.run("main", &[10]).ret(), Some(45));
        assert!(matches!(
            m.run("nope", &[]).outcome,
            Outcome::Trapped(Trap::UndefinedFunction(_))
        ));
        let r = m.run("main", &[10]);
        assert_eq!(r.outcome, Outcome::Trapped(Trap::FuelExhausted));
        assert_eq!(r.stats.insts, whole - 1);
        m.reset();
        assert_eq!(m.run("main", &[10]).ret(), Some(45));
    }

    #[test]
    fn wide_returns_exceed_the_fixed_buffer() {
        // The verifier caps ret arity only by `ret_kinds.len()`; a
        // hand-built function returning more than the 8-slot fast-path
        // buffer must spill correctly instead of indexing out of bounds.
        use sb_ir::{Block, Function, RegKind};
        let mut wide = Function {
            name: "wide".into(),
            params: vec![],
            param_kinds: vec![],
            ret_kinds: vec![RegKind::Int; 10],
            reg_kinds: vec![],
            blocks: vec![Block::default()],
            vararg: false,
            defined: true,
        };
        wide.blocks[0].insts.push(Inst::Ret {
            vals: (0..10).map(|i| Value::Const(i + 1)).collect(),
        });
        let mut main = Function {
            name: "main".into(),
            params: vec![],
            param_kinds: vec![],
            ret_kinds: vec![RegKind::Int],
            reg_kinds: vec![],
            blocks: vec![Block::default()],
            vararg: false,
            defined: true,
        };
        let dsts: Vec<RegId> = (0..10).map(|_| main.new_reg(RegKind::Int)).collect();
        main.blocks[0].insts.push(Inst::Call {
            dsts: dsts.clone(),
            callee: Callee::Direct(FuncId(0)),
            args: vec![],
            ptr_hint: false,
            wrapped: false,
        });
        main.blocks[0].insts.push(Inst::Ret {
            vals: vec![Value::Reg(dsts[9])],
        });
        let module = Module {
            name: "wide_ret".into(),
            globals: vec![],
            funcs: vec![wide, main],
        };
        sb_ir::verify(&module).expect("verifies");
        let mut m = Machine::uninstrumented(&module);
        let r = m.run("main", &[]);
        assert_eq!(r.ret(), Some(10), "{:?}", r.outcome);
    }

    #[test]
    fn reset_restores_fresh_machine_behaviour() {
        // A program touching every resettable piece of state: globals
        // (mutated in place), heap, the rand() stream, output, and — when
        // run with a nonzero argument — a mid-frame trap that leaves
        // frames stacked up.
        let src = r#"
            int counter = 0;
            int main(int crash) {
                counter = counter + 1;
                srand(3);
                int* p = (int*)malloc(8 * sizeof(int));
                for (int i = 0; i < 8; i++) p[i] = rand() % 100;
                if (crash) { *(int*)123456789 = 1; }
                printf("run %d: %d\n", counter, p[3]);
                free(p);
                return counter;
            }
        "#;
        let prog = sb_cir::compile(src).expect("compiles");
        let mut module = sb_ir::lower(&prog, "t");
        sb_ir::optimize(&mut module, sb_ir::OptLevel::PreInstrument);

        let mut fresh = Machine::uninstrumented(&module);
        let want = fresh.run("main", &[0]);
        assert_eq!(want.ret(), Some(1));

        let mut reused = Machine::uninstrumented(&module);
        // First a trapping run that abandons live frames and heap blocks.
        let crash = reused.run("main", &[1]);
        assert!(matches!(
            crash.outcome,
            Outcome::Trapped(Trap::MemFault { .. })
        ));
        reused.reset();
        let got = reused.run("main", &[0]);
        assert_eq!(got.outcome, want.outcome, "outcome diverged after reset");
        assert_eq!(got.output, want.output, "output diverged after reset");
        assert_eq!(got.stats, want.stats, "stats diverged after reset");
        assert_eq!(
            reused.mem.content_hash(),
            fresh.mem.content_hash(),
            "final memory diverged after reset"
        );
    }

    #[test]
    fn rand_is_deterministic() {
        let a = run("int main() { srand(7); return rand() % 1000; }");
        let b = run("int main() { srand(7); return rand() % 1000; }");
        assert_eq!(a.ret(), b.ret());
    }

    #[test]
    fn cache_model_counts() {
        let prog = sb_cir::compile(
            "int a[4096]; int main() { int s = 0; for (int i = 0; i < 4096; i++) s += a[i]; return s>=0; }",
        )
        .expect("compiles");
        let mut module = sb_ir::lower(&prog, "t");
        sb_ir::optimize(&mut module, sb_ir::OptLevel::PreInstrument);
        let cfg = MachineConfig {
            cache: true,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(&module, cfg, NoRuntime);
        let r = m.run("main", &[]);
        assert_eq!(r.ret(), Some(1));
        assert!(r.stats.cache.accesses >= 4096);
        // Sequential scan of 16 KiB: roughly one miss per 64B line.
        let misses = r.stats.cache.misses;
        assert!((200..=400).contains(&misses), "misses={misses}");
    }

    #[test]
    fn multidim_array_sum() {
        assert_eq!(
            ret(r#"
            int g[4][8];
            int main() {
                for (int i = 0; i < 4; i++)
                    for (int j = 0; j < 8; j++)
                        g[i][j] = i * j;
                int s = 0;
                for (int i = 0; i < 4; i++) s += g[i][7];
                return s; // 7*(0+1+2+3)
            }"#),
            42
        );
    }

    #[test]
    fn union_type_punning() {
        assert_eq!(
            ret(r#"
            union conv { long l; char bytes[8]; };
            int main() {
                union conv c;
                c.l = 0x4142;
                return c.bytes[0] == 0x42 && c.bytes[1] == 0x41;
            }"#),
            1
        );
    }

    #[test]
    fn null_free_is_noop_and_bad_free_traps() {
        assert_eq!(ret("int main() { free(NULL); return 1; }"), 1);
        let r = run("int main() { int x; free(&x); return 0; }");
        assert!(
            matches!(r.outcome, Outcome::Trapped(Trap::BadFree { .. })),
            "{:?}",
            r.outcome
        );
    }
}
