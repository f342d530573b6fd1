//! The pre-decoded execution IR (the "second tier").
//!
//! [`ExecModule::lower`] flattens a verified [`sb_ir::Module`] into one
//! contiguous `Vec` of fixed-size [`Op`]s per function, and decides
//! ahead of the run what the dispatch loop would otherwise decide per
//! instruction:
//!
//! * every operand is a frame slot, so reading one is a single
//!   unconditional `regs[slot]`. Registers keep their indices; each
//!   distinct immediate of the function — a constant, a global address
//!   or a function address — gets its own slot after the registers,
//!   holding the value recorded in [`ExecFunc::consts`], which the
//!   machine appends to the register file of every frame it pushes
//!   (global layout is a pure function of the module, so addresses are
//!   known before any machine exists);
//! * jump targets are pre-resolved to op offsets, and blocks are laid
//!   out in order so the flat program counter simply falls through;
//! * the hottest instructions get an op of their own, whose handler
//!   matches on no operator, width or helper kind: `Add`, `Sub` and
//!   `Mul` at `int` and at 64 bits ([`Op::AddI32`] … [`Op::MulI64`]),
//!   and the three helpers of the pointer-based schemes with fixed
//!   operand fields ([`Op::SbCheck`], [`Op::SbMetaLoad`],
//!   [`Op::SbMetaStore`]) instead of [`Op::Rt`]'s pooled lists. Every
//!   other operator, kind and helper keeps the generic [`Op::Bin`] and
//!   [`Op::Rt`];
//! * two adjacent instructions of one block fuse into a single
//!   superinstruction that pays one dispatch instead of two: a spatial
//!   check and the load or store it guards ([`Op::CheckLoad`],
//!   [`Op::CheckStore`] — the CGuard shape: fold the bounds check into
//!   the guarded access), a compare and the branch on its result
//!   ([`Op::CmpBranch`]), a cast and the `gep` it indexes
//!   ([`Op::CastGep`]), and a move and a jump ([`Op::MovJump`]). Pairs
//!   are taken left to right, so an instruction joins at most one.
//!
//! A fused op runs its two instructions as two ops would: it checks fuel
//! and ticks the instruction count before each, adds each one's cycles
//! in IR order, and ends the op when the first traps. Traps, fuel
//! cut-offs, the `RtCtx::pc` a helper sees and every counter therefore
//! match the tree walk; only the dispatch is paid once.
//!
//! Variable-length operand lists (call arguments, return values,
//! destination registers) live in per-function side pools referenced by
//! [`PoolRef`] ranges, keeping [`Op`] itself `Copy` and 32 bytes.
//!
//! The lowering never changes which runtime helpers run or in what
//! order. The machine dispatches it through
//! [`Machine::run_predecoded`](crate::Machine::run_predecoded), the lane
//! every `softbound::Instance` serves, which must produce byte-identical
//! traps, counters, and cycle accounting to the tree-walk reference
//! [`Machine::run`](crate::Machine::run) — the property
//! `tests/machine_differential.rs` pins for every workload.

use crate::mem::{fn_addr, GLOBAL_BASE};
use sb_cir::hir::Builtin;
use sb_ir::{ArithOp, Callee, CmpOp, Function, Inst, IntKind, MemTy, Module, RegId, RtFn, Value};

/// A range into one of an [`ExecFunc`]'s side pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRef {
    /// First pool index.
    pub start: u32,
    /// Number of entries.
    pub len: u32,
}

impl PoolRef {
    const EMPTY: PoolRef = PoolRef { start: 0, len: 0 };

    /// The pool indices this reference spans.
    #[inline]
    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A pre-resolved call target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecCallee {
    /// Direct call to function index `n`.
    Direct(u32),
    /// Indirect call through the function-pointer value in a slot.
    Indirect(u32),
    /// A VM builtin.
    Builtin(Builtin),
}

/// The slots of a binary op or a compare: `slot[dst] = slot[lhs] ∘
/// slot[rhs]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operands {
    /// Destination register.
    pub dst: u32,
    /// Left operand slot.
    pub lhs: u32,
    /// Right operand slot.
    pub rhs: u32,
}

/// One fixed-size, pre-decoded instruction.
///
/// Mirrors [`sb_ir::Inst`] except that every operand (and `dst`) is a
/// frame-slot index, jump targets are op offsets and variable-length
/// lists are [`PoolRef`]s. The ops named for an operator and a width,
/// or for one runtime helper, run one form of a generic op with nothing
/// left to decide; the fused ops run two adjacent instructions and have
/// no tree-walk counterpart.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `slot[dst] = lhs op rhs`, wrapped to kind `k`: an operator or kind
    /// with no op of its own.
    Bin {
        op: ArithOp,
        k: IntKind,
        o: Operands,
    },
    /// `Add` at `I32`.
    AddI32(Operands),
    /// `Sub` at `I32`.
    SubI32(Operands),
    /// `Mul` at `I32`.
    MulI32(Operands),
    /// `Add` at `I64` or `U64` (wrapping to either is the identity).
    AddI64(Operands),
    /// `Sub` at `I64` or `U64`.
    SubI64(Operands),
    /// `Mul` at `I64` or `U64`.
    MulI64(Operands),
    /// `slot[dst] = (lhs op rhs) ? 1 : 0`, comparing in kind `k`.
    Cmp { op: CmpOp, k: IntKind, o: Operands },
    /// `slot[dst] = wrap_k(src)`.
    Cast { dst: u32, k: IntKind, src: u32 },
    /// `slot[dst] = src`.
    Mov { dst: u32, src: u32 },
    /// Stack slot address — precomputed at frame entry; the op only
    /// keeps the oracle's instruction accounting.
    Alloca { dst: u32 },
    /// `slot[dst] = *(mem)addr`.
    Load { dst: u32, mem: MemTy, addr: u32 },
    /// `*(mem)addr = value`.
    Store { mem: MemTy, addr: u32, value: u32 },
    /// Fused `SbCheck(addr, base, bound, size); slot[dst] = *(mem)addr`
    /// — one dispatch for the check and the load it guards.
    CheckLoad {
        dst: u32,
        mem: MemTy,
        addr: u32,
        base: u32,
        bound: u32,
    },
    /// Fused `SbCheck(addr, base, bound, size); *(mem)addr = value`.
    CheckStore {
        mem: MemTy,
        addr: u32,
        value: u32,
        base: u32,
        bound: u32,
    },
    /// `slot[dst] = base + index*scale + offset`.
    Gep {
        dst: u32,
        base: u32,
        index: u32,
        scale: u64,
        offset: i64,
    },
    /// `SbCheck(ptr, base, bound, size)` guarding no adjacent access.
    SbCheck {
        is_store: bool,
        ptr: u32,
        base: u32,
        bound: u32,
        size: u32,
    },
    /// `slot[base_dst], slot[bound_dst] = SbMetaLoad(addr)`.
    SbMetaLoad {
        addr: u32,
        base_dst: u32,
        bound_dst: u32,
    },
    /// `SbMetaStore(addr, base, bound)`.
    SbMetaStore { addr: u32, base: u32, bound: u32 },
    /// Any other runtime-helper call; `args` indexes the slot pool,
    /// `dsts` the register pool.
    Rt {
        rt: RtFn,
        args: PoolRef,
        dsts: PoolRef,
    },
    /// Call; `args` indexes the slot pool, `dsts` the register pool.
    Call {
        callee: ExecCallee,
        args: PoolRef,
        dsts: PoolRef,
        ptr_hint: bool,
        wrapped: bool,
    },
    /// Return the pooled slots' values.
    Ret { vals: PoolRef },
    /// Unconditional jump to op offset `target`.
    Jump { target: u32 },
    /// Conditional branch to pre-resolved op offsets.
    Branch { cond: u32, then_t: u32, else_t: u32 },
    /// Fused [`Op::Cmp`] and a [`Op::Branch`] on its result, which is
    /// still written to `o.dst`.
    CmpBranch {
        op: CmpOp,
        k: IntKind,
        o: Operands,
        then_t: u32,
        else_t: u32,
    },
    /// Fused `slot[index] = wrap_k(src)` and `slot[dst] = base +
    /// index*scale + offset`. The scale and offset are narrowed to keep
    /// the op at 32 bytes: a `gep` whose do not fit is not fused.
    CastGep {
        k: IntKind,
        src: u32,
        index: u32,
        dst: u32,
        base: u32,
        scale: u32,
        offset: i32,
    },
    /// Fused `slot[dst] = src` and a jump to op offset `target`.
    MovJump { dst: u32, src: u32, target: u32 },
    /// Trips [`Trap::Unreachable`](crate::Trap::Unreachable).
    Unreachable,
}

// Dispatch copies ops out of a dense array: keep them to half a cache
// line.
const _: () = assert!(std::mem::size_of::<Op>() <= 32);

impl Op {
    /// True for the fused check+access ops, the pairs
    /// [`ExecModule::fused_checks`] counts.
    pub fn is_checked_access(&self) -> bool {
        matches!(self, Op::CheckLoad { .. } | Op::CheckStore { .. })
    }

    /// The IR instructions the op runs: two for a fused op, one for any
    /// other.
    pub fn insts(&self) -> usize {
        match self {
            Op::CmpBranch { .. } | Op::CastGep { .. } | Op::MovJump { .. } => 2,
            op if op.is_checked_access() => 2,
            _ => 1,
        }
    }
}

/// One function's flat op stream plus its operand side pools.
#[derive(Debug, Clone, Default)]
pub struct ExecFunc {
    /// The pre-decoded ops, blocks laid out in order (block 0 at
    /// offset 0). Empty for external declarations.
    pub ops: Vec<Op>,
    /// Operand-slot pool for calls / runtime calls / returns.
    pub vals: Vec<u32>,
    /// Destination-register pool for calls / runtime calls.
    pub regs: Vec<RegId>,
    /// The function's distinct immediates: slot `nregs + i` of every
    /// frame holds `consts[i]`, where `nregs` is the function's register
    /// count.
    pub consts: Vec<i64>,
}

/// A module lowered to the pre-decoded execution IR.
///
/// Produced once per program (cached on `softbound::Program`) and shared
/// by reference among any number of machines.
#[derive(Debug, Clone, Default)]
pub struct ExecModule {
    /// One entry per module function, same indexing as `module.funcs`.
    pub funcs: Vec<ExecFunc>,
    /// Check+access pairs fused into superinstructions across the module
    /// (static count, for reporting); the other fused pairs are not
    /// counted.
    pub fused_checks: u64,
}

impl ExecModule {
    /// Lowers a verified module into the flat execution IR.
    pub fn lower(module: &Module) -> ExecModule {
        let (globals, _) = global_layout(module);
        let funcs: Vec<ExecFunc> = module
            .funcs
            .iter()
            .map(|f| lower_func(f, &globals))
            .collect();
        let fused_checks = funcs
            .iter()
            .flat_map(|f| &f.ops)
            .filter(|op| op.is_checked_access())
            .count() as u64;
        ExecModule {
            funcs,
            fused_checks,
        }
    }

    /// Total pre-decoded ops across the module.
    pub fn op_count(&self) -> usize {
        self.funcs.iter().map(|f| f.ops.len()).sum()
    }
}

/// Global addresses as a pure function of the module: the same
/// align-then-advance walk the machine performs when it maps the global
/// segment. Returns the per-global addresses and the end of the segment.
///
/// Shared between `Machine::layout_globals` and [`ExecModule::lower`] so
/// the global addresses decoded into constant slots are the addresses
/// the machine maps — by construction, not by convention.
pub fn global_layout(module: &Module) -> (Vec<u64>, u64) {
    let mut addrs = Vec::with_capacity(module.globals.len());
    let end = global_layout_into(module, &mut addrs);
    (addrs, end)
}

/// [`global_layout`], writing into a caller-owned buffer (cleared first)
/// and returning the end of the segment. `Machine::reset` uses this form
/// so re-laying-out globals never allocates once the buffer has grown.
pub fn global_layout_into(module: &Module, addrs: &mut Vec<u64>) -> u64 {
    addrs.clear();
    let mut next = GLOBAL_BASE;
    for g in &module.globals {
        let align = g.align.max(1);
        next = next.div_ceil(align) * align;
        addrs.push(next);
        next += g.size.max(1);
    }
    next
}

/// The op of its own that `op` gets at kind `k`, if any.
fn own_arith_op(op: ArithOp, k: IntKind) -> Option<fn(Operands) -> Op> {
    use {ArithOp as A, IntKind as K};
    Some(match (op, k) {
        (A::Add, K::I32) => Op::AddI32,
        (A::Sub, K::I32) => Op::SubI32,
        (A::Mul, K::I32) => Op::MulI32,
        (A::Add, K::I64 | K::U64) => Op::AddI64,
        (A::Sub, K::I64 | K::U64) => Op::SubI64,
        (A::Mul, K::I64 | K::U64) => Op::MulI64,
        _ => return None,
    })
}

/// True when check operands `[ptr, base, bound, size]` guard exactly an
/// access of `mem` at `addr`: the shape every pointer-based flavor emits.
fn guards(args: &[Value], addr: &Value, mem: MemTy) -> bool {
    matches!(args, [ptr, _, _, Value::Const(size)] if ptr == addr && *size == mem.size() as i64)
}

/// One function's lowering in progress: operand slots and side pools.
/// Registers keep their indices, and each distinct immediate gets the
/// next slot after the registers.
struct Lowering<'g> {
    globals: &'g [u64],
    nregs: u32,
    consts: Vec<i64>,
    vals: Vec<u32>,
    regs: Vec<RegId>,
}

impl Lowering<'_> {
    fn slot(&mut self, v: &Value) -> u32 {
        let imm = match v {
            Value::Reg(r) => return r.0,
            Value::Const(c) => *c,
            Value::GlobalAddr { id, offset } => (self.globals[id.0 as usize] + offset) as i64,
            Value::FuncAddr(f) => fn_addr(f.0) as i64,
        };
        // A function has a handful of distinct immediates (19 at most
        // across the benchmark kernels): scanning them costs less than
        // hashing each one.
        let i = self
            .consts
            .iter()
            .position(|&c| c == imm)
            .unwrap_or_else(|| {
                self.consts.push(imm);
                self.consts.len() - 1
            });
        self.nregs + i as u32
    }

    fn operands(&mut self, dst: RegId, lhs: &Value, rhs: &Value) -> Operands {
        Operands {
            dst: dst.0,
            lhs: self.slot(lhs),
            rhs: self.slot(rhs),
        }
    }

    fn pool_vals(&mut self, vs: &[Value]) -> PoolRef {
        let start = self.vals.len() as u32;
        for v in vs {
            let s = self.slot(v);
            self.vals.push(s);
        }
        PoolRef {
            start,
            len: vs.len() as u32,
        }
    }

    fn pool_regs(&mut self, rs: &[RegId]) -> PoolRef {
        let start = self.regs.len() as u32;
        self.regs.extend_from_slice(rs);
        PoolRef {
            start,
            len: rs.len() as u32,
        }
    }

    /// The superinstruction for `a` followed by `b`, if the pair fuses.
    /// Jump targets are left as block indices.
    ///
    /// Fusing two instructions of one block is safe because jumps only
    /// ever target block starts: control cannot enter between them.
    fn pair(&mut self, a: &Inst, b: &Inst) -> Option<Op> {
        Some(match (a, b) {
            (
                Inst::Rt {
                    dsts,
                    rt: RtFn::SbCheck { is_store: false },
                    args,
                },
                Inst::Load { dst, mem, addr },
            ) if dsts.is_empty() && guards(args, addr, *mem) => Op::CheckLoad {
                dst: dst.0,
                mem: *mem,
                addr: self.slot(addr),
                base: self.slot(&args[1]),
                bound: self.slot(&args[2]),
            },
            (
                Inst::Rt {
                    dsts,
                    rt: RtFn::SbCheck { is_store: true },
                    args,
                },
                Inst::Store { mem, addr, value },
            ) if dsts.is_empty() && guards(args, addr, *mem) => Op::CheckStore {
                mem: *mem,
                addr: self.slot(addr),
                value: self.slot(value),
                base: self.slot(&args[1]),
                bound: self.slot(&args[2]),
            },
            (
                Inst::Cmp {
                    dst,
                    op,
                    k,
                    lhs,
                    rhs,
                },
                Inst::Br {
                    cond: Value::Reg(cond),
                    then_to,
                    else_to,
                },
            ) if cond == dst => Op::CmpBranch {
                op: *op,
                k: *k,
                o: self.operands(*dst, lhs, rhs),
                then_t: then_to.0,
                else_t: else_to.0,
            },
            (
                Inst::Cast { dst: index, k, src },
                Inst::Gep {
                    dst,
                    base,
                    index: Value::Reg(by),
                    scale,
                    offset,
                    ..
                },
            ) if by == index && u32::try_from(*scale).is_ok() && i32::try_from(*offset).is_ok() => {
                Op::CastGep {
                    k: *k,
                    src: self.slot(src),
                    index: index.0,
                    dst: dst.0,
                    base: self.slot(base),
                    scale: *scale as u32,
                    offset: *offset as i32,
                }
            }
            (Inst::Mov { dst, src }, Inst::Jmp { to }) => Op::MovJump {
                dst: dst.0,
                src: self.slot(src),
                target: to.0,
            },
            _ => return None,
        })
    }

    /// The op for one instruction that fuses with no neighbor. Jump
    /// targets are left as block indices.
    fn inst(&mut self, inst: &Inst) -> Op {
        match inst {
            Inst::Bin {
                dst,
                op,
                k,
                lhs,
                rhs,
            } => {
                let o = self.operands(*dst, lhs, rhs);
                match own_arith_op(*op, *k) {
                    Some(own) => own(o),
                    None => Op::Bin { op: *op, k: *k, o },
                }
            }
            Inst::Cmp {
                dst,
                op,
                k,
                lhs,
                rhs,
            } => Op::Cmp {
                op: *op,
                k: *k,
                o: self.operands(*dst, lhs, rhs),
            },
            Inst::Cast { dst, k, src } => Op::Cast {
                dst: dst.0,
                k: *k,
                src: self.slot(src),
            },
            Inst::Mov { dst, src } => Op::Mov {
                dst: dst.0,
                src: self.slot(src),
            },
            Inst::Alloca { dst, .. } => Op::Alloca { dst: dst.0 },
            Inst::Load { dst, mem, addr } => Op::Load {
                dst: dst.0,
                mem: *mem,
                addr: self.slot(addr),
            },
            Inst::Store { mem, addr, value } => Op::Store {
                mem: *mem,
                addr: self.slot(addr),
                value: self.slot(value),
            },
            Inst::Gep {
                dst,
                base,
                index,
                scale,
                offset,
                ..
            } => Op::Gep {
                dst: dst.0,
                base: self.slot(base),
                index: self.slot(index),
                scale: *scale,
                offset: *offset,
            },
            Inst::Rt { dsts, rt, args } => match (*rt, &args[..], &dsts[..]) {
                (RtFn::SbCheck { is_store }, [ptr, base, bound, size], []) => Op::SbCheck {
                    is_store,
                    ptr: self.slot(ptr),
                    base: self.slot(base),
                    bound: self.slot(bound),
                    size: self.slot(size),
                },
                (RtFn::SbMetaLoad, [addr], [base, bound]) => Op::SbMetaLoad {
                    addr: self.slot(addr),
                    base_dst: base.0,
                    bound_dst: bound.0,
                },
                (RtFn::SbMetaStore, [addr, base, bound], []) => Op::SbMetaStore {
                    addr: self.slot(addr),
                    base: self.slot(base),
                    bound: self.slot(bound),
                },
                _ => Op::Rt {
                    rt: *rt,
                    args: self.pool_vals(args),
                    dsts: self.pool_regs(dsts),
                },
            },
            Inst::Call {
                dsts,
                callee,
                args,
                ptr_hint,
                wrapped,
            } => Op::Call {
                callee: match callee {
                    Callee::Direct(fid) => ExecCallee::Direct(fid.0),
                    Callee::Indirect(v) => ExecCallee::Indirect(self.slot(v)),
                    Callee::Builtin(b) => ExecCallee::Builtin(*b),
                },
                args: self.pool_vals(args),
                dsts: self.pool_regs(dsts),
                ptr_hint: *ptr_hint,
                wrapped: *wrapped,
            },
            Inst::Ret { vals } => Op::Ret {
                vals: if vals.is_empty() {
                    PoolRef::EMPTY
                } else {
                    self.pool_vals(vals)
                },
            },
            Inst::Jmp { to } => Op::Jump { target: to.0 },
            Inst::Br {
                cond,
                then_to,
                else_to,
            } => Op::Branch {
                cond: self.slot(cond),
                then_t: then_to.0,
                else_t: else_to.0,
            },
            Inst::Unreachable => Op::Unreachable,
        }
    }
}

fn lower_func(f: &Function, globals: &[u64]) -> ExecFunc {
    if !f.defined {
        return ExecFunc::default();
    }
    let mut cx = Lowering {
        globals,
        nregs: f.reg_kinds.len() as u32,
        consts: Vec::new(),
        vals: Vec::new(),
        regs: Vec::new(),
    };
    let mut ops = Vec::with_capacity(f.blocks.iter().map(|b| b.insts.len()).sum());
    let mut starts = Vec::with_capacity(f.blocks.len());
    for b in &f.blocks {
        starts.push(ops.len() as u32);
        let mut i = 0;
        while i < b.insts.len() {
            match b
                .insts
                .get(i + 1)
                .and_then(|next| cx.pair(&b.insts[i], next))
            {
                Some(fused) => {
                    ops.push(fused);
                    i += 2;
                }
                None => {
                    ops.push(cx.inst(&b.insts[i]));
                    i += 1;
                }
            }
        }
    }
    // Jumps were emitted with block indices: resolve them to op offsets.
    for op in &mut ops {
        match op {
            Op::Jump { target } | Op::MovJump { target, .. } => {
                *target = starts[*target as usize];
            }
            Op::Branch { then_t, else_t, .. } | Op::CmpBranch { then_t, else_t, .. } => {
                *then_t = starts[*then_t as usize];
                *else_t = starts[*else_t as usize];
            }
            _ => {}
        }
    }
    ExecFunc {
        ops,
        vals: cx.vals,
        regs: cx.regs,
        consts: cx.consts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, Outcome};
    use sb_ir::opt::{eval_bin, eval_cmp};
    use sb_ir::{Block, BlockId, RegKind};
    use {ArithOp as A, IntKind as K};

    fn module_of(src: &str) -> Module {
        let prog = sb_cir::compile(src).expect("compiles");
        let mut m = sb_ir::lower(&prog, "exec-test");
        sb_ir::optimize(&mut m, sb_ir::OptLevel::PreInstrument);
        m
    }

    /// A defined function with `nregs` integer registers, the first
    /// `nparams` of them parameters, and the given blocks.
    fn function(name: &str, nregs: u32, nparams: u32, blocks: Vec<Vec<Inst>>) -> Function {
        Function {
            name: name.into(),
            params: (0..nparams).map(RegId).collect(),
            param_kinds: vec![RegKind::Int; nparams as usize],
            ret_kinds: vec![RegKind::Int],
            reg_kinds: vec![RegKind::Int; nregs as usize],
            blocks: blocks.into_iter().map(|insts| Block { insts }).collect(),
            vararg: false,
            defined: true,
        }
    }

    fn module(funcs: Vec<Function>) -> Module {
        Module {
            name: "exec-test".into(),
            globals: vec![],
            funcs,
        }
    }

    /// The ops of one block of eight registers; jumps may target block 0.
    fn lower_block(insts: Vec<Inst>) -> Vec<Op> {
        let m = module(vec![function("f", 8, 0, vec![insts])]);
        ExecModule::lower(&m).funcs.swap_remove(0).ops
    }

    /// The names of the ops one block lowers to.
    fn shape(insts: Vec<Inst>) -> String {
        let names: Vec<String> = lower_block(insts)
            .iter()
            .map(|op| {
                let s = format!("{op:?}");
                s[..s.find([' ', '(']).unwrap_or(s.len())].to_owned()
            })
            .collect();
        names.join(" ")
    }

    fn reg(i: u32) -> Value {
        Value::Reg(RegId(i))
    }

    fn bin(op: ArithOp, k: IntKind, dst: u32, lhs: Value, rhs: Value) -> Inst {
        Inst::Bin {
            dst: RegId(dst),
            op,
            k,
            lhs,
            rhs,
        }
    }

    fn cmp(op: CmpOp, k: IntKind, dst: u32) -> Inst {
        Inst::Cmp {
            dst: RegId(dst),
            op,
            k,
            lhs: reg(0),
            rhs: reg(1),
        }
    }

    fn br(cond: u32, then_to: u32, else_to: u32) -> Inst {
        Inst::Br {
            cond: reg(cond),
            then_to: BlockId(then_to),
            else_to: BlockId(else_to),
        }
    }

    fn gep(index: u32, scale: u64, offset: i64) -> Inst {
        Inst::Gep {
            dst: RegId(5),
            base: reg(4),
            index: reg(index),
            scale,
            offset,
            field_size: None,
        }
    }

    fn mov(dst: u32, src: u32) -> Inst {
        Inst::Mov {
            dst: RegId(dst),
            src: reg(src),
        }
    }

    fn jmp() -> Inst {
        Inst::Jmp { to: BlockId(0) }
    }

    /// `SbCheck(r1, r2, r3, size)`.
    fn check(is_store: bool, size: i64) -> Inst {
        Inst::Rt {
            dsts: vec![],
            rt: RtFn::SbCheck { is_store },
            args: vec![reg(1), reg(2), reg(3), Value::Const(size)],
        }
    }

    fn load(mem: MemTy, addr: u32) -> Inst {
        Inst::Load {
            dst: RegId(0),
            mem,
            addr: reg(addr),
        }
    }

    fn store(mem: MemTy) -> Inst {
        Inst::Store {
            mem,
            addr: reg(1),
            value: reg(4),
        }
    }

    #[test]
    fn lowering_is_structural() {
        let m = module_of(
            r#"
            int add(int a, int b) { return a + b; }
            int main() {
                int a[4];
                for (int i = 0; i < 4; i++) a[i] = i;
                return add(a[1], a[3]);
            }
        "#,
        );
        let exec = ExecModule::lower(&m);
        assert_eq!(exec.funcs.len(), m.funcs.len());
        // No instrumentation → no check to fuse. Every instruction is run
        // by exactly one op, and the loop's compare-and-branch, cast-and-
        // gep and move-and-jump pairs each take one op.
        assert_eq!(exec.fused_checks, 0);
        let ops = exec.funcs.iter().flat_map(|f| &f.ops);
        assert_eq!(ops.clone().map(Op::insts).sum::<usize>(), m.inst_count());
        assert!(exec.op_count() < m.inst_count(), "some pair fused");
        assert!(ops.clone().any(|op| matches!(op, Op::CmpBranch { .. })));
        assert!(ops.clone().any(|op| matches!(op, Op::CastGep { .. })));
        assert!(ops.clone().any(|op| matches!(op, Op::MovJump { .. })));
    }

    #[test]
    fn jump_targets_resolve_to_block_offsets() {
        let m =
            module_of("int main(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }");
        let exec = ExecModule::lower(&m);
        for (f, ef) in m.funcs.iter().zip(&exec.funcs) {
            if !f.defined {
                continue;
            }
            // The op offset at which each block starts, and its last op:
            // no op runs instructions of two blocks.
            let (mut starts, mut lasts) = (Vec::new(), Vec::new());
            let (mut at, mut run) = (0, 0);
            for b in &f.blocks {
                starts.push(at as u32);
                let end = run + b.insts.len();
                while run < end {
                    run += ef.ops[at].insts();
                    at += 1;
                }
                assert_eq!(run, end, "an op straddles a block boundary");
                lasts.push(at - 1);
            }
            for (b, &last) in f.blocks.iter().zip(&lasts) {
                let to = |t: &BlockId| starts[t.0 as usize];
                match (b.insts.last(), ef.ops[last]) {
                    (
                        Some(Inst::Jmp { to: t }),
                        Op::Jump { target } | Op::MovJump { target, .. },
                    ) => assert_eq!(target, to(t)),
                    (
                        Some(Inst::Br {
                            then_to, else_to, ..
                        }),
                        Op::Branch { then_t, else_t, .. } | Op::CmpBranch { then_t, else_t, .. },
                    ) => assert_eq!((then_t, else_t), (to(then_to), to(else_to))),
                    (Some(Inst::Ret { .. }), Op::Ret { .. }) => {}
                    (inst, op) => panic!("{inst:?} ended as {op:?}"),
                }
            }
        }
    }

    #[test]
    fn global_layout_is_aligned_and_ordered() {
        let m = module_of("int g1; char c; long g2[8]; int main() { return g1; }");
        let (addrs, end) = global_layout(&m);
        assert_eq!(addrs.len(), m.globals.len());
        let mut prev = GLOBAL_BASE;
        for (a, g) in addrs.iter().zip(&m.globals) {
            assert!(*a >= prev, "globals laid out in order");
            assert_eq!(a % g.align.max(1), 0, "aligned");
            prev = *a;
        }
        assert!(end > GLOBAL_BASE);
    }

    #[test]
    fn check_access_pairs_fuse() {
        // Hand-build `f(p) { check(p); *p = 1; check(p); return *p; }`
        // with the exact operand shape the instrumentation pass emits.
        let mut f = Function {
            name: "f".into(),
            params: vec![],
            param_kinds: vec![],
            ret_kinds: vec![RegKind::Int],
            reg_kinds: vec![],
            blocks: vec![Block::default()],
            vararg: false,
            defined: true,
        };
        let p = f.new_reg(RegKind::Ptr);
        f.params.push(p);
        f.param_kinds.push(RegKind::Ptr);
        let v = f.new_reg(RegKind::Int);
        let check = |is_store| Inst::Rt {
            dsts: vec![],
            rt: RtFn::SbCheck { is_store },
            args: vec![
                Value::Reg(p),
                Value::Const(0),
                Value::Const(i64::MAX),
                Value::Const(8),
            ],
        };
        f.blocks[0].insts = vec![
            check(true),
            Inst::Store {
                mem: MemTy::I64,
                addr: Value::Reg(p),
                value: Value::Const(1),
            },
            check(false),
            Inst::Load {
                dst: v,
                mem: MemTy::I64,
                addr: Value::Reg(p),
            },
            Inst::Ret {
                vals: vec![Value::Reg(v)],
            },
        ];
        let m = Module {
            name: "fuse-test".into(),
            globals: vec![],
            funcs: vec![f],
        };
        let exec = ExecModule::lower(&m);
        assert_eq!(exec.fused_checks, 2, "both pairs fuse");
        assert_eq!(exec.funcs[0].ops.len(), 3, "5 insts → 3 ops");
        assert!(matches!(exec.funcs[0].ops[0], Op::CheckStore { .. }));
        assert!(matches!(exec.funcs[0].ops[1], Op::CheckLoad { .. }));
    }

    #[test]
    fn fused_checks_counts_only_check_access_pairs() {
        let m = module(vec![function(
            "f",
            8,
            0,
            vec![vec![
                check(false, 4),
                load(MemTy::I32, 1),
                check(true, 1),
                store(MemTy::U8),
                check(false, 8),
                load(MemTy::I64, 6),
                bin(A::Div, K::I32, 0, reg(1), reg(2)),
                mov(3, 0),
                Inst::Cast {
                    dst: RegId(6),
                    k: K::I64,
                    src: reg(0),
                },
                gep(6, 4, 0),
                cmp(CmpOp::Lt, K::I32, 7),
                br(7, 0, 0),
            ]],
        )]);
        let exec = ExecModule::lower(&m);
        let ops = &exec.funcs[0].ops;
        assert!(
            matches!(
                ops[..],
                [
                    Op::CheckLoad { .. },
                    Op::CheckStore { .. },
                    Op::SbCheck { .. },
                    Op::Load { .. },
                    Op::Bin { .. },
                    Op::Mov { .. },
                    Op::CastGep { .. },
                    Op::CmpBranch { .. },
                ]
            ),
            "{ops:?}"
        );
        // Two check+access pairs; the unfused check, and the three other
        // pairs, are not counted.
        assert_eq!(exec.fused_checks, 2);
    }

    #[test]
    fn hot_instructions_get_ops_of_their_own() {
        let arith = |op, k| shape(vec![bin(op, k, 0, reg(1), reg(2))]);
        assert_eq!(arith(A::Add, K::I32), "AddI32");
        assert_eq!(arith(A::Sub, K::I32), "SubI32");
        assert_eq!(arith(A::Mul, K::I32), "MulI32");
        for k in [K::I64, K::U64] {
            assert_eq!(arith(A::Add, k), "AddI64");
            assert_eq!(arith(A::Sub, k), "SubI64");
            assert_eq!(arith(A::Mul, k), "MulI64");
        }
        // Other kinds and operators stay generic.
        for (op, k) in [
            (A::Add, K::U32),
            (A::Sub, K::I16),
            (A::Mul, K::U8),
            (A::Div, K::I32),
            (A::Rem, K::I64),
            (A::Shl, K::I64),
            (A::And, K::I32),
        ] {
            assert_eq!(arith(op, k), "Bin", "{op:?} {k:?}");
        }
        // The three helpers of the pointer-based schemes, in the shape
        // the instrumentation emits, take fixed operand fields; any other
        // helper or shape keeps the pooled form.
        let rt = |rt, args: Vec<Value>, dsts: Vec<u32>| {
            let dsts = dsts.into_iter().map(RegId).collect();
            format!("{:?}", lower_block(vec![Inst::Rt { dsts, rt, args }])[0])
        };
        let meta_load = rt(RtFn::SbMetaLoad, vec![reg(1)], vec![2, 3]);
        let meta_store = rt(RtFn::SbMetaStore, vec![reg(1), reg(2), reg(3)], vec![]);
        let deref = rt(
            RtFn::DerefCheck { is_store: false },
            vec![reg(1), reg(2)],
            vec![],
        );
        assert_eq!(
            format!("{:?}", lower_block(vec![check(true, 4)])[0]),
            "SbCheck { is_store: true, ptr: 1, base: 2, bound: 3, size: 8 }"
        );
        assert_eq!(
            meta_load,
            "SbMetaLoad { addr: 1, base_dst: 2, bound_dst: 3 }"
        );
        assert_eq!(meta_store, "SbMetaStore { addr: 1, base: 2, bound: 3 }");
        assert!(deref.starts_with("Rt { rt: DerefCheck"), "{deref}");
        for odd in [
            rt(RtFn::SbMetaLoad, vec![reg(1)], vec![2]),
            rt(RtFn::SbMetaStore, vec![reg(1), reg(2)], vec![]),
        ] {
            assert!(odd.starts_with("Rt { rt: SbMeta"), "{odd}");
        }
    }

    #[test]
    fn adjacent_pairs_fuse_only_in_their_exact_shape() {
        let cast = |dst| Inst::Cast {
            dst: RegId(dst),
            k: K::I64,
            src: reg(1),
        };
        let div = || bin(A::Div, K::I32, 0, reg(1), reg(2));
        let lt = || cmp(CmpOp::Lt, K::I32, 3);
        assert_eq!(shape(vec![lt(), br(3, 0, 0)]), "CmpBranch");
        assert_eq!(
            shape(vec![lt(), br(2, 0, 0)]),
            "Cmp Branch",
            "br on another register"
        );
        assert_eq!(shape(vec![cast(6), gep(6, 4, -8)]), "CastGep");
        assert_eq!(
            shape(vec![cast(6), gep(7, 4, 0)]),
            "Cast Gep",
            "another index"
        );
        // The widest scale and offsets that fit the op, and the narrowest
        // that do not.
        let widest = gep(6, u32::MAX as u64, i32::MIN as i64);
        assert_eq!(shape(vec![cast(6), widest]), "CastGep");
        assert_eq!(shape(vec![cast(6), gep(6, 1 << 32, 0)]), "Cast Gep");
        assert_eq!(shape(vec![cast(6), gep(6, 4, 1 << 31)]), "Cast Gep");
        assert_eq!(shape(vec![cast(6), gep(6, 4, -(1 << 31) - 1)]), "Cast Gep");
        assert_eq!(shape(vec![mov(3, 2), jmp()]), "MovJump");
        // A binary op and a move of its result stay two ops.
        assert_eq!(shape(vec![div(), mov(3, 0)]), "Bin Mov");
        let add = bin(A::Add, K::I32, 0, reg(1), reg(2));
        assert_eq!(shape(vec![add, mov(3, 0)]), "AddI32 Mov");
        // A check fuses only with the access it guards exactly.
        let load_at = |addr| load(MemTy::I32, addr);
        assert_eq!(shape(vec![check(false, 4), load_at(2)]), "SbCheck Load");
        assert_eq!(shape(vec![check(false, 8), load_at(1)]), "SbCheck Load");
        assert_eq!(shape(vec![check(true, 4), load_at(1)]), "SbCheck Load");
        assert_eq!(
            shape(vec![check(false, 4), store(MemTy::I32)]),
            "SbCheck Store"
        );
    }

    #[test]
    fn each_distinct_immediate_gets_one_slot_after_the_registers() {
        let m = module_of("long g[2]; int main(int n) { g[1] = n; return n; }");
        let id = m.global_id("g").expect("g is a global");
        let g_addr = global_layout(&m).0[id.0 as usize];
        let mut f = Function {
            name: "f".into(),
            params: vec![],
            param_kinds: vec![],
            ret_kinds: vec![RegKind::Int],
            reg_kinds: vec![],
            blocks: vec![Block::default()],
            vararg: false,
            defined: true,
        };
        let (a, b) = (f.new_reg(RegKind::Int), f.new_reg(RegKind::Int));
        let bin = |dst, lhs, rhs| Inst::Bin {
            dst,
            op: ArithOp::Add,
            k: IntKind::I64,
            lhs,
            rhs,
        };
        let g1 = Value::GlobalAddr { id, offset: 8 };
        f.blocks[0].insts = vec![
            bin(a, Value::Const(5), Value::Const(6)),
            bin(b, Value::Reg(a), Value::Const(5)),
            bin(b, g1, Value::Const(g_addr as i64 + 8)),
            Inst::Ret {
                vals: vec![Value::Reg(b)],
            },
        ];
        let m = Module {
            name: "slots".into(),
            globals: m.globals,
            funcs: vec![f],
        };
        let ef = &ExecModule::lower(&m).funcs[0];
        // Two registers, so the immediates start at slot 2; the second 5
        // and the constant equal to `&g[1]` reuse their slots.
        assert_eq!(ef.consts, [5, 6, g_addr as i64 + 8]);
        let operands: Vec<(u32, u32)> = ef
            .ops
            .iter()
            .filter_map(|op| match *op {
                Op::AddI64(o) => Some((o.lhs, o.rhs)),
                _ => None,
            })
            .collect();
        assert_eq!(operands, [(2, 3), (0, 2), (4, 4)]);
        assert_eq!(ef.vals, [1], "the return reads register b");
    }
    #[test]
    fn own_ops_and_the_fused_compare_match_both_lanes_at_width_edges() {
        const EDGES: [i64; 9] = [
            0,
            1,
            -1,
            i32::MIN as i64,
            i32::MAX as i64,
            u32::MAX as i64,
            i64::MIN,
            i64::MAX,
            1 << 31,
        ];
        let ret = |v| Inst::Ret { vals: vec![v] };
        // `a op b` for every operator and kind with an op of its own.
        let (mut funcs, mut arith, mut compares) = (Vec::new(), Vec::new(), Vec::new());
        for op in [A::Add, A::Sub, A::Mul] {
            for k in [K::I32, K::I64, K::U64] {
                let name = format!("{op:?}_{k:?}");
                let body = vec![bin(op, k, 2, reg(0), reg(1)), ret(reg(2))];
                funcs.push(function(&name, 3, 2, vec![body]));
                arith.push((name, op, k));
            }
        }
        // `c = a op b; br c`: 1 (the written `c`) when taken, `c + 100`
        // otherwise.
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for k in [K::I8, K::U8, K::I16, K::U16, K::I32, K::U32, K::I64, K::U64] {
                let name = format!("{op:?}_{k:?}");
                let blocks = vec![
                    vec![cmp(op, k, 2), br(2, 1, 2)],
                    vec![ret(reg(2))],
                    vec![
                        bin(A::Add, K::I64, 3, reg(2), Value::Const(100)),
                        ret(reg(3)),
                    ],
                ];
                funcs.push(function(&name, 4, 2, blocks));
                compares.push((name, op, k));
            }
        }
        let m = module(funcs);
        let exec = ExecModule::lower(&m);
        for (f, ef) in m.funcs.iter().zip(&exec.funcs) {
            assert!(
                matches!(
                    ef.ops[0],
                    Op::AddI32(_)
                        | Op::SubI32(_)
                        | Op::MulI32(_)
                        | Op::AddI64(_)
                        | Op::SubI64(_)
                        | Op::MulI64(_)
                        | Op::CmpBranch { .. }
                ),
                "{}: {:?}",
                f.name,
                ef.ops[0]
            );
        }
        let mut tree = Machine::uninstrumented(&m);
        let mut fast = Machine::uninstrumented(&m);
        fast.attach_exec(&exec);
        let mut both = |name: &str, a: i64, b: i64| {
            tree.reset();
            fast.reset();
            let (t, p) = (tree.run(name, &[a, b]), fast.run_predecoded(name, &[a, b]));
            assert_eq!(t.outcome, p.outcome, "{name}({a}, {b})");
            assert_eq!(
                (t.stats.cycles, t.stats.insts),
                (p.stats.cycles, p.stats.insts),
                "{name}({a}, {b})"
            );
            p.outcome
        };
        for a in EDGES {
            for b in EDGES {
                for (name, op, k) in &arith {
                    let want = eval_bin(*op, *k, a, b).expect("no division");
                    assert_eq!(both(name, a, b), Outcome::Finished { ret: want });
                }
                for (name, op, k) in &compares {
                    let c = eval_cmp(*op, *k, a, b);
                    let want = if c != 0 { c } else { c + 100 };
                    assert_eq!(both(name, a, b), Outcome::Finished { ret: want });
                }
            }
        }
    }

    #[test]
    fn fused_pairs_write_both_results() {
        // `f(x, d)`: every result register of the three fused pairs feeds
        // the sum it returns, and `d == 0` traps the division between
        // them.
        let add = |dst, lhs| bin(A::Add, K::I64, dst, reg(lhs), reg(dst - 1));
        let blocks = vec![
            vec![
                Inst::Cast {
                    dst: RegId(2),
                    k: K::I32,
                    src: reg(0),
                },
                Inst::Gep {
                    dst: RegId(3),
                    base: reg(0),
                    index: reg(2),
                    scale: 4,
                    offset: -8,
                    field_size: None,
                },
                bin(A::Div, K::I64, 4, reg(3), reg(1)),
                mov(5, 4),
                Inst::Cmp {
                    dst: RegId(6),
                    op: CmpOp::Lt,
                    k: K::I64,
                    lhs: reg(5),
                    rhs: reg(0),
                },
                br(6, 1, 1),
            ],
            vec![mov(7, 6), Inst::Jmp { to: BlockId(2) }],
            vec![
                mov(8, 2),
                add(9, 3),
                add(10, 4),
                add(11, 5),
                add(12, 6),
                add(13, 7),
                Inst::Ret {
                    vals: vec![reg(13)],
                },
            ],
        ];
        let m = module(vec![function("f", 14, 2, blocks)]);
        let exec = ExecModule::lower(&m);
        assert!(
            matches!(
                exec.funcs[0].ops[..5],
                [
                    Op::CastGep { .. },
                    Op::Bin { .. },
                    Op::Mov { .. },
                    Op::CmpBranch { .. },
                    Op::MovJump { .. }
                ]
            ),
            "{:?}",
            exec.funcs[0].ops
        );
        let mut tree = Machine::uninstrumented(&m);
        let mut fast = Machine::uninstrumented(&m);
        fast.attach_exec(&exec);
        for (x, d) in [(5, 3), (-7, 2), (1 << 33, -1), (i64::MAX, 7), (9, 0)] {
            tree.reset();
            fast.reset();
            let (t, p) = (tree.run("f", &[x, d]), fast.run_predecoded("f", &[x, d]));
            assert_eq!(t.outcome, p.outcome, "f({x}, {d})");
            assert_eq!(
                (t.stats.cycles, t.stats.insts),
                (p.stats.cycles, p.stats.insts),
                "f({x}, {d})"
            );
            let index = x as i32 as i64;
            let addr = x.wrapping_add(index.wrapping_mul(4)).wrapping_sub(8);
            let want = if d == 0 {
                // The division is the third instruction.
                assert_eq!(p.stats.insts, 3);
                Outcome::Trapped(crate::Trap::DivByZero)
            } else {
                let q = addr.wrapping_div(d);
                let c = (q < x) as i64;
                Outcome::Finished {
                    ret: [index, addr, q, q, c, c]
                        .into_iter()
                        .fold(0, i64::wrapping_add),
                }
            };
            assert_eq!(p.outcome, want, "f({x}, {d})");
        }
    }
}
