//! The pre-decoded execution IR (the "second tier").
//!
//! [`ExecModule::lower`] flattens a verified [`sb_ir::Module`] into one
//! contiguous `Vec` of fixed-size [`Op`]s per function:
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
//! * a spatial check immediately followed by the load/store it guards is
//!   fused into a single [`Op::CheckLoad`] / [`Op::CheckStore`]
//!   superinstruction that pays one dispatch instead of two (the CGuard
//!   shape: fold the bounds check into the guarded access).
//!
//! Variable-length operand lists (call arguments, return values,
//! destination registers) live in per-function side pools referenced by
//! [`PoolRef`] ranges, keeping [`Op`] itself `Copy` and 32 bytes.
//!
//! The lowering is purely structural: it never changes which runtime
//! helpers run or in what order. The machine dispatches it through
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

/// One fixed-size, pre-decoded instruction.
///
/// Mirrors [`sb_ir::Inst`] except that every operand (and `dst`) is a
/// frame-slot index, jump targets are op offsets, variable-length lists
/// are [`PoolRef`]s, and the fused check+access superinstructions have
/// no tree-walk counterpart.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `slot[dst] = lhs op rhs`, wrapped to kind `k`.
    Bin {
        dst: u32,
        op: ArithOp,
        k: IntKind,
        lhs: u32,
        rhs: u32,
    },
    /// `slot[dst] = (lhs op rhs) ? 1 : 0`, comparing in kind `k`.
    Cmp {
        dst: u32,
        op: CmpOp,
        k: IntKind,
        lhs: u32,
        rhs: u32,
    },
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
    /// Fused `rt(addr, base, bound, size); slot[dst] = *(mem)addr` —
    /// one dispatch for the check and the load it guards.
    CheckLoad {
        rt: RtFn,
        dst: u32,
        mem: MemTy,
        addr: u32,
        base: u32,
        bound: u32,
    },
    /// Fused `rt(addr, base, bound, size); *(mem)addr = value`.
    CheckStore {
        rt: RtFn,
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
    /// Runtime-helper call; `args` indexes the slot pool, `dsts` the
    /// register pool.
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
    /// Trips [`Trap::Unreachable`](crate::Trap::Unreachable).
    Unreachable,
}

// Dispatch copies ops out of a dense array: keep them to half a cache
// line.
const _: () = assert!(std::mem::size_of::<Op>() <= 32);

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
    /// (static count, for reporting).
    pub fused_checks: u64,
}

impl ExecModule {
    /// Lowers a verified module into the flat execution IR.
    pub fn lower(module: &Module) -> ExecModule {
        let (globals, _) = global_layout(module);
        let mut fused_checks = 0;
        let funcs = module
            .funcs
            .iter()
            .map(|f| lower_func(f, &globals, &mut fused_checks))
            .collect();
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

/// Assigns operand slots while one function is lowered: registers keep
/// their indices, and each distinct immediate gets the next slot after
/// the registers.
struct Slots<'g> {
    globals: &'g [u64],
    nregs: u32,
    consts: Vec<i64>,
}

impl Slots<'_> {
    fn of(&mut self, v: &Value) -> u32 {
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
}

/// True when the instruction at `i` is a spatial check guarding exactly
/// the access at `i + 1`, so the pair can fuse into one superinstruction.
///
/// The check must be of the 4-operand `[ptr, base, bound, size]` family,
/// produce no results, and its pointer/size operands must textually match
/// the access (the shape every instrumentation flavor emits). Fusion is
/// safe because jumps only ever target block starts: control cannot
/// enter between the check and its access.
fn fusible(insts: &[Inst], i: usize) -> bool {
    let Inst::Rt { dsts, rt, args } = &insts[i] else {
        return false;
    };
    let is_store = match rt {
        RtFn::SbCheck { is_store } | RtFn::MsccCheck { is_store } | RtFn::FatCheck { is_store } => {
            *is_store
        }
        _ => return false,
    };
    if !dsts.is_empty() || args.len() != 4 {
        return false;
    }
    match insts.get(i + 1) {
        Some(Inst::Load { mem, addr, .. }) if !is_store => {
            args[0] == *addr && args[3] == Value::Const(mem.size() as i64)
        }
        Some(Inst::Store { mem, addr, .. }) if is_store => {
            args[0] == *addr && args[3] == Value::Const(mem.size() as i64)
        }
        _ => false,
    }
}

fn lower_func(f: &Function, globals: &[u64], fused_checks: &mut u64) -> ExecFunc {
    if !f.defined {
        return ExecFunc::default();
    }
    // Pass 1: op offset of every block under fusion.
    let mut offsets = Vec::with_capacity(f.blocks.len());
    let mut off: u32 = 0;
    for b in &f.blocks {
        offsets.push(off);
        let mut i = 0;
        while i < b.insts.len() {
            i += if fusible(&b.insts, i) { 2 } else { 1 };
            off += 1;
        }
    }
    // Pass 2: emit with resolved slots and targets.
    let mut ops = Vec::with_capacity(off as usize);
    let mut vals = Vec::new();
    let mut regs = Vec::new();
    let mut slots = Slots {
        globals,
        nregs: f.reg_kinds.len() as u32,
        consts: Vec::new(),
    };
    let pool_vals = |vs: &[Value], vals: &mut Vec<u32>, slots: &mut Slots| -> PoolRef {
        let start = vals.len() as u32;
        vals.extend(vs.iter().map(|v| slots.of(v)));
        PoolRef {
            start,
            len: vs.len() as u32,
        }
    };
    let pool_regs = |rs: &[RegId], regs: &mut Vec<RegId>| -> PoolRef {
        let start = regs.len() as u32;
        regs.extend_from_slice(rs);
        PoolRef {
            start,
            len: rs.len() as u32,
        }
    };
    for b in &f.blocks {
        let mut i = 0;
        while i < b.insts.len() {
            if fusible(&b.insts, i) {
                let Inst::Rt { rt, args, .. } = &b.insts[i] else {
                    unreachable!("fusible matched a non-Rt");
                };
                let base = slots.of(&args[1]);
                let bound = slots.of(&args[2]);
                match &b.insts[i + 1] {
                    Inst::Load { dst, mem, addr } => ops.push(Op::CheckLoad {
                        rt: *rt,
                        dst: dst.0,
                        mem: *mem,
                        addr: slots.of(addr),
                        base,
                        bound,
                    }),
                    Inst::Store { mem, addr, value } => ops.push(Op::CheckStore {
                        rt: *rt,
                        mem: *mem,
                        addr: slots.of(addr),
                        value: slots.of(value),
                        base,
                        bound,
                    }),
                    _ => unreachable!("fusible matched a non-access"),
                }
                *fused_checks += 1;
                i += 2;
                continue;
            }
            let op = match &b.insts[i] {
                Inst::Bin {
                    dst,
                    op,
                    k,
                    lhs,
                    rhs,
                } => Op::Bin {
                    dst: dst.0,
                    op: *op,
                    k: *k,
                    lhs: slots.of(lhs),
                    rhs: slots.of(rhs),
                },
                Inst::Cmp {
                    dst,
                    op,
                    k,
                    lhs,
                    rhs,
                } => Op::Cmp {
                    dst: dst.0,
                    op: *op,
                    k: *k,
                    lhs: slots.of(lhs),
                    rhs: slots.of(rhs),
                },
                Inst::Cast { dst, k, src } => Op::Cast {
                    dst: dst.0,
                    k: *k,
                    src: slots.of(src),
                },
                Inst::Mov { dst, src } => Op::Mov {
                    dst: dst.0,
                    src: slots.of(src),
                },
                Inst::Alloca { dst, .. } => Op::Alloca { dst: dst.0 },
                Inst::Load { dst, mem, addr } => Op::Load {
                    dst: dst.0,
                    mem: *mem,
                    addr: slots.of(addr),
                },
                Inst::Store { mem, addr, value } => Op::Store {
                    mem: *mem,
                    addr: slots.of(addr),
                    value: slots.of(value),
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
                    base: slots.of(base),
                    index: slots.of(index),
                    scale: *scale,
                    offset: *offset,
                },
                Inst::Rt { dsts, rt, args } => Op::Rt {
                    rt: *rt,
                    args: pool_vals(args, &mut vals, &mut slots),
                    dsts: pool_regs(dsts, &mut regs),
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
                        Callee::Indirect(v) => ExecCallee::Indirect(slots.of(v)),
                        Callee::Builtin(b) => ExecCallee::Builtin(*b),
                    },
                    args: pool_vals(args, &mut vals, &mut slots),
                    dsts: pool_regs(dsts, &mut regs),
                    ptr_hint: *ptr_hint,
                    wrapped: *wrapped,
                },
                Inst::Ret { vals: vs } => Op::Ret {
                    vals: if vs.is_empty() {
                        PoolRef::EMPTY
                    } else {
                        pool_vals(vs, &mut vals, &mut slots)
                    },
                },
                Inst::Jmp { to } => Op::Jump {
                    target: offsets[to.0 as usize],
                },
                Inst::Br {
                    cond,
                    then_to,
                    else_to,
                } => Op::Branch {
                    cond: slots.of(cond),
                    then_t: offsets[then_to.0 as usize],
                    else_t: offsets[else_to.0 as usize],
                },
                Inst::Unreachable => Op::Unreachable,
            };
            ops.push(op);
            i += 1;
        }
    }
    debug_assert_eq!(ops.len(), off as usize, "pass 1/2 disagree on op count");
    ExecFunc {
        ops,
        vals,
        regs,
        consts: slots.consts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module_of(src: &str) -> Module {
        let prog = sb_cir::compile(src).expect("compiles");
        let mut m = sb_ir::lower(&prog, "exec-test");
        sb_ir::optimize(&mut m, sb_ir::OptLevel::PreInstrument);
        m
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
        // No instrumentation → nothing to fuse, op count == inst count.
        assert_eq!(exec.fused_checks, 0);
        assert_eq!(exec.op_count(), m.inst_count());
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
            for op in &ef.ops {
                match op {
                    Op::Jump { target } => assert!((*target as usize) < ef.ops.len()),
                    Op::Branch { then_t, else_t, .. } => {
                        assert!((*then_t as usize) < ef.ops.len());
                        assert!((*else_t as usize) < ef.ops.len());
                    }
                    _ => {}
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
        use sb_ir::{Block, RegKind};
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
    fn each_distinct_immediate_gets_one_slot_after_the_registers() {
        use sb_ir::{Block, RegKind};
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
                Op::Bin { lhs, rhs, .. } => Some((lhs, rhs)),
                _ => None,
            })
            .collect();
        assert_eq!(operands, [(2, 3), (0, 2), (4, 4)]);
        assert_eq!(ef.vals, [1], "the return reads register b");
    }
}
