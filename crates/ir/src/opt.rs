//! A small optimizer pipeline.
//!
//! The paper applies SoftBound *after* LLVM's optimizations and re-runs
//! them afterwards (§6.1). We mirror that pipeline shape:
//!
//! * [`OptLevel::PreInstrument`] — run on freshly lowered IR: constant
//!   folding, block-local copy propagation, dead-code elimination
//!   (including side-effect-free loads), and CFG cleanup.
//! * [`OptLevel::PostInstrument`] — run after an instrumentation pass:
//!   the same, except loads and runtime calls are never removed by DCE
//!   (instrumented loads can trap), plus a dedicated
//!   *redundant-check-elimination* pass: a spatial check whose exact
//!   `(ptr, base, bound, size)` operands were already checked on every
//!   path from the entry, with no intervening redefinition of those
//!   registers and no `setjmp` call site, is provably a repeat of an
//!   earlier passed check and is dropped. This is the classic
//!   available-expressions formulation of check elimination (cf. CHOP's
//!   observation that redundant bounds checks dominate residual
//!   overhead), solved over bitsets of the function's numbered checks.
//!
//! Every function gets up to four rounds of these passes, so none of them
//! allocates per instruction: their working arrays are indexed by register,
//! block, or check number.

use crate::ir::*;
use sb_cir::hir::{ArithOp, CmpOp};
use sb_cir::types::IntKind;
use std::collections::HashMap;

/// Pipeline placement, which constrains what may be deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// Before instrumentation: loads are removable dead code.
    PreInstrument,
    /// After instrumentation: loads and `Rt` calls are pinned (except
    /// provably redundant checks, which check elimination removes).
    PostInstrument,
    /// [`PostInstrument`](OptLevel::PostInstrument) without the
    /// redundant-check-elimination pass. Repair-and-continue violation
    /// policies need every check retained: RCE's soundness argument —
    /// "an earlier *passed* check proves this one passes" — inverts
    /// under a policy that lets execution continue past a *failed*
    /// check, and a clamp applies only to the one access its own check
    /// guards.
    PostInstrumentAllChecks,
}

/// Statistics of one optimizer run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Net instructions removed (all passes, including check elimination).
    pub insts_removed: usize,
    /// Spatial checks removed by redundant-check elimination alone.
    pub checks_eliminated: usize,
}

/// Optimizes every function in the module in place. Returns the number of
/// instructions removed (for pass statistics).
pub fn optimize(m: &mut Module, level: OptLevel) -> usize {
    optimize_with_stats(m, level).insts_removed
}

/// Optimizes every function in the module in place, reporting detailed
/// pass statistics.
pub fn optimize_with_stats(m: &mut Module, level: OptLevel) -> PassStats {
    let before = m.inst_count();
    let mut checks_eliminated = 0;
    for f in &mut m.funcs {
        if !f.defined {
            continue;
        }
        // A few rounds to a fixpoint (bounded for predictability).
        for _ in 0..4 {
            let mut changed = false;
            changed |= const_fold(f);
            changed |= copy_propagate(f);
            changed |= dce(f, level);
            changed |= simplify_cfg(f);
            if level == OptLevel::PostInstrument {
                let n = eliminate_redundant_checks(f);
                checks_eliminated += n;
                changed |= n > 0;
            }
            if !changed {
                break;
            }
        }
    }
    PassStats {
        insts_removed: before.saturating_sub(m.inst_count()),
        checks_eliminated,
    }
}

/// Evaluates a binary op on constants with kind `k` (the same semantics
/// the VM uses). Inlinable across crates: both interpreter lanes call it
/// once per arithmetic instruction.
#[inline]
pub fn eval_bin(op: ArithOp, k: IntKind, a: i64, b: i64) -> Option<i64> {
    let (a, b) = (k.wrap(a), k.wrap(b));
    let v = match op {
        ArithOp::Add => a.wrapping_add(b),
        ArithOp::Sub => a.wrapping_sub(b),
        ArithOp::Mul => a.wrapping_mul(b),
        ArithOp::Div => {
            if b == 0 {
                return None;
            }
            if k.is_signed() {
                a.wrapping_div(b)
            } else {
                ((a as u64).wrapping_div(b as u64)) as i64
            }
        }
        ArithOp::Rem => {
            if b == 0 {
                return None;
            }
            if k.is_signed() {
                a.wrapping_rem(b)
            } else {
                ((a as u64).wrapping_rem(b as u64)) as i64
            }
        }
        ArithOp::And => a & b,
        ArithOp::Or => a | b,
        ArithOp::Xor => a ^ b,
        ArithOp::Shl => a.wrapping_shl((b & 63) as u32),
        ArithOp::Shr => {
            if k.is_signed() {
                a.wrapping_shr((b & 63) as u32)
            } else {
                (((a as u64) & mask(k)).wrapping_shr((b & 63) as u32)) as i64
            }
        }
    };
    Some(k.wrap(v))
}

fn mask(k: IntKind) -> u64 {
    match k.size() {
        1 => 0xff,
        2 => 0xffff,
        4 => 0xffff_ffff,
        _ => u64::MAX,
    }
}

/// Evaluates a comparison on constants with kind `k`. Inlinable across
/// crates, like [`eval_bin`].
#[inline]
pub fn eval_cmp(op: CmpOp, k: IntKind, a: i64, b: i64) -> i64 {
    let (a, b) = (k.wrap(a), k.wrap(b));
    let r = if k.is_signed() {
        match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    } else {
        let (a, b) = (a as u64 & mask(k), b as u64 & mask(k));
        match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    };
    r as i64
}

fn const_fold(f: &mut Function) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            let replacement = match inst {
                Inst::Bin {
                    dst,
                    op,
                    k,
                    lhs: Value::Const(a),
                    rhs: Value::Const(c),
                } => eval_bin(*op, *k, *a, *c).map(|v| Inst::Mov {
                    dst: *dst,
                    src: Value::Const(v),
                }),
                Inst::Cmp {
                    dst,
                    op,
                    k,
                    lhs: Value::Const(a),
                    rhs: Value::Const(c),
                } => Some(Inst::Mov {
                    dst: *dst,
                    src: Value::Const(eval_cmp(*op, *k, *a, *c)),
                }),
                Inst::Cast {
                    dst,
                    k,
                    src: Value::Const(a),
                } => Some(Inst::Mov {
                    dst: *dst,
                    src: Value::Const(k.wrap(*a)),
                }),
                Inst::Gep {
                    dst,
                    base: Value::Const(a),
                    index: Value::Const(i),
                    scale,
                    offset,
                    ..
                } => Some(Inst::Mov {
                    dst: *dst,
                    src: Value::Const(
                        a.wrapping_add(i.wrapping_mul(*scale as i64))
                            .wrapping_add(*offset),
                    ),
                }),
                Inst::Gep {
                    dst,
                    base,
                    index: Value::Const(0),
                    offset: 0,
                    field_size: None,
                    ..
                } => Some(Inst::Mov {
                    dst: *dst,
                    src: *base,
                }),
                // x+0, x*1-style identities (common after lowering).
                Inst::Bin {
                    dst,
                    op: ArithOp::Add,
                    lhs,
                    rhs: Value::Const(0),
                    k,
                } if *k == IntKind::I64 || *k == IntKind::U64 => Some(Inst::Mov {
                    dst: *dst,
                    src: *lhs,
                }),
                _ => None,
            };
            if let Some(r) = replacement {
                if *inst != r {
                    *inst = r;
                    changed = true;
                }
            }
        }
        // Fold constant branches into jumps.
        if let Some(Inst::Br {
            cond: Value::Const(c),
            then_to,
            else_to,
        }) = b.insts.last().cloned()
        {
            let to = if c != 0 { then_to } else { else_to };
            *b.insts.last_mut().expect("non-empty") = Inst::Jmp { to };
            changed = true;
        }
    }
    changed
}

/// Block-local copy propagation. Safe with mutable registers because the
/// mapping is invalidated whenever either side is redefined, and never
/// crosses block boundaries. Constants are never propagated into
/// pointer-kind registers' uses: instrumentation passes identify pointer
/// call arguments by register kind, and folding `Mov ptr_reg, 0` away
/// would change that classification.
///
/// The copy map is indexed by register. Each entry records its source
/// register's generation; redefining a register bumps its generation,
/// which makes every copy of its old value stale at once, with no search.
/// Entries also carry their block, so the map empties between blocks.
fn copy_propagate(f: &mut Function) -> bool {
    /// `dst = src` as recorded in block `block`; when `src` is a
    /// register, valid only while its generation is still `src_gen`.
    #[derive(Clone, Copy)]
    struct Entry {
        src: Value,
        block: u32,
        src_gen: u32,
    }
    let nregs = f.reg_kinds.len();
    let mut copies = vec![
        Entry {
            src: Value::NULL,
            block: u32::MAX,
            src_gen: 0,
        };
        nregs
    ];
    let mut gen = vec![0u32; nregs];
    let mut changed = false;
    for (bi, b) in f.blocks.iter_mut().enumerate() {
        let block = bi as u32;
        for inst in &mut b.insts {
            // Rewrite uses first.
            inst.for_each_use_mut(|v| {
                if let Value::Reg(r) = v {
                    let c = copies[r.0 as usize];
                    let live = c.block == block
                        && !matches!(c.src, Value::Reg(s) if gen[s.0 as usize] != c.src_gen);
                    if live {
                        *v = c.src;
                        changed = true;
                    }
                }
            });
            // Kill the copy into each def, and every copy of its old value.
            for d in inst.defs() {
                copies[d.0 as usize].block = u32::MAX;
                gen[d.0 as usize] += 1;
            }
            // Record new copies (but keep pointer registers symbolic).
            if let Inst::Mov { dst, src } = inst {
                let ptr_const =
                    matches!(src, Value::Const(_)) && f.reg_kinds[dst.0 as usize] == RegKind::Ptr;
                if *src != Value::Reg(*dst) && !ptr_const {
                    let src_gen = match src {
                        Value::Reg(s) => gen[s.0 as usize],
                        _ => 0,
                    };
                    copies[dst.0 as usize] = Entry {
                        src: *src,
                        block,
                        src_gen,
                    };
                }
            }
        }
    }
    changed
}

fn has_side_effect(inst: &Inst, level: OptLevel) -> bool {
    match inst {
        Inst::Store { .. }
        | Inst::Call { .. }
        | Inst::Rt { .. }
        | Inst::Ret { .. }
        | Inst::Jmp { .. }
        | Inst::Br { .. }
        | Inst::Unreachable
        | Inst::Alloca { .. } => true,
        Inst::Load { .. } => level != OptLevel::PreInstrument,
        _ => false,
    }
}

fn dce(f: &mut Function, level: OptLevel) -> bool {
    // A register is live if it appears in any use position (registers are
    // mutable, so this is a whole-function property).
    let mut used = vec![false; f.reg_kinds.len()];
    for b in &f.blocks {
        for inst in &b.insts {
            inst.for_each_use(|v| {
                if let Value::Reg(r) = v {
                    used[r.0 as usize] = true;
                }
            });
        }
    }
    let mut changed = false;
    for b in &mut f.blocks {
        let before = b.insts.len();
        b.insts.retain(|inst| {
            if has_side_effect(inst, level) {
                return true;
            }
            let defs = inst.defs();
            defs.is_empty() || defs.iter().any(|d| used[d.0 as usize])
        });
        changed |= b.insts.len() != before;
    }
    changed
}

/// The blocks a block's terminator may jump to.
fn successors(b: &Block) -> [Option<BlockId>; 2] {
    match b.insts.last() {
        Some(Inst::Jmp { to }) => [Some(*to), None],
        Some(Inst::Br {
            then_to, else_to, ..
        }) => [Some(*then_to), Some(*else_to)],
        _ => [None, None],
    }
}

/// Removes unreachable blocks and threads trivial jump chains.
fn simplify_cfg(f: &mut Function) -> bool {
    let mut changed = false;

    // Thread jumps through blocks that are a single `Jmp`.
    let trampoline: Vec<Option<BlockId>> = f
        .blocks
        .iter()
        .map(|b| match b.insts.as_slice() {
            [Inst::Jmp { to }] => Some(*to),
            _ => None,
        })
        .collect();
    let nblocks = f.blocks.len();
    let resolve = move |mut t: BlockId| -> BlockId {
        // Bounded chase to tolerate (degenerate) jump cycles.
        for _ in 0..nblocks {
            match trampoline[t.0 as usize] {
                Some(next) if next != t => t = next,
                _ => break,
            }
        }
        t
    };
    for b in &mut f.blocks {
        if let Some(last) = b.insts.last_mut() {
            match last {
                Inst::Jmp { to } => {
                    let r = resolve(*to);
                    if r != *to {
                        *to = r;
                        changed = true;
                    }
                }
                Inst::Br {
                    then_to, else_to, ..
                } => {
                    let rt_ = resolve(*then_to);
                    let re = resolve(*else_to);
                    if rt_ != *then_to || re != *else_to {
                        *then_to = rt_;
                        *else_to = re;
                        changed = true;
                    }
                }
                _ => {}
            }
        }
    }

    // Drop unreachable blocks (and remap ids).
    let mut reachable = vec![false; f.blocks.len()];
    let mut stack = vec![BlockId(0)];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut reachable[b.0 as usize], true) {
            continue;
        }
        stack.extend(successors(&f.blocks[b.0 as usize]).into_iter().flatten());
    }
    if reachable.iter().all(|&r| r) {
        return changed;
    }
    let mut remap = vec![BlockId(0); f.blocks.len()];
    let mut kept = Vec::with_capacity(f.blocks.len());
    for (i, b) in f.blocks.drain(..).enumerate() {
        if reachable[i] {
            remap[i] = BlockId(kept.len() as u32);
            kept.push(b);
        }
    }
    for b in &mut kept {
        if let Some(last) = b.insts.last_mut() {
            match last {
                Inst::Jmp { to } => *to = remap[to.0 as usize],
                Inst::Br {
                    then_to, else_to, ..
                } => {
                    *then_to = remap[then_to.0 as usize];
                    *else_to = remap[else_to.0 as usize];
                }
                _ => {}
            }
        }
    }
    f.blocks = kept;
    true
}

// --------------------------------------------------------------------
// Redundant-check elimination (PostInstrument only).

/// Identity of a spatial check: the condition `base <= ptr && ptr+size <=
/// bound` depends only on these operand *values* (checks read no memory),
/// so two checks with equal keys test the same predicate. The `is_store`
/// flag is deliberately not part of the key — it only selects the trap's
/// diagnostic, not the condition. The access size *is* part of the key,
/// because keys match textually. The runtime's end compare is a checked
/// add, so a passed wider check does imply a narrower one on the same
/// operands; subsuming across sizes is ROADMAP item 4, rung 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CheckKey {
    /// 0 = dereference-check family, 1 = function-pointer check.
    kind: u8,
    ptr: Value,
    base: Value,
    bound: Value,
    size: i64,
}

/// Extracts the identity of a value-only spatial check. Address-based
/// checks that consult runtime state (object tables, addressability
/// maps) are excluded: their verdict can change between two textually
/// identical sites.
fn check_key(inst: &Inst) -> Option<CheckKey> {
    let Inst::Rt { rt, args, .. } = inst else {
        return None;
    };
    match rt {
        RtFn::SbCheck { .. } => {
            // Non-constant sizes are not emitted by any pass; skip if seen.
            let Value::Const(size) = args[3] else {
                return None;
            };
            Some(CheckKey {
                kind: 0,
                ptr: args[0],
                base: args[1],
                bound: args[2],
                size,
            })
        }
        RtFn::SbFnCheck => Some(CheckKey {
            kind: 1,
            ptr: args[0],
            base: args[1],
            bound: args[2],
            size: 0,
        }),
        _ => None,
    }
}

/// True for instructions that invalidate *every* available check.
///
/// Only `setjmp` call sites qualify. A keyed check is a pure predicate
/// over its operand *registers* (`ptr < base`, `ptr + size ≤ bound` —
/// it reads no program memory and no metadata), so the only ways a
/// proven fact can stop holding are:
///
/// * one of its registers is redefined — the generic defs-kill in
///   [`KeyIndex::kill`] handles that, including call/Rt destinations;
/// * control re-enters the function mid-CFG with register values the
///   dataflow never saw. The one construct that does this is `longjmp`,
///   which resumes execution immediately after a live `setjmp` call
///   site with the registers' *current* (not snapshot) values. Clearing
///   the available set at the `setjmp` site makes every fact reaching
///   code after it justified only by checks on static paths from that
///   site — and those same checks re-execute with the current values on
///   the resumed path, so the facts are re-established dynamically.
///
/// Ordinary calls, pointer stores, and the metadata helper
/// (`SbMetaStore`) mutate memory and the metadata table, which checks
/// never read; killing on them (as this pass originally did) suppressed
/// every elimination in call- or store-carrying loops — the
/// `checks_eliminated: 0` rows on compress, tsp, and treeadd in
/// `BENCH_softbound.json`.
fn clobbers_all_checks(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Call {
            callee: Callee::Builtin(sb_cir::hir::Builtin::Setjmp),
            ..
        }
    )
}

/// Registers a check key reads (redefinition of any of them kills it).
fn key_regs(key: &CheckKey) -> impl Iterator<Item = RegId> + '_ {
    [key.ptr, key.base, key.bound]
        .into_iter()
        .filter_map(|v| match v {
            Value::Reg(r) => Some(r),
            _ => None,
        })
}

/// Groups of small integers, flattened: group `g` is
/// `items[start[g]..start[g + 1]]`.
struct Groups {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Groups {
    /// Groups `(group, item)` pairs by group (a counting sort: count per
    /// group, turn the counts into range ends, fill each range from its
    /// end). `pairs` is called twice and must yield the same pairs.
    fn new<I: Iterator<Item = (usize, u32)>>(ngroups: usize, pairs: impl Fn() -> I) -> Self {
        let mut start = vec![0u32; ngroups + 1];
        for (g, _) in pairs() {
            start[g] += 1;
        }
        let mut end = 0;
        for n in &mut start {
            end += *n;
            *n = end;
        }
        let mut items = vec![0; end as usize];
        for (g, item) in pairs() {
            start[g] -= 1;
            items[start[g] as usize] = item;
        }
        Groups { start, items }
    }

    fn get(&self, g: usize) -> &[u32] {
        &self.items[self.start[g] as usize..self.start[g + 1] as usize]
    }
}

/// Key id of an instruction that is not a keyed check.
const NO_KEY: u32 = u32::MAX;

/// One function's check keys, numbered densely so that a set of keys is
/// a bitset of `nkeys.div_ceil(64)` words.
struct KeyIndex {
    /// Distinct keys in the function.
    nkeys: usize,
    /// Key id of every instruction, blocks in order ([`NO_KEY`] for
    /// everything but keyed checks).
    inst_key: Vec<u32>,
    /// Per register, the keys that read it, which its redefinition kills.
    kills: Groups,
}

impl KeyIndex {
    fn new(f: &Function) -> Self {
        let mut ids: HashMap<CheckKey, u32> = HashMap::new();
        let mut keys = Vec::new();
        let mut inst_key = Vec::with_capacity(f.inst_count());
        for inst in f.blocks.iter().flat_map(|b| &b.insts) {
            inst_key.push(check_key(inst).map_or(NO_KEY, |key| {
                *ids.entry(key).or_insert_with(|| {
                    keys.push(key);
                    keys.len() as u32 - 1
                })
            }));
        }
        let kills = Groups::new(f.reg_kinds.len(), || {
            keys.iter()
                .zip(0..)
                .flat_map(|(key, id)| key_regs(key).map(move |r| (r.0 as usize, id)))
        });
        KeyIndex {
            nkeys: keys.len(),
            inst_key,
            kills,
        }
    }

    /// Removes from `set` the keys `inst` invalidates: all of them at a
    /// `setjmp`, otherwise those reading a register it defines.
    fn kill(&self, inst: &Inst, set: &mut [u64]) {
        if clobbers_all_checks(inst) {
            set.fill(0);
            return;
        }
        for r in inst.defs() {
            for &k in self.kills.get(r.0 as usize) {
                set[k as usize / 64] &= !(1 << (k % 64));
            }
        }
    }

    /// Applies instruction `inst`, of key id `id`, to the available set.
    /// The check itself becomes available *after* the kill step (an
    /// instruction never invalidates the fact it just established).
    fn transfer(&self, inst: &Inst, id: u32, set: &mut [u64]) {
        self.kill(inst, set);
        if id != NO_KEY {
            set[id as usize / 64] |= 1 << (id % 64);
        }
    }
}

/// True when key `id` is in `set`.
fn available(set: &[u64], id: u32) -> bool {
    id != NO_KEY && set[id as usize / 64] & (1 << (id % 64)) != 0
}

/// Writes block `bi`'s IN into `set`: the intersection of its
/// predecessors' OUT (a check survives a merge only when proven on all
/// incoming paths). Nothing is proven at the entry, even when a back edge
/// reaches it, nor in a block without predecessors.
fn block_in(bi: usize, preds: &Groups, out: &[u64], set: &mut [u64]) {
    let words = set.len();
    match preds.get(bi).split_first() {
        Some((&first, rest)) if bi != 0 => {
            set.copy_from_slice(&out[first as usize * words..][..words]);
            for &p in rest {
                for (a, o) in set.iter_mut().zip(&out[p as usize * words..][..words]) {
                    *a &= o;
                }
            }
        }
        _ => set.fill(0),
    }
}

/// Removes checks dominated by an identical check on every path
/// (forward available-expressions dataflow over bitsets of key ids, then
/// one rewrite sweep). Returns the number of checks eliminated.
fn eliminate_redundant_checks(f: &mut Function) -> usize {
    let nblocks = f.blocks.len();
    if nblocks == 0 {
        return 0;
    }
    let index = KeyIndex::new(f);
    if index.nkeys == 0 {
        return 0;
    }
    let words = index.nkeys.div_ceil(64);
    let preds = Groups::new(nblocks, || {
        f.blocks.iter().zip(0..).flat_map(|(b, bi)| {
            successors(b)
                .into_iter()
                .flatten()
                .map(move |s| (s.0 as usize, bi))
        })
    });

    // Block summaries, so that OUT = (IN & KEEP) | GEN: GEN holds the
    // keys a block establishes and still holds at its end, KEEP the keys
    // nothing in it kills.
    let mut gen = vec![0u64; nblocks * words];
    let mut keep = vec![!0u64; nblocks * words];
    let mut ids = index.inst_key.iter();
    for ((b, g), k) in f
        .blocks
        .iter()
        .zip(gen.chunks_exact_mut(words))
        .zip(keep.chunks_exact_mut(words))
    {
        for (inst, &id) in b.insts.iter().zip(&mut ids) {
            index.transfer(inst, id, g);
            index.kill(inst, k);
        }
    }

    // Optimistic initialization (standard available-expressions): the
    // entry starts from nothing proven; every other block starts from the
    // universe of check keys. Iteration is then monotone decreasing over
    // a finite lattice, so it terminates, and the greatest fixpoint it
    // reaches, whatever the visit order, is a sound under-approximation
    // of "checked on every path from the entry". Bits past the last key
    // are never read.
    let mut out = vec![!0u64; nblocks * words];
    out[..words].copy_from_slice(&gen[..words]);
    let mut set = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in 1..nblocks {
            block_in(bi, &preds, &out, &mut set);
            let block = bi * words..(bi + 1) * words;
            for (((o, &i), &k), &g) in out[block.clone()]
                .iter_mut()
                .zip(&set)
                .zip(&keep[block.clone()])
                .zip(&gen[block])
            {
                let next = (i & k) | g;
                changed |= *o != next;
                *o = next;
            }
        }
    }

    // Rewrite sweep: drop checks whose exact identity is available.
    let mut eliminated = 0;
    let mut ids = index.inst_key.iter();
    for (bi, b) in f.blocks.iter_mut().enumerate() {
        block_in(bi, &preds, &out, &mut set);
        let insts = std::mem::take(&mut b.insts);
        let mut kept = Vec::with_capacity(insts.len());
        for (inst, &id) in insts.into_iter().zip(&mut ids) {
            if available(&set, id) {
                eliminated += 1;
                continue;
            }
            index.transfer(&inst, id, &mut set);
            kept.push(inst);
        }
        b.insts = kept;
    }
    eliminated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::verify::verify;

    fn module(src: &str) -> Module {
        lower(&sb_cir::compile(src).expect("compiles"), "t")
    }

    #[test]
    fn optimized_modules_still_verify() {
        let srcs = [
            "int main() { return 2 + 3 * 4; }",
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            r#"
            struct node { int v; struct node* next; };
            int sum(struct node* l) { int s = 0; while (l) { s += l->v; l = l->next; } return s; }
            int main() { return sum(0); }
            "#,
        ];
        for src in srcs {
            let mut m = module(src);
            optimize(&mut m, OptLevel::PreInstrument);
            verify(&m).unwrap_or_else(|e| panic!("verify after opt: {e}\n{m}"));
        }
    }

    #[test]
    fn const_folding_shrinks_code() {
        let mut m = module("int main() { return (3 + 4) * (10 - 2); }");
        let before = m.inst_count();
        let removed = optimize(&mut m, OptLevel::PreInstrument);
        assert!(
            removed > 0,
            "expected folding to remove instructions (before={before})"
        );
        // The function should now return a constant.
        let f = m.func("main").expect("main");
        let has_const_ret = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Ret { vals } if vals == &vec![Value::Const(56)]));
        assert!(has_const_ret, "expected `ret 56`:\n{m}");
    }

    #[test]
    fn eval_bin_semantics() {
        assert_eq!(
            eval_bin(ArithOp::Add, IntKind::I32, i32::MAX as i64, 1),
            Some(i32::MIN as i64)
        );
        assert_eq!(eval_bin(ArithOp::Div, IntKind::I32, -7, 2), Some(-3));
        assert_eq!(
            eval_bin(ArithOp::Div, IntKind::U32, -7i64, 2),
            Some(((-7i64 as u32) / 2) as i64)
        );
        assert_eq!(eval_bin(ArithOp::Div, IntKind::I32, 1, 0), None);
        assert_eq!(eval_bin(ArithOp::Shr, IntKind::I32, -8, 1), Some(-4));
        assert_eq!(
            eval_bin(ArithOp::Shr, IntKind::U32, -8i64, 1),
            Some(((-8i64 as u32) >> 1) as i64)
        );
    }

    #[test]
    fn eval_cmp_signedness() {
        assert_eq!(eval_cmp(CmpOp::Lt, IntKind::I32, -1, 1), 1);
        assert_eq!(
            eval_cmp(CmpOp::Lt, IntKind::U32, -1i64, 1),
            0,
            "-1 as u32 is huge"
        );
        assert_eq!(eval_cmp(CmpOp::Ge, IntKind::U64, -1i64, 1), 1);
    }

    #[test]
    fn dead_loads_removed_pre_instrument_only() {
        let src = "int g; int main() { int x = g; return 0; }";
        let mut pre = module(src);
        optimize(&mut pre, OptLevel::PreInstrument);
        let pre_loads = pre
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        assert_eq!(pre_loads, 0);

        let mut post = module(src);
        optimize(&mut post, OptLevel::PostInstrument);
        let post_loads = post
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        assert_eq!(post_loads, 1, "post-instrument DCE must keep loads");
    }

    fn check(ptr: Value, base: Value, bound: Value, size: i64) -> Inst {
        Inst::Rt {
            dsts: vec![],
            rt: RtFn::SbCheck { is_store: false },
            args: vec![ptr, base, bound, Value::Const(size)],
        }
    }

    /// A single-purpose function shell: three registers (ptr, base, bound)
    /// and whatever blocks the test installs.
    fn shell(blocks: Vec<Block>) -> Function {
        Function {
            name: "t".into(),
            params: vec![],
            param_kinds: vec![],
            ret_kinds: vec![],
            reg_kinds: vec![RegKind::Ptr, RegKind::Int, RegKind::Int],
            blocks,
            vararg: false,
            defined: true,
        }
    }

    fn args() -> (Value, Value, Value) {
        (
            Value::Reg(RegId(0)),
            Value::Reg(RegId(1)),
            Value::Reg(RegId(2)),
        )
    }

    fn count_checks(f: &Function) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i,
                    Inst::Rt {
                        rt: RtFn::SbCheck { .. },
                        ..
                    }
                )
            })
            .count()
    }

    #[test]
    fn straight_line_duplicate_checks_eliminated() {
        let (p, b, e) = args();
        let mut f = shell(vec![Block {
            insts: vec![
                check(p, b, e, 4),
                check(p, b, e, 4), // exact repeat → dropped
                check(p, b, e, 4), // and again → dropped
                check(p, b, e, 8), // different size → must stay
                Inst::Ret { vals: vec![] },
            ],
        }]);
        let n = eliminate_redundant_checks(&mut f);
        assert_eq!(n, 2, "{f:?}");
        assert_eq!(count_checks(&f), 2);
    }

    #[test]
    fn differing_sizes_never_subsume() {
        // A wider check must NOT subsume a narrower one: near the top of
        // the address space `ptr.wrapping_add(8)` can wrap below `bound`
        // (passing) while `ptr.wrapping_add(4)` stays above it (trapping),
        // so their verdicts are not implied by one another.
        let (p, b, e) = args();
        let mut f = shell(vec![Block {
            insts: vec![
                check(p, b, e, 8),
                check(p, b, e, 4), // narrower → kept despite wider proof
                check(p, b, e, 2), // narrower still → kept
                Inst::Ret { vals: vec![] },
            ],
        }]);
        assert_eq!(eliminate_redundant_checks(&mut f), 0);
        assert_eq!(count_checks(&f), 3);
    }

    #[test]
    fn calls_and_pointer_stores_do_not_invalidate() {
        // The check predicate reads registers only — callee side effects
        // and (meta)data writes cannot flip a proven verdict, so a call
        // that defines none of the key's registers and a pointer store
        // both leave the fact available.
        let (p, b, e) = args();
        let mut f = shell(vec![Block {
            insts: vec![
                check(p, b, e, 4),
                Inst::Call {
                    dsts: vec![],
                    callee: Callee::Builtin(sb_cir::hir::Builtin::Rand),
                    args: vec![],
                    ptr_hint: false,
                    wrapped: false,
                },
                check(p, b, e, 4), // after a call: dropped
                Inst::Store {
                    mem: MemTy::Ptr,
                    addr: p,
                    value: Value::Const(0),
                },
                check(p, b, e, 4), // after a pointer store: dropped
                Inst::Ret { vals: vec![] },
            ],
        }]);
        assert_eq!(eliminate_redundant_checks(&mut f), 2);
        assert_eq!(count_checks(&f), 1);
    }

    #[test]
    fn call_defining_a_key_register_invalidates() {
        // A call's destination registers go through the ordinary
        // defs-kill: redefinition of the checked pointer ends the fact.
        let (p, b, e) = args();
        let mut f = shell(vec![Block {
            insts: vec![
                check(p, b, e, 4),
                Inst::Call {
                    dsts: vec![RegId(0)],
                    callee: Callee::Builtin(sb_cir::hir::Builtin::Rand),
                    args: vec![],
                    ptr_hint: false,
                    wrapped: false,
                },
                check(p, b, e, 4), // ptr redefined by the call → kept
                Inst::Ret { vals: vec![] },
            ],
        }]);
        assert_eq!(eliminate_redundant_checks(&mut f), 0);
        assert_eq!(count_checks(&f), 2);
    }

    #[test]
    fn setjmp_call_sites_invalidate_everything() {
        // longjmp resumes right after a live setjmp call with the
        // registers' *current* values — a hidden CFG edge the dataflow
        // cannot see. Facts must not be carried across the setjmp site.
        let (p, b, e) = args();
        let mut f = shell(vec![Block {
            insts: vec![
                check(p, b, e, 4),
                Inst::Call {
                    dsts: vec![],
                    callee: Callee::Builtin(sb_cir::hir::Builtin::Setjmp),
                    args: vec![p],
                    ptr_hint: false,
                    wrapped: false,
                },
                check(p, b, e, 4), // re-entry target → kept
                Inst::Ret { vals: vec![] },
            ],
        }]);
        assert_eq!(eliminate_redundant_checks(&mut f), 0);
        assert_eq!(count_checks(&f), 2);
    }

    #[test]
    fn non_pointer_stores_do_not_invalidate() {
        let (p, b, e) = args();
        let mut f = shell(vec![Block {
            insts: vec![
                check(p, b, e, 4),
                Inst::Store {
                    mem: MemTy::I32,
                    addr: p,
                    value: Value::Const(7),
                },
                check(p, b, e, 4), // int store cannot affect the condition
                Inst::Ret { vals: vec![] },
            ],
        }]);
        assert_eq!(eliminate_redundant_checks(&mut f), 1);
    }

    #[test]
    fn register_redefinition_invalidates() {
        let (p, b, e) = args();
        let mut f = shell(vec![Block {
            insts: vec![
                check(p, b, e, 4),
                Inst::Mov {
                    dst: RegId(0),
                    src: Value::Const(64),
                },
                check(p, b, e, 4), // ptr changed → kept
                Inst::Ret { vals: vec![] },
            ],
        }]);
        assert_eq!(eliminate_redundant_checks(&mut f), 0);
    }

    #[test]
    fn metadata_stores_do_not_invalidate() {
        // Metadata-table writes change what a *future* SbMetaLoad
        // returns — which would define fresh base/bound registers and
        // kill the fact through defs — but never the verdict of a check
        // over registers already in hand.
        let (p, b, e) = args();
        let mut f = shell(vec![Block {
            insts: vec![
                check(p, b, e, 4),
                Inst::Rt {
                    dsts: vec![],
                    rt: RtFn::SbMetaStore,
                    args: vec![p, b, e],
                },
                check(p, b, e, 4),
                Inst::Ret { vals: vec![] },
            ],
        }]);
        assert_eq!(eliminate_redundant_checks(&mut f), 1);
    }

    #[test]
    fn dominated_checks_eliminated_across_blocks() {
        let (p, b, e) = args();
        // b0: check, br → b1 | b2; b1/b2: recheck, jmp b3; b3: recheck.
        let mut f = shell(vec![
            Block {
                insts: vec![
                    check(p, b, e, 4),
                    Inst::Br {
                        cond: Value::Reg(RegId(1)),
                        then_to: BlockId(1),
                        else_to: BlockId(2),
                    },
                ],
            },
            Block {
                insts: vec![check(p, b, e, 4), Inst::Jmp { to: BlockId(3) }],
            },
            Block {
                insts: vec![check(p, b, e, 4), Inst::Jmp { to: BlockId(3) }],
            },
            Block {
                insts: vec![check(p, b, e, 4), Inst::Ret { vals: vec![] }],
            },
        ]);
        assert_eq!(eliminate_redundant_checks(&mut f), 3, "{f:?}");
        assert_eq!(count_checks(&f), 1, "only the dominating check remains");
    }

    #[test]
    fn one_sided_checks_survive_merges() {
        let (p, b, e) = args();
        // Only the then-branch checks; the merge's check must stay.
        let mut f = shell(vec![
            Block {
                insts: vec![Inst::Br {
                    cond: Value::Reg(RegId(1)),
                    then_to: BlockId(1),
                    else_to: BlockId(2),
                }],
            },
            Block {
                insts: vec![check(p, b, e, 4), Inst::Jmp { to: BlockId(3) }],
            },
            Block {
                insts: vec![Inst::Jmp { to: BlockId(3) }],
            },
            Block {
                insts: vec![check(p, b, e, 4), Inst::Ret { vals: vec![] }],
            },
        ]);
        assert_eq!(eliminate_redundant_checks(&mut f), 0);
        assert_eq!(count_checks(&f), 2);
    }

    #[test]
    fn loop_body_checks_not_hoisted_out_of_first_iteration() {
        let (p, b, e) = args();
        // b0 → b1 (loop body with check) → b1 | b2. The body's check is
        // available only along the back edge, so it must stay.
        let mut f = shell(vec![
            Block {
                insts: vec![Inst::Jmp { to: BlockId(1) }],
            },
            Block {
                insts: vec![
                    check(p, b, e, 4),
                    Inst::Br {
                        cond: Value::Reg(RegId(1)),
                        then_to: BlockId(1),
                        else_to: BlockId(2),
                    },
                ],
            },
            Block {
                insts: vec![Inst::Ret { vals: vec![] }],
            },
        ]);
        assert_eq!(eliminate_redundant_checks(&mut f), 0);
        assert_eq!(count_checks(&f), 1);
    }

    #[test]
    fn fn_checks_participate_separately_from_deref_checks() {
        let (p, b, e) = args();
        let fn_check = Inst::Rt {
            dsts: vec![],
            rt: RtFn::SbFnCheck,
            args: vec![p, b, e],
        };
        let mut f = shell(vec![Block {
            insts: vec![
                fn_check.clone(),
                check(p, b, e, 4), // different kind: not redundant
                fn_check.clone(),  // repeat fn check: redundant
                Inst::Ret { vals: vec![] },
            ],
        }]);
        assert_eq!(eliminate_redundant_checks(&mut f), 1);
    }

    #[test]
    fn keys_beyond_the_first_word_are_tracked() {
        // 66 sized checks on p (key ids 0..=65) and one on q (id 66):
        // more keys than one 64-bit word holds. The successor's repeat of
        // key 65 is eliminated; key 66 is killed and re-checked, so stays.
        let (p, b, e) = args();
        let q = Value::Reg(RegId(3));
        let mut entry: Vec<Inst> = (1..=66).map(|size| check(p, b, e, size)).collect();
        entry.push(check(q, b, e, 4));
        entry.push(Inst::Jmp { to: BlockId(1) });
        let mut f = shell(vec![
            Block { insts: entry },
            Block {
                insts: vec![
                    check(p, b, e, 66), // available from the entry → dropped
                    Inst::Mov {
                        dst: RegId(3),
                        src: Value::Const(64),
                    },
                    check(q, b, e, 4), // q redefined → kept
                    Inst::Ret { vals: vec![] },
                ],
            },
        ]);
        f.reg_kinds.push(RegKind::Ptr);
        assert_eq!(eliminate_redundant_checks(&mut f), 1, "{f:?}");
        assert_eq!(count_checks(&f), 68);
        assert!(matches!(
            &f.blocks[1].insts[0],
            Inst::Mov { dst: RegId(3), .. }
        ));
    }

    #[test]
    fn back_edge_into_the_entry_proves_nothing_there() {
        // b0 loops to itself. Its check is available along the back
        // edge but not on first entry, so it stays; the exit block's
        // repeat is dominated by it and goes.
        let (p, b, e) = args();
        let mut f = shell(vec![
            Block {
                insts: vec![
                    check(p, b, e, 4),
                    Inst::Br {
                        cond: Value::Reg(RegId(1)),
                        then_to: BlockId(0),
                        else_to: BlockId(1),
                    },
                ],
            },
            Block {
                insts: vec![check(p, b, e, 4), Inst::Ret { vals: vec![] }],
            },
        ]);
        assert_eq!(eliminate_redundant_checks(&mut f), 1);
        assert!(matches!(f.blocks[0].insts[0], Inst::Rt { .. }));
        assert_eq!(count_checks(&f), 1);
    }

    #[test]
    fn setjmp_mid_block_clears_facts_for_successors_too() {
        // Key A (size 4) and key B (size 8) are checked before a setjmp.
        // A is re-checked after it in the same block (kept), which makes
        // A available to the successor again; B is not, so the
        // successor's B check stays and its A check goes.
        let (p, b, e) = args();
        let mut f = shell(vec![
            Block {
                insts: vec![
                    check(p, b, e, 4),
                    check(p, b, e, 8),
                    Inst::Call {
                        dsts: vec![],
                        callee: Callee::Builtin(sb_cir::hir::Builtin::Setjmp),
                        args: vec![p],
                        ptr_hint: false,
                        wrapped: false,
                    },
                    check(p, b, e, 4), // after the setjmp → kept
                    Inst::Jmp { to: BlockId(1) },
                ],
            },
            Block {
                insts: vec![
                    check(p, b, e, 8), // cleared by the setjmp → kept
                    check(p, b, e, 4), // re-established after it → dropped
                    Inst::Ret { vals: vec![] },
                ],
            },
        ]);
        assert_eq!(eliminate_redundant_checks(&mut f), 1);
        assert_eq!(f.blocks[0].insts.len(), 5);
        assert_eq!(f.blocks[1].insts.len(), 2);
    }

    #[test]
    fn key_killed_and_reestablished_in_one_block_reaches_successors() {
        let (p, b, e) = args();
        let mut f = shell(vec![
            Block {
                insts: vec![
                    check(p, b, e, 4),
                    Inst::Mov {
                        dst: RegId(0),
                        src: Value::Const(64),
                    },
                    check(p, b, e, 4), // ptr redefined → kept
                    Inst::Jmp { to: BlockId(1) },
                ],
            },
            Block {
                insts: vec![check(p, b, e, 4), Inst::Ret { vals: vec![] }],
            },
        ]);
        assert_eq!(eliminate_redundant_checks(&mut f), 1);
        assert_eq!(count_checks(&f), 2);
        assert_eq!(f.blocks[1].insts.len(), 1);
    }

    #[test]
    fn post_instrument_pipeline_runs_elimination_and_verifies() {
        let (p, b, e) = args();
        let mut m = Module {
            name: "t".into(),
            globals: vec![],
            funcs: vec![shell(vec![Block {
                insts: vec![
                    check(p, b, e, 4),
                    check(p, b, e, 4),
                    Inst::Ret { vals: vec![] },
                ],
            }])],
        };
        let stats = optimize_with_stats(&mut m, OptLevel::PostInstrument);
        assert_eq!(stats.checks_eliminated, 1);
        verify(&m).expect("slimmer module still verifies");
        let pre = optimize_with_stats(
            &mut module("int main() { return 0; }"),
            OptLevel::PreInstrument,
        );
        assert_eq!(
            pre.checks_eliminated, 0,
            "pre-instrument runs no check elimination"
        );
    }

    #[test]
    fn all_checks_level_pins_redundant_checks_and_loads() {
        let (p, b, e) = args();
        let mut m = Module {
            name: "t".into(),
            globals: vec![],
            funcs: vec![shell(vec![Block {
                insts: vec![
                    check(p, b, e, 4),
                    check(p, b, e, 4),
                    Inst::Ret { vals: vec![] },
                ],
            }])],
        };
        let stats = optimize_with_stats(&mut m, OptLevel::PostInstrumentAllChecks);
        assert_eq!(
            stats.checks_eliminated, 0,
            "repair policies keep every check"
        );
        assert_eq!(count_checks(&m.funcs[0]), 2);
        verify(&m).expect("still verifies");
    }

    #[test]
    fn unreachable_blocks_removed() {
        let mut m = module("int main() { if (0) { return 1; } return 2; }");
        optimize(&mut m, OptLevel::PreInstrument);
        verify(&m).expect("verifies");
        let f = m.func("main").expect("main");
        // `if (0)` arm should be gone after folding + CFG cleanup.
        let has_ret1 = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Ret { vals } if vals == &vec![Value::Const(1)]));
        assert!(!has_ret1, "dead branch should be removed:\n{m}");
    }
}
