//! The pointer-based compile-time transformation (§3, §5).
//!
//! One pass serves the three pointer-based schemes of §2.2 and Table 1:
//! SoftBound itself, the MSCC-like baseline and SafeC/CCured-SEQ fat
//! pointers, each a [`Flavor`]. All three carry `(base, bound)` with
//! every pointer and check it at each dereference; they differ in where
//! the metadata lives and in how casts and sub-objects are bounded.
//!
//! An intra-procedural IR→IR pass. For every pointer-kind register `r` it
//! maintains two shadow registers `r_base`/`r_bound` (the paper's
//! per-pointer intermediate values) and rewrites, in the SoftBound
//! flavor:
//!
//! * **dereferences** — a spatial check before every load/store (loads
//!   skipped in store-only mode);
//! * **pointer loads/stores** — a disjoint-metadata table access keyed by
//!   the *location* of the pointer (§3.2);
//! * **bound creation** — `malloc` results, `alloca`s and global addresses
//!   get their statically known bounds; field GEPs *shrink* bounds to the
//!   sub-object (§3.1); int-to-pointer casts get NULL bounds (§5.2);
//! * **calls** — functions are renamed `_sb_<name>` and pointer arguments/
//!   returns travel with base/bound (extra parameters and multi-value
//!   returns, §3.3); indirect calls check the `base == bound == ptr`
//!   function-pointer encoding (§5.2); builtin ("library") calls become
//!   checked wrappers; `setbound` is compiled away into explicit bounds;
//! * **global initializers** — a synthesized constructor
//!   `__ctor.sb_globals.<module>` seeds metadata for pointer-valued
//!   global initializers (§5.2).
//!
//! What the flavor decides:
//!
//! | | SoftBound | MSCC | fat |
//! |---|---|---|---|
//! | function prefix | `_sb_` | `_mscc_` | `_fat_` |
//! | metadata of a loaded or stored pointer | `SbMetaLoad`/`SbMetaStore` | `SbMetaLoad`/`SbMetaStore` | plain `I64` loads/stores at `+8` and `+16` |
//! | global-initializer constructor | one table store per pointer slot | one table store per pointer slot | two plain stores per pointer slot |
//! | bounds at field GEPs | shrink to the field | whole object | shrink to the field |
//! | forged (int-to-pointer) pointers | NULL bounds | unbounded | NULL bounds |
//! | function-pointer checks | emitted | none | none |
//!
//! Every flavor checks with `SbCheck` and compiles `setbound` away; the
//! installed runtime gives the helpers its scheme's semantics and cost.
//! The wrapped builtins decode varargs with a count check and hand a
//! pointer-holding `memcpy` to the runtime's `on_memcpy`, and the
//! SoftBound runtime clears stale metadata (§5.2) in its `on_free` and
//! `on_frame_exit` hooks, the latter on a return and a `longjmp` unwind
//! alike, so those §5.2 mechanisms need no instructions here.
//!
//! The pass is purely local — no whole-program analysis — which is what
//! makes separate compilation work (Table 1).

use crate::config::{CheckMode, SoftBoundConfig};
use sb_cir::hir::Builtin;
use sb_ir::{
    ArithOp, Callee, Function, GInit, Global, GlobalId, Inst, IntKind, MemTy, Module, RegId,
    RegKind, RtFn, Value, CTOR_PREFIX,
};

/// Prefix applied to transformed function names (§3.3).
pub const SB_PREFIX: &str = "_sb_";
/// Name prefix of the synthesized global-metadata initializer. The `__ctor.`
/// prefix is the VM's constructor convention — such functions run before
/// the entry point, which is exactly the hook the paper says it uses ("the
/// same hooks C++ uses to run code for constructing global objects",
/// §5.2). It also makes global metadata initialization compose with
/// separate compilation: after linking, every module's constructor runs.
pub const GLOBALS_INIT_PREFIX: &str = "__ctor.sb_globals";

/// A flavor of the pointer-based transformation (§2.2, Table 1); the
/// [module documentation](crate::transform) tabulates what each one decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// SoftBound: disjoint table metadata, bounds shrunk at field GEPs
    /// (§3.1), NULL bounds for forged pointers, and function-pointer
    /// checks (§5.2).
    SoftBound,
    /// MSCC's fast configuration (\[34\]): its own metadata table,
    /// whole-object bounds (so sub-object overflows are missed), and
    /// forged pointers unbounded (`[0, u64::MAX)`, i.e. unchecked); no
    /// function-pointer checks.
    Mscc,
    /// SafeC/CCured-SEQ fat pointers: the module must be lowered with the
    /// 24-byte `{value, base, bound}` layout, so the metadata is the two
    /// plain words after the pointer and `memcpy` copies it as data.
    /// Bounds shrink at field GEPs and forged pointers get NULL bounds;
    /// no function-pointer checks.
    Fat,
}

impl Flavor {
    /// The name prefix of transformed functions; it also names the
    /// global-initializer constructor (`__ctor.<prefix>globals.<module>`).
    fn prefix(self) -> &'static str {
        match self {
            Flavor::SoftBound => SB_PREFIX,
            Flavor::Mscc => "_mscc_",
            Flavor::Fat => "_fat_",
        }
    }

    /// True when pointer metadata lives in the runtime's table
    /// (`SbMetaLoad`/`SbMetaStore`); false for fat pointers, whose
    /// metadata is inline (see [`inline_meta`]).
    fn table(self) -> bool {
        self != Flavor::Fat
    }

    /// Bounds of a pointer forged from an integer register (§5.2): NULL,
    /// so a dereference traps, except under MSCC, which cannot bound it
    /// and leaves it unchecked.
    fn forged(self) -> (Value, Value) {
        match self {
            Flavor::Mscc => (Value::Const(0), Value::Const(-1)),
            Flavor::SoftBound | Flavor::Fat => (Value::Const(0), Value::Const(0)),
        }
    }
}

/// Applies the SoftBound transformation to a module, returning the
/// instrumented module. The input is not modified.
pub fn instrument(module: &Module, cfg: &SoftBoundConfig) -> Module {
    instrument_flavored(module, cfg, Flavor::SoftBound)
}

/// Applies the pointer-based transformation with an explicit [`Flavor`]
/// (used by the MSCC-like and fat-pointer baselines).
pub fn instrument_flavored(module: &Module, cfg: &SoftBoundConfig, flavor: Flavor) -> Module {
    let mut m = module.clone();

    // Snapshot the *original* signatures: call-site rewriting consults the
    // callee's pre-transformation pointer parameters/returns.
    let orig_params: Vec<Vec<RegKind>> = m.funcs.iter().map(|f| f.param_kinds.clone()).collect();
    let orig_rets: Vec<Vec<RegKind>> = m.funcs.iter().map(|f| f.ret_kinds.clone()).collect();
    let global_sizes: Vec<u64> = m.globals.iter().map(|g| g.size).collect();

    for f in &mut m.funcs {
        transform_fn(f, &orig_params, &orig_rets, &global_sizes, cfg, flavor);
    }

    // Synthesize the global metadata initializer; the VM's constructor
    // convention runs it before the entry point.
    let init = build_globals_init(&m.globals, &m.name, flavor);
    m.funcs.push(init);
    m
}

/// Builds the constructor `__ctor.<prefix>globals.<module>`: the
/// metadata of every pointer-valued global initializer (§5.2 "Global
/// variables"), one table store each, or two plain stores for fat
/// pointers. The VM runs every `__ctor.` function before `main`, which
/// keeps separately compiled modules working after linking.
fn build_globals_init(globals: &[Global], module_name: &str, flavor: Flavor) -> Function {
    let mut f = Function {
        name: format!(
            "{CTOR_PREFIX}{}globals.{module_name}",
            flavor.prefix().trim_start_matches('_')
        ),
        params: vec![],
        param_kinds: vec![],
        ret_kinds: vec![],
        reg_kinds: vec![],
        blocks: vec![],
        vararg: false,
        defined: true,
    };
    let b = f.new_block();
    let insts = &mut f.blocks[b.0 as usize].insts;
    for (gi, g) in globals.iter().enumerate() {
        for (off, init) in &g.init {
            let (base, bound) = match init {
                GInit::GlobalAddr { id, .. } => (
                    Value::GlobalAddr { id: *id, offset: 0 },
                    Value::GlobalAddr {
                        id: *id,
                        offset: globals[id.0 as usize].size,
                    },
                ),
                GInit::FuncAddr(fid) => (Value::FuncAddr(*fid), Value::FuncAddr(*fid)),
                GInit::Bytes(_) => continue, // zero/integer patterns: NULL bounds
            };
            let id = GlobalId(gi as u32);
            if flavor.table() {
                insts.push(Inst::Rt {
                    dsts: vec![],
                    rt: RtFn::SbMetaStore,
                    args: vec![Value::GlobalAddr { id, offset: *off }, base, bound],
                });
            } else {
                for (disp, value) in [(8, base), (16, bound)] {
                    insts.push(Inst::Store {
                        mem: MemTy::I64,
                        addr: Value::GlobalAddr {
                            id,
                            offset: off + disp,
                        },
                        value,
                    });
                }
            }
        }
    }
    insts.push(Inst::Ret { vals: vec![] });
    f
}

/// A fat pointer's inline metadata words at `addr + 8` (base) and
/// `addr + 16` (bound): for each, the GEP that computes its address into
/// a fresh pointer register, and that register. Both registers are
/// allocated before either GEP, and the second one points at `+8`: the
/// numbering is part of the printed module that `optimizer_golden` pins.
fn inline_meta(f: &mut Function, addr: Value) -> [(Inst, Value); 2] {
    let at16 = f.new_reg(RegKind::Ptr);
    let at8 = f.new_reg(RegKind::Ptr);
    [(at8, 8), (at16, 16)].map(|(dst, offset)| {
        let gep = Inst::Gep {
            dst,
            base: addr,
            index: Value::Const(0),
            scale: 0,
            offset,
            field_size: None,
        };
        (gep, Value::Reg(dst))
    })
}

struct Cx<'a> {
    shadows: Vec<Option<(RegId, RegId)>>,
    orig_params: &'a [Vec<RegKind>],
    orig_rets: &'a [Vec<RegKind>],
    global_sizes: &'a [u64],
    cfg: &'a SoftBoundConfig,
    flavor: Flavor,
    ret_was_ptr: bool,
}

impl Cx<'_> {
    /// `(base, bound)` metadata values for an operand (§3.1): pointer
    /// registers use their shadows, an integer register is a forged
    /// pointer ([`Flavor::forged`]), global addresses have compile-time
    /// constant bounds, function addresses use the zero-sized encoding,
    /// and constants get NULL bounds.
    fn meta_of(&self, v: &Value) -> (Value, Value) {
        match v {
            Value::Reg(r) => self.shadows[r.0 as usize]
                .map(|(b, e)| (Value::Reg(b), Value::Reg(e)))
                .unwrap_or_else(|| self.flavor.forged()),
            Value::Const(_) => (Value::Const(0), Value::Const(0)),
            Value::GlobalAddr { id, .. } => (
                Value::GlobalAddr { id: *id, offset: 0 },
                Value::GlobalAddr {
                    id: *id,
                    offset: self.global_sizes[id.0 as usize],
                },
            ),
            Value::FuncAddr(f) => (Value::FuncAddr(*f), Value::FuncAddr(*f)),
        }
    }

    fn shadow(&self, r: RegId) -> (RegId, RegId) {
        self.shadows[r.0 as usize].expect("pointer register has shadows")
    }

    fn is_ptr_value(&self, f: &Function, v: &Value) -> bool {
        match v {
            Value::Reg(r) => f.reg_kind(*r) == RegKind::Ptr,
            Value::GlobalAddr { .. } | Value::FuncAddr(_) => true,
            Value::Const(_) => false,
        }
    }
}

fn transform_fn(
    f: &mut Function,
    orig_params: &[Vec<RegKind>],
    orig_rets: &[Vec<RegKind>],
    global_sizes: &[u64],
    cfg: &SoftBoundConfig,
    flavor: Flavor,
) {
    if f.name.starts_with(flavor.prefix()) {
        return; // already transformed
    }
    let nregs = f.reg_kinds.len();
    let mut cx = Cx {
        shadows: vec![None; nregs],
        orig_params,
        orig_rets,
        global_sizes,
        cfg,
        flavor,
        ret_was_ptr: f.ret_kinds == [RegKind::Ptr],
    };

    // Extend the signature: pointer parameters gain trailing (base, bound)
    // parameters — their shadow registers are exactly those parameters, so
    // incoming metadata flows with no extra moves (§3.3).
    let orig_param_regs: Vec<(usize, RegId)> = f
        .params
        .iter()
        .enumerate()
        .filter(|(i, _)| f.param_kinds[*i] == RegKind::Ptr)
        .map(|(i, r)| (i, *r))
        .collect();
    for (_, preg) in &orig_param_regs {
        let b = f.new_reg(RegKind::Int);
        let e = f.new_reg(RegKind::Int);
        f.params.push(b);
        f.params.push(e);
        f.param_kinds.push(RegKind::Int);
        f.param_kinds.push(RegKind::Int);
        cx.shadows[preg.0 as usize] = Some((b, e));
    }
    if cx.ret_was_ptr {
        f.ret_kinds = vec![RegKind::Ptr, RegKind::Int, RegKind::Int];
    }
    f.name = format!("{}{}", flavor.prefix(), f.name);
    if !f.defined {
        return;
    }

    // Shadows for every other pointer register.
    for r in 0..nregs {
        if f.reg_kinds[r] == RegKind::Ptr && cx.shadows[r].is_none() {
            let b = f.new_reg(RegKind::Int);
            let e = f.new_reg(RegKind::Int);
            cx.shadows[r] = Some((b, e));
        }
    }

    for bi in 0..f.blocks.len() {
        let insts = std::mem::take(&mut f.blocks[bi].insts);
        let mut out = Vec::with_capacity(insts.len() * 2);
        for inst in insts {
            rewrite(inst, f, &cx, &mut out);
        }
        f.blocks[bi].insts = out;
    }
}

fn rewrite(inst: Inst, f: &mut Function, cx: &Cx<'_>, out: &mut Vec<Inst>) {
    let cfg = cx.cfg;
    match inst {
        Inst::Load { dst, mem, addr } => {
            if cfg.mode == CheckMode::Full {
                let (b, e) = cx.meta_of(&addr);
                out.push(Inst::Rt {
                    dsts: vec![],
                    rt: RtFn::SbCheck { is_store: false },
                    args: vec![addr, b, e, Value::Const(mem.size() as i64)],
                });
            }
            // Metadata lookup first: `addr` may be clobbered by the load
            // itself when dst == addr (e.g. `p = *p`).
            if mem.is_ptr() {
                let (db, de) = cx.shadow(dst);
                if cx.flavor.table() {
                    out.push(Inst::Rt {
                        dsts: vec![db, de],
                        rt: RtFn::SbMetaLoad,
                        args: vec![addr],
                    });
                } else {
                    for ((gep, word), dst) in inline_meta(f, addr).into_iter().zip([db, de]) {
                        out.push(gep);
                        out.push(Inst::Load {
                            dst,
                            mem: MemTy::I64,
                            addr: word,
                        });
                    }
                }
            }
            out.push(Inst::Load { dst, mem, addr });
        }
        Inst::Store { mem, addr, value } => {
            let (b, e) = cx.meta_of(&addr);
            out.push(Inst::Rt {
                dsts: vec![],
                rt: RtFn::SbCheck { is_store: true },
                args: vec![addr, b, e, Value::Const(mem.size() as i64)],
            });
            out.push(Inst::Store { mem, addr, value });
            if mem.is_ptr() {
                let (vb, ve) = cx.meta_of(&value);
                if cx.flavor.table() {
                    out.push(Inst::Rt {
                        dsts: vec![],
                        rt: RtFn::SbMetaStore,
                        args: vec![addr, vb, ve],
                    });
                } else {
                    for ((gep, word), value) in inline_meta(f, addr).into_iter().zip([vb, ve]) {
                        out.push(gep);
                        out.push(Inst::Store {
                            mem: MemTy::I64,
                            addr: word,
                            value,
                        });
                    }
                }
            }
        }
        Inst::Alloca { dst, info } => {
            let size = info.size;
            out.push(Inst::Alloca { dst, info });
            let (db, de) = cx.shadow(dst);
            out.push(Inst::Mov {
                dst: db,
                src: Value::Reg(dst),
            });
            out.push(Inst::Bin {
                dst: de,
                op: ArithOp::Add,
                k: IntKind::I64,
                lhs: Value::Reg(dst),
                rhs: Value::Const(size as i64),
            });
        }
        Inst::Gep {
            dst,
            base,
            index,
            scale,
            offset,
            field_size,
        } => {
            out.push(Inst::Gep {
                dst,
                base,
                index,
                scale,
                offset,
                field_size,
            });
            let (db, de) = cx.shadow(dst);
            match field_size.filter(|_| cx.flavor != Flavor::Mscc) {
                Some(sz) => {
                    // Shrink to the sub-object (§3.1): base = &field,
                    // bound = &field + sizeof(field).
                    out.push(Inst::Mov {
                        dst: db,
                        src: Value::Reg(dst),
                    });
                    out.push(Inst::Bin {
                        dst: de,
                        op: ArithOp::Add,
                        k: IntKind::I64,
                        lhs: Value::Reg(dst),
                        rhs: Value::Const(sz as i64),
                    });
                }
                None => {
                    // Pointer arithmetic inherits bounds; no check here —
                    // out-of-bounds pointers are legal until dereferenced.
                    let (bb, be) = cx.meta_of(&base);
                    out.push(Inst::Mov { dst: db, src: bb });
                    out.push(Inst::Mov { dst: de, src: be });
                }
            }
        }
        Inst::Mov { dst, src } => {
            out.push(Inst::Mov { dst, src });
            if f.reg_kind(dst) == RegKind::Ptr {
                let (sb, se) = cx.meta_of(&src);
                let (db, de) = cx.shadow(dst);
                out.push(Inst::Mov { dst: db, src: sb });
                out.push(Inst::Mov { dst: de, src: se });
            }
        }
        Inst::Ret { mut vals } => {
            if cx.ret_was_ptr {
                let (b, e) = cx.meta_of(&vals[0]);
                vals.push(b);
                vals.push(e);
            }
            out.push(Inst::Ret { vals });
        }
        Inst::Call {
            dsts,
            callee,
            args,
            ptr_hint,
            ..
        } => {
            rewrite_call(dsts, callee, args, ptr_hint, f, cx, out);
        }
        Inst::Rt { .. } => panic!("module already contains runtime calls"),
        other => out.push(other),
    }
}

fn rewrite_call(
    mut dsts: Vec<RegId>,
    callee: Callee,
    args: Vec<Value>,
    ptr_hint: bool,
    f: &Function,
    cx: &Cx<'_>,
    out: &mut Vec<Inst>,
) {
    match callee {
        Callee::Direct(fid) => {
            let pkinds = &cx.orig_params[fid.0 as usize];
            // Insert (base, bound) for each pointer parameter *between*
            // the fixed arguments and any variadic tail, matching the
            // extended parameter list of the transformed callee.
            let mut metas = Vec::new();
            for (i, k) in pkinds.iter().enumerate() {
                if *k == RegKind::Ptr {
                    let (b, e) = cx.meta_of(args.get(i).unwrap_or(&Value::Const(0)));
                    metas.push(b);
                    metas.push(e);
                }
            }
            let mut new_args = Vec::with_capacity(args.len() + metas.len());
            let fixed = pkinds.len().min(args.len());
            new_args.extend_from_slice(&args[..fixed]);
            new_args.extend(metas);
            new_args.extend_from_slice(&args[fixed..]);
            if cx.orig_rets[fid.0 as usize] == [RegKind::Ptr] && !dsts.is_empty() {
                let (db, de) = cx.shadow(dsts[0]);
                dsts.push(db);
                dsts.push(de);
            }
            out.push(Inst::Call {
                dsts,
                callee: Callee::Direct(fid),
                args: new_args,
                ptr_hint,
                wrapped: false,
            });
        }
        Callee::Indirect(target) => {
            // §5.2: a function pointer must carry the `base == bound ==
            // ptr` encoding of a real function address.
            if cx.flavor == Flavor::SoftBound {
                let (tb, te) = cx.meta_of(&target);
                out.push(Inst::Rt {
                    dsts: vec![],
                    rt: RtFn::SbFnCheck,
                    args: vec![target, tb, te],
                });
            }
            // Pointer-ness of arguments is judged by value kind; the
            // callee was transformed from matching parameter types.
            let mut new_args = args.clone();
            for a in &args {
                if cx.is_ptr_value(f, a) {
                    let (b, e) = cx.meta_of(a);
                    new_args.push(b);
                    new_args.push(e);
                }
            }
            if dsts.first().map(|d| f.reg_kind(*d)) == Some(RegKind::Ptr) {
                let (db, de) = cx.shadow(dsts[0]);
                dsts.push(db);
                dsts.push(de);
            }
            out.push(Inst::Call {
                dsts,
                callee: Callee::Indirect(target),
                args: new_args,
                ptr_hint,
                wrapped: false,
            });
        }
        Callee::Builtin(b) => rewrite_builtin(b, dsts, args, ptr_hint, cx, out),
    }
}

fn rewrite_builtin(
    b: Builtin,
    mut dsts: Vec<RegId>,
    args: Vec<Value>,
    ptr_hint: bool,
    cx: &Cx<'_>,
    out: &mut Vec<Inst>,
) {
    // `setbound(p, size)` compiles away entirely: the result is p with the
    // explicit bounds [p, p+size) (§5.2 "Creating pointers from integers").
    if b == Builtin::Setbound {
        if let Some(&d) = dsts.first() {
            let (db, de) = cx.shadow(d);
            out.push(Inst::Mov {
                dst: d,
                src: args[0],
            });
            out.push(Inst::Mov {
                dst: db,
                src: args[0],
            });
            out.push(Inst::Bin {
                dst: de,
                op: ArithOp::Add,
                k: IntKind::I64,
                lhs: args[0],
                rhs: args[1],
            });
        }
        return;
    }
    // Library-wrapper behaviour (§5.2): append (base, bound) for each
    // pointer parameter, in declaration order, after all arguments, then
    // one pair per variadic argument (printf's `%s` reads through one),
    // NULL for a non-pointer. The VM hands each pair, with the buffer it
    // bounds, to the runtime's `check_builtin_range`; a wrapped `va_arg_*`
    // checks its index against the arguments passed, and a wrapped
    // `memcpy` whose `ptr_hint` the type heuristic set copies metadata
    // through `on_memcpy`.
    let sig = b.sig();
    let mut new_args = args.clone();
    for (i, pty) in sig.params.iter().enumerate() {
        if pty.is_ptr() {
            let (mb, me) = cx.meta_of(args.get(i).unwrap_or(&Value::Const(0)));
            new_args.push(mb);
            new_args.push(me);
        }
    }
    for v in args.iter().skip(sig.params.len()) {
        let (mb, me) = match v {
            Value::Reg(r) if cx.shadows[r.0 as usize].is_none() => {
                (Value::Const(0), Value::Const(0))
            }
            _ => cx.meta_of(v),
        };
        new_args.push(mb);
        new_args.push(me);
    }
    if sig.ret.is_ptr() && !dsts.is_empty() {
        let (db, de) = cx.shadow(dsts[0]);
        dsts.push(db);
        dsts.push(de);
    }
    out.push(Inst::Call {
        dsts,
        callee: Callee::Builtin(b),
        args: new_args,
        ptr_hint,
        wrapped: true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SoftBoundConfig;

    fn instrumented(src: &str, cfg: &SoftBoundConfig) -> Module {
        flavored(src, cfg, Flavor::SoftBound)
    }

    fn flavored(src: &str, cfg: &SoftBoundConfig, flavor: Flavor) -> Module {
        let prog = sb_cir::compile(src).expect("compiles");
        let mut m = sb_ir::lower(&prog, "t");
        sb_ir::optimize(&mut m, sb_ir::OptLevel::PreInstrument);
        let m2 = instrument_flavored(&m, cfg, flavor);
        sb_ir::verify(&m2).unwrap_or_else(|e| panic!("instrumented module invalid: {e}\n{m2}"));
        m2
    }

    fn count_rt(m: &Module, pred: impl Fn(&RtFn) -> bool) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
            .filter(|i| matches!(i, Inst::Rt { rt, .. } if pred(rt)))
            .count()
    }

    #[test]
    fn functions_renamed_with_prefix() {
        let m = instrumented("int main() { return 0; }", &SoftBoundConfig::default());
        assert!(m.func("_sb_main").is_some());
        assert!(m.func("main").is_none());
    }

    #[test]
    fn pointer_params_gain_base_and_bound() {
        let m = instrumented(
            "int f(int* p, int n) { return n; } int main() { return 0; }",
            &SoftBoundConfig::default(),
        );
        let f = m.func("_sb_f").expect("exists");
        assert_eq!(f.params.len(), 4, "p, n, p_base, p_bound");
    }

    #[test]
    fn pointer_returns_become_three_values() {
        let m = instrumented(
            "char* id(char* p) { return p; } int main() { return 0; }",
            &SoftBoundConfig::default(),
        );
        let f = m.func("_sb_id").expect("exists");
        assert_eq!(f.ret_kinds.len(), 3);
        let rets: Vec<usize> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::Ret { vals } => Some(vals.len()),
                _ => None,
            })
            .collect();
        assert!(rets.iter().all(|&n| n == 3));
    }

    #[test]
    fn full_mode_checks_loads_and_stores() {
        let src = "int g; int main() { g = 5; return g; }";
        let full = instrumented(src, &SoftBoundConfig::full_shadow());
        let store_only = instrumented(src, &SoftBoundConfig::store_only_shadow());
        let full_load_checks =
            count_rt(&full, |rt| matches!(rt, RtFn::SbCheck { is_store: false }));
        let full_store_checks =
            count_rt(&full, |rt| matches!(rt, RtFn::SbCheck { is_store: true }));
        assert!(full_load_checks >= 1);
        assert!(full_store_checks >= 1);
        assert_eq!(
            count_rt(&store_only, |rt| matches!(
                rt,
                RtFn::SbCheck { is_store: false }
            )),
            0,
            "store-only mode must not check loads"
        );
        assert!(
            count_rt(&store_only, |rt| matches!(
                rt,
                RtFn::SbCheck { is_store: true }
            )) >= 1
        );
    }

    #[test]
    fn store_only_still_propagates_metadata() {
        let src = "int* g; int main() { int* p = g; g = p; return 0; }";
        let m = instrumented(src, &SoftBoundConfig::store_only_shadow());
        assert!(
            count_rt(&m, |rt| matches!(rt, RtFn::SbMetaLoad)) >= 1,
            "metadata loads kept:\n{m}"
        );
        assert!(
            count_rt(&m, |rt| matches!(rt, RtFn::SbMetaStore)) >= 1,
            "metadata stores kept"
        );
    }

    #[test]
    fn pointer_loads_get_meta_loads() {
        let m = instrumented(
            "int* f(int** pp) { return *pp; } int main() { return 0; }",
            &SoftBoundConfig::default(),
        );
        assert_eq!(count_rt(&m, |rt| matches!(rt, RtFn::SbMetaLoad)), 1);
    }

    #[test]
    fn indirect_calls_check_function_pointers() {
        let m = instrumented(
            "int apply(int (*f)(int), int v) { return f(v); } int main() { return 0; }",
            &SoftBoundConfig::default(),
        );
        assert_eq!(count_rt(&m, |rt| matches!(rt, RtFn::SbFnCheck)), 1);
    }

    #[test]
    fn globals_init_synthesized_and_called() {
        let m = instrumented(
            "int x; int* px = &x; int main() { return *px; }",
            &SoftBoundConfig::default(),
        );
        let init = m
            .funcs
            .iter()
            .find(|f| f.name.starts_with(GLOBALS_INIT_PREFIX))
            .expect("init function exists");
        let meta_stores = init
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i,
                    Inst::Rt {
                        rt: RtFn::SbMetaStore,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(meta_stores, 1, "px gets its metadata seeded");
        assert!(
            init.name.starts_with("__ctor."),
            "runs via the VM constructor convention"
        );
    }

    #[test]
    fn setbound_compiles_away() {
        let m = instrumented(
            r#"int main() { char* p = (char*)setbound((void*)4096, 64); return p != 0; }"#,
            &SoftBoundConfig::default(),
        );
        let setbound_calls = m
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
            .filter(|i| {
                matches!(
                    i,
                    Inst::Call {
                        callee: Callee::Builtin(Builtin::Setbound),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(setbound_calls, 0, "setbound becomes explicit bound moves");
    }

    #[test]
    fn memcpy_heuristic_controls_meta_copy() {
        // The type heuristic's verdict rides on the wrapped call as
        // `ptr_hint`; the VM copies metadata (`on_memcpy`) only when set.
        let with_ptrs = r#"
            struct holder { char* p; };
            int main() {
                struct holder a; struct holder b;
                a.p = (char*)&a;
                memcpy(&b, &a, sizeof(struct holder));
                return 0;
            }"#;
        let no_ptrs = r#"
            int main() {
                char a[8]; char b[8];
                memcpy(b, a, 8);
                return 0;
            }"#;
        let memcpy_call = |src| {
            let m = instrumented(src, &SoftBoundConfig::default());
            m.funcs
                .iter()
                .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
                .find_map(|i| match i {
                    Inst::Call {
                        callee: Callee::Builtin(Builtin::Memcpy),
                        ptr_hint,
                        wrapped,
                        ..
                    } => Some((*ptr_hint, *wrapped)),
                    _ => None,
                })
                .expect("memcpy call present")
        };
        assert_eq!(memcpy_call(with_ptrs), (true, true));
        assert_eq!(memcpy_call(no_ptrs), (false, true));
    }

    #[test]
    fn builtin_calls_are_wrapped() {
        let m = instrumented(
            r#"int main() { char b[8]; strcpy(b, "hi"); return 0; }"#,
            &SoftBoundConfig::default(),
        );
        let wrapped = m
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
            .filter_map(|i| match i {
                Inst::Call {
                    callee: Callee::Builtin(Builtin::Strcpy),
                    args,
                    wrapped,
                    ..
                } => Some((args.len(), *wrapped)),
                _ => None,
            })
            .next()
            .expect("strcpy call present");
        assert_eq!(
            wrapped,
            (6, true),
            "dst, src + 2×(base,bound), wrapped flag"
        );
    }

    #[test]
    fn instrumentation_survives_post_optimization() {
        // §6.1: the full optimizer re-runs after instrumentation. DCE must
        // never delete checks; the only pass allowed to drop one is
        // redundant-check elimination, so the count may shrink but a
        // non-trivial set must remain.
        let src = r#"
            int sum(int* xs, int n) { int s = 0; for (int i = 0; i < n; i++) s += xs[i]; return s; }
            int main() { int a[4]; a[0] = 1; return sum(a, 4); }
        "#;
        let mut m = instrumented(src, &SoftBoundConfig::default());
        let checks_before = count_rt(&m, |rt| matches!(rt, RtFn::SbCheck { .. }));
        let stats = sb_ir::optimize_with_stats(&mut m, sb_ir::OptLevel::PostInstrument);
        sb_ir::verify(&m).expect("still valid");
        let checks_after = count_rt(&m, |rt| matches!(rt, RtFn::SbCheck { .. }));
        assert_eq!(
            checks_after + stats.checks_eliminated,
            checks_before,
            "every missing check must be accounted for by the elimination pass"
        );
        assert!(checks_after > 0, "the loop-carried checks must survive");
    }

    #[test]
    fn redundant_rechecks_of_same_pointer_eliminated() {
        // The same dereference repeated in straight-line code with no
        // intervening pointer store or call: the second (and further)
        // checks of the identical (ptr, base, bound, size) are redundant.
        let src = r#"
            int g;
            int twice(int* p) { return *p + *p + *p; }
            int main() { return twice(&g); }
        "#;
        let engine = crate::Engine::new();
        let program = engine.compile(src).expect("compiles");
        assert!(
            program.stats().checks_eliminated > 0,
            "repeated *p loads must share one check:\n{}",
            program.module()
        );
        // The protected program still runs and computes the same value.
        let r = engine.instantiate(&program).run("main", &[]);
        assert_eq!(r.ret(), Some(0), "{:?}", r.outcome);
    }
}
