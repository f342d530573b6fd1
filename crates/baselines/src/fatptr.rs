//! The fat-pointer baseline (SafeC / CCured-SEQ style, §2.2).
//!
//! Pointers in memory become 24-byte `{value, base, bound}` triples. The
//! program must therefore be compiled with [`PtrLayout::Fat`], which
//! **visibly changes memory layout**: `sizeof(char*)` is 24, struct
//! offsets move, and `sizeof(long) == sizeof(char*)` — an assumption
//! everywhere in real C — breaks. That is the source-compatibility
//! problem the paper's disjoint metadata removes.
//!
//! Mechanically, metadata travels inline: loading a pointer performs three
//! loads (value, base, bound); storing performs three stores. There is no
//! metadata table at all — the only runtime call is the bounds check —
//! so the *performance* profile differs from SoftBound exactly as the
//! paper describes: cheaper metadata access, at the price of layout
//! incompatibility (and of metadata corruptibility through wild writes,
//! the CCured-WILD problem).

use sb_cir::PtrLayout;
use sb_ir::{
    ArithOp, Callee, Function, GInit, Global, Inst, IntKind, MemTy, Module, RegId, RegKind, RtFn,
    Value,
};
use sb_vm::{out_of_bounds, Mem, RtCtx, RtVals, RuntimeHooks, Trap};
use softbound::SoftBoundError;

/// Function prefix for the fat-pointer transformation.
pub const FAT_PREFIX: &str = "_fat_";

/// Compiles a CIR-C source with the fat (24-byte) pointer layout.
///
/// # Errors
///
/// Frontend errors.
pub fn compile_fat(src: &str, name: &str) -> Result<Module, sb_cir::CompileError> {
    let prog = sb_cir::compile_with_layout(src, PtrLayout::Fat)?;
    let mut m = sb_ir::lower(&prog, name);
    sb_ir::optimize(&mut m, sb_ir::OptLevel::PreInstrument);
    Ok(m)
}

/// Applies the fat-pointer transformation. The module must have been
/// lowered with the fat layout (24-byte pointer slots).
pub fn instrument_fat(module: &Module) -> Module {
    let mut m = module.clone();
    let orig_params: Vec<Vec<RegKind>> = m.funcs.iter().map(|f| f.param_kinds.clone()).collect();
    let orig_rets: Vec<Vec<RegKind>> = m.funcs.iter().map(|f| f.ret_kinds.clone()).collect();
    let global_sizes: Vec<u64> = m.globals.iter().map(|g| g.size).collect();
    for f in &mut m.funcs {
        transform_fn(f, &orig_params, &orig_rets, &global_sizes);
    }
    let init = build_globals_init(&m.globals, &m.name);
    m.funcs.push(init);
    m
}

/// Writes inline base/bound words for pointer-valued global initializers
/// (plain stores at `slot+8` / `slot+16` — no metadata table exists).
fn build_globals_init(globals: &[Global], module_name: &str) -> Function {
    let mut f = Function {
        name: format!("__ctor.fat_globals.{module_name}"),
        params: vec![],
        param_kinds: vec![],
        ret_kinds: vec![],
        reg_kinds: vec![],
        blocks: vec![],
        vararg: false,
        defined: true,
    };
    let b = f.new_block();
    for (gi, g) in globals.iter().enumerate() {
        for (off, init) in &g.init {
            if g.ptr_slots.binary_search(off).is_err() {
                continue;
            }
            let (base, bound) = match init {
                GInit::GlobalAddr { id, .. } => (
                    Value::GlobalAddr { id: *id, offset: 0 },
                    Value::GlobalAddr {
                        id: *id,
                        offset: globals[id.0 as usize].size,
                    },
                ),
                GInit::FuncAddr(fid) => (Value::FuncAddr(*fid), Value::FuncAddr(*fid)),
                GInit::Bytes(_) => continue,
            };
            let slot = Value::GlobalAddr {
                id: sb_ir::GlobalId(gi as u32),
                offset: off + 8,
            };
            let slot2 = Value::GlobalAddr {
                id: sb_ir::GlobalId(gi as u32),
                offset: off + 16,
            };
            f.blocks[b.0 as usize].insts.push(Inst::Store {
                mem: MemTy::I64,
                addr: slot,
                value: base,
            });
            f.blocks[b.0 as usize].insts.push(Inst::Store {
                mem: MemTy::I64,
                addr: slot2,
                value: bound,
            });
        }
    }
    f.blocks[b.0 as usize]
        .insts
        .push(Inst::Ret { vals: vec![] });
    f
}

struct Cx<'a> {
    shadows: Vec<Option<(RegId, RegId)>>,
    orig_params: &'a [Vec<RegKind>],
    orig_rets: &'a [Vec<RegKind>],
    global_sizes: &'a [u64],
    ret_was_ptr: bool,
}

impl Cx<'_> {
    fn meta_of(&self, v: &Value) -> (Value, Value) {
        match v {
            Value::Reg(r) => self.shadows[r.0 as usize]
                .map(|(b, e)| (Value::Reg(b), Value::Reg(e)))
                .unwrap_or((Value::Const(0), Value::Const(0))),
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
}

fn transform_fn(
    f: &mut Function,
    orig_params: &[Vec<RegKind>],
    orig_rets: &[Vec<RegKind>],
    global_sizes: &[u64],
) {
    if f.name.starts_with(FAT_PREFIX) {
        return;
    }
    let nregs = f.reg_kinds.len();
    let mut cx = Cx {
        shadows: vec![None; nregs],
        orig_params,
        orig_rets,
        global_sizes,
        ret_was_ptr: f.ret_kinds == [RegKind::Ptr],
    };
    let ptr_param_regs: Vec<RegId> = f
        .params
        .iter()
        .zip(&f.param_kinds)
        .filter(|(_, k)| **k == RegKind::Ptr)
        .map(|(r, _)| *r)
        .collect();
    for preg in ptr_param_regs {
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
    f.name = format!("{FAT_PREFIX}{}", f.name);
    if !f.defined {
        return;
    }
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
            rewrite(inst, f, &mut cx, &mut out, bi);
        }
        f.blocks[bi].insts = out;
    }
}

/// Helper: `tmp = addr + disp` into a fresh scratch register. Scratch
/// registers are appended to the function (allowed — reg_kinds grows).
fn addr_plus(
    f: &Function,
    out: &mut Vec<Inst>,
    scratch: &mut Vec<RegId>,
    addr: Value,
    disp: i64,
) -> Value {
    let _ = f;
    let r = scratch.pop().expect("scratch preallocated");
    out.push(Inst::Gep {
        dst: r,
        base: addr,
        index: Value::Const(0),
        scale: 0,
        offset: disp,
        field_size: None,
    });
    Value::Reg(r)
}

fn rewrite(inst: Inst, f: &mut Function, cx: &mut Cx<'_>, out: &mut Vec<Inst>, _bi: usize) {
    match inst {
        Inst::Load { dst, mem, addr } => {
            let (b, e) = cx.meta_of(&addr);
            out.push(Inst::Rt {
                dsts: vec![],
                rt: RtFn::FatCheck { is_store: false },
                args: vec![addr, b, e, Value::Const(mem.size() as i64)],
            });
            if mem.is_ptr() {
                // Load the inline metadata words first (addr may be
                // clobbered when dst == addr), then the value.
                let (db, de) = cx.shadow(dst);
                let mut scratch = vec![f.new_reg(RegKind::Ptr), f.new_reg(RegKind::Ptr)];
                let a8 = addr_plus(f, out, &mut scratch, addr, 8);
                out.push(Inst::Load {
                    dst: db,
                    mem: MemTy::I64,
                    addr: a8,
                });
                let a16 = addr_plus(f, out, &mut scratch, addr, 16);
                out.push(Inst::Load {
                    dst: de,
                    mem: MemTy::I64,
                    addr: a16,
                });
            }
            out.push(Inst::Load { dst, mem, addr });
        }
        Inst::Store { mem, addr, value } => {
            let (b, e) = cx.meta_of(&addr);
            out.push(Inst::Rt {
                dsts: vec![],
                rt: RtFn::FatCheck { is_store: true },
                args: vec![addr, b, e, Value::Const(mem.size() as i64)],
            });
            out.push(Inst::Store { mem, addr, value });
            if mem.is_ptr() {
                let (vb, ve) = cx.meta_of(&value);
                let mut scratch = vec![f.new_reg(RegKind::Ptr), f.new_reg(RegKind::Ptr)];
                let a8 = addr_plus(f, out, &mut scratch, addr, 8);
                out.push(Inst::Store {
                    mem: MemTy::I64,
                    addr: a8,
                    value: vb,
                });
                let a16 = addr_plus(f, out, &mut scratch, addr, 16);
                out.push(Inst::Store {
                    mem: MemTy::I64,
                    addr: a16,
                    value: ve,
                });
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
            match field_size {
                Some(sz) => {
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
            mut dsts,
            callee,
            args,
            ptr_hint,
            ..
        } => match callee {
            Callee::Direct(fid) => {
                let pkinds = &cx.orig_params[fid.0 as usize];
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
                let mut new_args = args.clone();
                for a in &args {
                    let is_ptr = match a {
                        Value::Reg(r) => f.reg_kind(*r) == RegKind::Ptr,
                        Value::GlobalAddr { .. } | Value::FuncAddr(_) => true,
                        Value::Const(_) => false,
                    };
                    if is_ptr {
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
            Callee::Builtin(b) => {
                let sig = b.sig();
                let mut new_args = args.clone();
                for (i, pty) in sig.params.iter().enumerate() {
                    if pty.is_ptr() {
                        let (mb, me) = cx.meta_of(args.get(i).unwrap_or(&Value::Const(0)));
                        new_args.push(mb);
                        new_args.push(me);
                    }
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
        },
        Inst::Rt { .. } => panic!("module already instrumented"),
        other => out.push(other),
    }
}

/// Runtime for the fat-pointer scheme: only the bounds check — metadata
/// movement is ordinary memory traffic.
#[derive(Debug, Default)]
pub struct FatPtrRuntime {
    /// Checks performed.
    pub check_count: u64,
}

impl FatPtrRuntime {
    /// Creates the runtime.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RuntimeHooks for FatPtrRuntime {
    fn rt_call(
        &mut self,
        rt: RtFn,
        args: &[i64],
        _mem: &mut Mem,
        ctx: &mut RtCtx,
    ) -> Result<RtVals, Trap> {
        match rt {
            RtFn::FatCheck { is_store } => {
                self.check_count += 1;
                ctx.cost += 3;
                let (ptr, base, bound, size) = (
                    args[0] as u64,
                    args[1] as u64,
                    args[2] as u64,
                    args[3] as u64,
                );
                if base == 0 || out_of_bounds(ptr, size, base, bound).is_some() {
                    Err(Trap::SpatialViolation {
                        scheme: "fatptr",
                        addr: ptr,
                        write: is_store,
                    })
                } else {
                    Ok([0, 0])
                }
            }
            other => panic!("fatptr runtime received foreign rt call {other:?}"),
        }
    }

    fn reset(&mut self) {
        self.check_count = 0;
    }
}

/// One-call pipeline: compile fat, instrument, verify.
///
/// # Errors
///
/// Frontend errors or verifier failures, as [`SoftBoundError`].
pub fn compile_fat_protected(src: &str) -> Result<Module, SoftBoundError> {
    let m = compile_fat(src, "fat")?;
    let mut m = instrument_fat(&m);
    sb_ir::optimize(&mut m, sb_ir::OptLevel::PostInstrument);
    sb_ir::verify(&m)?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_vm::{Machine, MachineConfig};

    fn run_fat(src: &str) -> sb_vm::RunResult {
        let m = compile_fat_protected(src).expect("compiles");
        let mut machine = Machine::new(&m, MachineConfig::default(), FatPtrRuntime::new());
        machine.run("main", &[])
    }

    #[test]
    fn safe_pointer_program_runs() {
        let r = run_fat(
            r#"
            struct node { int v; struct node* next; };
            int main() {
                struct node* head = NULL;
                for (int i = 0; i < 10; i++) {
                    struct node* n = (struct node*)malloc(sizeof(struct node));
                    n->v = i; n->next = head; head = n;
                }
                int s = 0;
                while (head) { s += head->v; head = head->next; }
                return s == 45;
            }"#,
        );
        assert_eq!(r.ret(), Some(1), "{:?}", r.outcome);
    }

    #[test]
    fn overflow_detected() {
        let r = run_fat(
            r#"
            int main() {
                int* p = (int*)malloc(4 * sizeof(int));
                p[4] = 1;
                return 0;
            }"#,
        );
        assert!(r.outcome.is_spatial_violation(), "{:?}", r.outcome);
    }

    #[test]
    fn sub_object_overflow_detected() {
        // SafeC-style fat pointers do shrink to fields (Table 1:
        // complete), like SoftBound.
        let r = run_fat(
            r#"
            struct node { char str[8]; long tag; };
            int main() {
                struct node n;
                n.tag = 7;
                char* p = n.str;
                p[8] = 'x';
                return 0;
            }"#,
        );
        assert!(r.outcome.is_spatial_violation(), "{:?}", r.outcome);
    }

    #[test]
    fn layout_change_is_programmer_visible() {
        // The §2.2 incompatibility, executed: idiomatic C that assumes
        // sizeof(long) == sizeof(char*) returns different results.
        let src = "int main() { return sizeof(char*) == sizeof(long); }";
        let thin = sb_vm::run_source(src, "main", &[]);
        assert_eq!(thin.ret(), Some(1));
        let fat = run_fat(src);
        assert_eq!(fat.ret(), Some(0), "fat pointers break sizeof assumptions");
    }

    #[test]
    fn wild_int_cast_roundtrip_breaks() {
        // CCured-SEQ cannot round-trip pointers through integers: the
        // metadata is lost and the dereference (correct in plain C) traps —
        // the "arbitrary casts: No" column of Table 1.
        let src = r#"
            int main() {
                int x = 5;
                int* p = &x;
                long l = (long)p;
                int* q = (int*)l;
                return *q;
            }
        "#;
        let plain = sb_vm::run_source(src, "main", &[]);
        assert_eq!(plain.ret(), Some(5));
        let fat = run_fat(src);
        assert!(fat.outcome.is_spatial_violation(), "{:?}", fat.outcome);
    }

    #[test]
    fn global_fat_pointer_initializers() {
        let r = run_fat(
            r#"
            int table[4] = {1, 2, 3, 4};
            int* cursor = &table[0];
            int main() { return cursor[0] + cursor[3]; }
        "#,
        );
        assert_eq!(r.ret(), Some(5), "{:?}", r.outcome);
    }

    #[test]
    fn metadata_is_plain_memory_traffic() {
        // No metadata runtime calls exist: only FatCheck.
        let m = compile_fat_protected("int* g; int main() { int* p = g; g = p; return 0; }")
            .expect("compiles");
        let rt_kinds: Vec<RtFn> = m
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
            .filter_map(|i| match i {
                Inst::Rt { rt, .. } => Some(*rt),
                _ => None,
            })
            .collect();
        assert!(
            rt_kinds
                .iter()
                .all(|rt| matches!(rt, RtFn::FatCheck { .. })),
            "{rt_kinds:?}"
        );
    }
}
