//! Lowering from the typed HIR (`sb-cir`) to the register-machine IR.
//!
//! Design notes that matter for fidelity to the paper:
//!
//! * **Register promotion happens here.** Scalar locals whose address is
//!   never taken are mapped straight to registers (no `Alloca`, no
//!   loads/stores). This mirrors §6.1: SoftBound instruments *after*
//!   LLVM's optimizations, so register promotion has already removed most
//!   scalar memory traffic, and only "real" memory operations remain to be
//!   checked.
//! * **Field GEPs are marked.** Address computations that enter a struct
//!   field carry `field_size`, which is where the SoftBound pass shrinks
//!   bounds (§3.1) — this is what catches the §2.1 sub-object overflow.
//! * **The pointer layout is honored.** All sizes/offsets come from the
//!   program's [`TypeTable`], so lowering a fat-pointer program produces
//!   24-byte pointer slots automatically.

use crate::ir::*;
use sb_cir::hir::{
    self, ArithOp as HArith, Builtin, CallTarget, CastKind, CmpOp as HCmp, ConstItem, Expr,
    ExprKind, LocalId, LocalInit, Place, Program, Stmt, UnaryOp,
};
use sb_cir::types::{IntKind, Ty, TypeTable};
use std::collections::HashMap;

/// Lowers a type-checked program to an IR module.
///
/// # Panics
///
/// Panics on internal invariant violations only; all user-facing errors are
/// rejected by the type checker first.
pub fn lower(prog: &Program, module_name: &str) -> Module {
    let mut module = Module {
        name: module_name.to_owned(),
        ..Module::default()
    };

    // Globals first (contiguous layout order), then interned strings.
    let mut global_ids: HashMap<String, GlobalId> = HashMap::new();
    for g in &prog.globals {
        let id = GlobalId(module.globals.len() as u32);
        global_ids.insert(g.name.clone(), id);
        module.globals.push(Global {
            name: g.name.clone(),
            size: prog.types.size_of(&g.ty),
            align: prog.types.align_of(&g.ty).max(1),
            init: Vec::new(), // filled after ids are known
        });
    }
    let mut str_gids = Vec::with_capacity(prog.strings.len());
    for (i, s) in prog.strings.iter().enumerate() {
        let id = GlobalId(module.globals.len() as u32);
        str_gids.push(id);
        let mut bytes = s.clone();
        bytes.push(0);
        module.globals.push(Global {
            name: format!(".str.{i}"),
            size: bytes.len() as u64,
            align: 1,
            init: vec![(0, GInit::Bytes(bytes))],
        });
    }

    // Function ids (defined and external, in program order).
    let mut func_ids: HashMap<String, FuncId> = HashMap::new();
    for f in &prog.funcs {
        func_ids.insert(f.name.clone(), FuncId(func_ids.len() as u32));
    }

    // Now resolve global initializers.
    for (gi, g) in prog.globals.iter().enumerate() {
        let mut init = Vec::new();
        for (off, item) in &g.init {
            let gin = match item {
                ConstItem::Int { value, size } => {
                    GInit::Bytes(value.to_le_bytes()[..*size as usize].to_vec())
                }
                ConstItem::Str(sid) => GInit::GlobalAddr {
                    id: str_gids[sid.0 as usize],
                    offset: 0,
                },
                ConstItem::GlobalAddr { name, offset } => GInit::GlobalAddr {
                    id: global_ids[name],
                    offset: *offset,
                },
                ConstItem::FuncAddr(name) => GInit::FuncAddr(func_ids[name]),
            };
            init.push((*off, gin));
        }
        module.globals[gi].init = init;
    }

    // Lower every function.
    for f in &prog.funcs {
        let lowered = FnCx::new(prog, &func_ids, &global_ids, &str_gids).lower_fn(f);
        module.funcs.push(lowered);
    }
    module
}

/// Where a local lives after lowering.
#[derive(Clone, Copy)]
enum Slot {
    /// Promoted to a register.
    Reg(RegId),
    /// Stack slot; the register holds the alloca'd address.
    Mem(RegId),
}

struct LoopCtx {
    break_to: BlockId,
    continue_to: BlockId,
}

struct FnCx<'a> {
    prog: &'a Program,
    func_ids: &'a HashMap<String, FuncId>,
    global_ids: &'a HashMap<String, GlobalId>,
    str_gids: &'a [GlobalId],
    f: Function,
    cur: BlockId,
    locals: Vec<Slot>,
    loops: Vec<LoopCtx>,
}

impl<'a> FnCx<'a> {
    fn new(
        prog: &'a Program,
        func_ids: &'a HashMap<String, FuncId>,
        global_ids: &'a HashMap<String, GlobalId>,
        str_gids: &'a [GlobalId],
    ) -> Self {
        FnCx {
            prog,
            func_ids,
            global_ids,
            str_gids,
            f: Function {
                name: String::new(),
                params: Vec::new(),
                param_kinds: Vec::new(),
                ret_kinds: Vec::new(),
                reg_kinds: Vec::new(),
                blocks: Vec::new(),
                vararg: false,
                defined: true,
            },
            cur: BlockId(0),
            locals: Vec::new(),
            loops: Vec::new(),
        }
    }

    fn types(&self) -> &TypeTable {
        &self.prog.types
    }

    fn emit(&mut self, inst: Inst) {
        self.f.blocks[self.cur.0 as usize].insts.push(inst);
    }

    fn cur_terminated(&self) -> bool {
        self.f.blocks[self.cur.0 as usize]
            .insts
            .last()
            .map(Inst::is_terminator)
            .unwrap_or(false)
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    fn kind_of_ty(ty: &Ty) -> RegKind {
        if ty.is_ptr() {
            RegKind::Ptr
        } else {
            RegKind::Int
        }
    }

    fn ret_kinds_of(ty: &Ty) -> Vec<RegKind> {
        match ty {
            Ty::Void => Vec::new(),
            t => vec![Self::kind_of_ty(t)],
        }
    }

    fn lower_fn(mut self, hf: &hir::FuncDef) -> Function {
        self.f.name = hf.name.clone();
        self.f.vararg = hf.sig.vararg;
        self.f.ret_kinds = Self::ret_kinds_of(&hf.sig.ret);
        self.f.defined = hf.defined;
        if !hf.defined {
            self.f.param_kinds = hf.sig.params.iter().map(Self::kind_of_ty).collect();
            return self.f;
        }
        self.f.new_block(); // entry

        // Parameter registers.
        for ty in &hf.sig.params {
            let r = self.f.new_reg(Self::kind_of_ty(ty));
            self.f.params.push(r);
            self.f.param_kinds.push(Self::kind_of_ty(ty));
        }

        // Local slots: scalars not address-taken are promoted to registers;
        // everything else gets an alloca. Frame layout follows alloca
        // emission order (lower addresses first): plain locals in
        // declaration order, then spilled parameters — mirroring cdecl,
        // where arguments live above the locals (and above the saved
        // frame pointer / return address, which the VM places after the
        // last alloca). The Wilander stack attacks rely on this layout.
        let nparams = hf.sig.params.len();
        self.locals = vec![Slot::Reg(RegId(u32::MAX)); hf.locals.len()];
        let mut spills: Vec<usize> = Vec::new();
        for (i, l) in hf.locals.iter().enumerate() {
            let is_param = i < nparams;
            let needs_mem = l.addr_taken || matches!(l.ty, Ty::Array(..) | Ty::Struct(_));
            if needs_mem && is_param {
                spills.push(i); // emitted after plain locals
            } else if needs_mem {
                let addr = self.emit_alloca(l);
                self.locals[i] = Slot::Mem(addr);
            } else if is_param {
                self.locals[i] = Slot::Reg(self.f.params[i]);
            } else {
                let r = self.f.new_reg(Self::kind_of_ty(&l.ty));
                self.locals[i] = Slot::Reg(r);
            }
        }
        for i in spills {
            let l = &hf.locals[i];
            let ty = l.ty.clone();
            let addr = self.emit_alloca(&hf.locals[i]);
            let mem = self.mem_ty(&ty);
            self.emit(Inst::Store {
                mem,
                addr: addr.into(),
                value: self.f.params[i].into(),
            });
            self.locals[i] = Slot::Mem(addr);
        }

        for st in &hf.body {
            self.stmt(st, hf);
        }

        // Finalize: terminate every dangling block with a default return.
        let default_ret = match self.f.ret_kinds.len() {
            0 => Inst::Ret { vals: vec![] },
            _ => Inst::Ret {
                vals: vec![Value::Const(0)],
            },
        };
        for b in &mut self.f.blocks {
            if !b.insts.last().map(Inst::is_terminator).unwrap_or(false) {
                b.insts.push(default_ret.clone());
            }
        }
        self.f
    }

    fn emit_alloca(&mut self, l: &sb_cir::hir::Local) -> RegId {
        let addr = self.f.new_reg(RegKind::Ptr);
        let info = AllocaInfo {
            name: l.name.clone(),
            size: self.types().size_of(&l.ty),
            align: self.types().align_of(&l.ty).max(1),
            holds_ptrs: l.ty.contains_ptr(self.types()),
        };
        self.emit(Inst::Alloca { dst: addr, info });
        addr
    }

    fn mem_ty(&self, ty: &Ty) -> MemTy {
        match ty {
            Ty::Int(IntKind::I8) => MemTy::I8,
            Ty::Int(IntKind::U8) => MemTy::U8,
            Ty::Int(IntKind::I16) => MemTy::I16,
            Ty::Int(IntKind::U16) => MemTy::U16,
            Ty::Int(IntKind::I32) => MemTy::I32,
            Ty::Int(IntKind::U32) => MemTy::U32,
            Ty::Int(IntKind::I64 | IntKind::U64) => MemTy::I64,
            Ty::Ptr(_) => MemTy::Ptr,
            t => panic!("no memory type for aggregate {t:?}"),
        }
    }

    // ----------------------------------------------------------- statements

    fn stmt(&mut self, st: &Stmt, hf: &hir::FuncDef) {
        if self.cur_terminated() {
            // Dead code after return/break — skip (C allows it).
            return;
        }
        match st {
            Stmt::Expr(e) => {
                let _ = self.value(e);
            }
            Stmt::DeclInit { id, init } => self.decl_init(*id, init.as_ref(), hf),
            Stmt::Block(b) => {
                for s in b {
                    self.stmt(s, hf);
                }
            }
            Stmt::If { cond, then, els } => {
                let c = self.value(cond);
                let then_b = self.f.new_block();
                let else_b = self.f.new_block();
                let end_b = self.f.new_block();
                self.emit(Inst::Br {
                    cond: c,
                    then_to: then_b,
                    else_to: else_b,
                });
                self.switch_to(then_b);
                for s in then {
                    self.stmt(s, hf);
                }
                if !self.cur_terminated() {
                    self.emit(Inst::Jmp { to: end_b });
                }
                self.switch_to(else_b);
                for s in els {
                    self.stmt(s, hf);
                }
                if !self.cur_terminated() {
                    self.emit(Inst::Jmp { to: end_b });
                }
                self.switch_to(end_b);
            }
            Stmt::While { cond, body } => {
                let head = self.f.new_block();
                let body_b = self.f.new_block();
                let end = self.f.new_block();
                self.emit(Inst::Jmp { to: head });
                self.switch_to(head);
                let c = self.value(cond);
                self.emit(Inst::Br {
                    cond: c,
                    then_to: body_b,
                    else_to: end,
                });
                self.switch_to(body_b);
                self.loops.push(LoopCtx {
                    break_to: end,
                    continue_to: head,
                });
                for s in body {
                    self.stmt(s, hf);
                }
                self.loops.pop();
                if !self.cur_terminated() {
                    self.emit(Inst::Jmp { to: head });
                }
                self.switch_to(end);
            }
            Stmt::DoWhile { cond, body } => {
                let body_b = self.f.new_block();
                let cond_b = self.f.new_block();
                let end = self.f.new_block();
                self.emit(Inst::Jmp { to: body_b });
                self.switch_to(body_b);
                self.loops.push(LoopCtx {
                    break_to: end,
                    continue_to: cond_b,
                });
                for s in body {
                    self.stmt(s, hf);
                }
                self.loops.pop();
                if !self.cur_terminated() {
                    self.emit(Inst::Jmp { to: cond_b });
                }
                self.switch_to(cond_b);
                let c = self.value(cond);
                self.emit(Inst::Br {
                    cond: c,
                    then_to: body_b,
                    else_to: end,
                });
                self.switch_to(end);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                for s in init {
                    self.stmt(s, hf);
                }
                let head = self.f.new_block();
                let body_b = self.f.new_block();
                let step_b = self.f.new_block();
                let end = self.f.new_block();
                self.emit(Inst::Jmp { to: head });
                self.switch_to(head);
                match cond {
                    Some(c) => {
                        let cv = self.value(c);
                        self.emit(Inst::Br {
                            cond: cv,
                            then_to: body_b,
                            else_to: end,
                        });
                    }
                    None => self.emit(Inst::Jmp { to: body_b }),
                }
                self.switch_to(body_b);
                self.loops.push(LoopCtx {
                    break_to: end,
                    continue_to: step_b,
                });
                for s in body {
                    self.stmt(s, hf);
                }
                self.loops.pop();
                if !self.cur_terminated() {
                    self.emit(Inst::Jmp { to: step_b });
                }
                self.switch_to(step_b);
                if let Some(sexpr) = step {
                    let _ = self.value(sexpr);
                }
                self.emit(Inst::Jmp { to: head });
                self.switch_to(end);
            }
            Stmt::Return(None) => self.emit(Inst::Ret { vals: vec![] }),
            Stmt::Return(Some(e)) => {
                let v = self.value(e);
                self.emit(Inst::Ret { vals: vec![v] });
            }
            Stmt::Break => {
                let to = self
                    .loops
                    .last()
                    .expect("typeck enforces loop context")
                    .break_to;
                self.emit(Inst::Jmp { to });
            }
            Stmt::Continue => {
                let to = self
                    .loops
                    .last()
                    .expect("typeck enforces loop context")
                    .continue_to;
                self.emit(Inst::Jmp { to });
            }
        }
    }

    fn decl_init(&mut self, id: LocalId, init: Option<&LocalInit>, hf: &hir::FuncDef) {
        let slot = self.locals[id.0 as usize];
        let ty = hf.locals[id.0 as usize].ty.clone();
        match init {
            None => {}
            Some(LocalInit::Scalar(e)) => {
                let v = self.value(e);
                match slot {
                    Slot::Reg(r) => self.emit(Inst::Mov { dst: r, src: v }),
                    Slot::Mem(addr) => {
                        let mem = self.mem_ty(&ty);
                        self.emit(Inst::Store {
                            mem,
                            addr: addr.into(),
                            value: v,
                        });
                    }
                }
            }
            Some(LocalInit::Str(bytes)) => {
                let Slot::Mem(addr) = slot else {
                    panic!("string init needs a memory slot")
                };
                for (i, b) in bytes.iter().enumerate() {
                    let dst = self.f.new_reg(RegKind::Ptr);
                    self.emit(Inst::Gep {
                        dst,
                        base: addr.into(),
                        index: Value::Const(0),
                        scale: 0,
                        offset: i as i64,
                        field_size: None,
                    });
                    self.emit(Inst::Store {
                        mem: MemTy::I8,
                        addr: dst.into(),
                        value: Value::Const(*b as i64),
                    });
                }
            }
            Some(LocalInit::List(items)) => {
                let Slot::Mem(addr) = slot else {
                    panic!("list init needs a memory slot")
                };
                // Zero the whole object first (C zero-fills the rest),
                // then apply the explicit items.
                let size = self.types().size_of(&ty);
                self.emit(Inst::Call {
                    dsts: vec![],
                    callee: Callee::Builtin(Builtin::Memset),
                    args: vec![addr.into(), Value::Const(0), Value::Const(size as i64)],
                    ptr_hint: false,
                    wrapped: false,
                });
                for (off, e) in items {
                    let v = self.value(e);
                    let dst = self.f.new_reg(RegKind::Ptr);
                    self.emit(Inst::Gep {
                        dst,
                        base: addr.into(),
                        index: Value::Const(0),
                        scale: 0,
                        offset: *off as i64,
                        field_size: None,
                    });
                    let mem = self.mem_ty(&e.ty);
                    self.emit(Inst::Store {
                        mem,
                        addr: dst.into(),
                        value: v,
                    });
                }
            }
        }
    }

    // ---------------------------------------------------------- expressions

    fn value(&mut self, e: &Expr) -> Value {
        match &e.kind {
            ExprKind::Int(v) => Value::Const(*v),
            ExprKind::NullPtr => Value::NULL,
            ExprKind::Str(sid) => Value::GlobalAddr {
                id: self.str_gids[sid.0 as usize],
                offset: 0,
            },
            ExprKind::FuncAddr(name) => Value::FuncAddr(self.func_ids[name]),
            ExprKind::Load(place) => self.load_place(place),
            ExprKind::AddrOf(place) => self.place_addr(place),
            ExprKind::Unary(op, inner) => {
                let v = self.value(inner);
                let k = inner.ty.int_kind().unwrap_or(IntKind::I64);
                let dst = self.f.new_reg(RegKind::Int);
                match op {
                    UnaryOp::Neg => self.emit(Inst::Bin {
                        dst,
                        op: HArith::Sub,
                        k,
                        lhs: Value::Const(0),
                        rhs: v,
                    }),
                    UnaryOp::BitNot => self.emit(Inst::Bin {
                        dst,
                        op: HArith::Xor,
                        k,
                        lhs: v,
                        rhs: Value::Const(-1),
                    }),
                    UnaryOp::Not => self.emit(Inst::Cmp {
                        dst,
                        op: HCmp::Eq,
                        k,
                        lhs: v,
                        rhs: Value::Const(0),
                    }),
                }
                dst.into()
            }
            ExprKind::Binary { op, k, lhs, rhs } => {
                let l = self.value(lhs);
                let r = self.value(rhs);
                let dst = self.f.new_reg(RegKind::Int);
                self.emit(Inst::Bin {
                    dst,
                    op: *op,
                    k: *k,
                    lhs: l,
                    rhs: r,
                });
                dst.into()
            }
            ExprKind::PtrAdd {
                ptr,
                index,
                elem_size,
            } => {
                let p = self.value(ptr);
                let i = self.value(index);
                let dst = self.f.new_reg(RegKind::Ptr);
                self.emit(Inst::Gep {
                    dst,
                    base: p,
                    index: i,
                    scale: *elem_size,
                    offset: 0,
                    field_size: None,
                });
                dst.into()
            }
            ExprKind::PtrDiff {
                lhs,
                rhs,
                elem_size,
            } => {
                let l = self.value(lhs);
                let r = self.value(rhs);
                let diff = self.f.new_reg(RegKind::Int);
                self.emit(Inst::Bin {
                    dst: diff,
                    op: HArith::Sub,
                    k: IntKind::I64,
                    lhs: l,
                    rhs: r,
                });
                if *elem_size <= 1 {
                    return diff.into();
                }
                let dst = self.f.new_reg(RegKind::Int);
                self.emit(Inst::Bin {
                    dst,
                    op: HArith::Div,
                    k: IntKind::I64,
                    lhs: diff.into(),
                    rhs: Value::Const(*elem_size as i64),
                });
                dst.into()
            }
            ExprKind::Cmp {
                op,
                signed,
                lhs,
                rhs,
            } => {
                let k =
                    lhs.ty
                        .int_kind()
                        .unwrap_or(if *signed { IntKind::I64 } else { IntKind::U64 });
                let l = self.value(lhs);
                let r = self.value(rhs);
                let dst = self.f.new_reg(RegKind::Int);
                let hop = match op {
                    hir::CmpOp::Eq => HCmp::Eq,
                    hir::CmpOp::Ne => HCmp::Ne,
                    hir::CmpOp::Lt => HCmp::Lt,
                    hir::CmpOp::Le => HCmp::Le,
                    hir::CmpOp::Gt => HCmp::Gt,
                    hir::CmpOp::Ge => HCmp::Ge,
                };
                self.emit(Inst::Cmp {
                    dst,
                    op: hop,
                    k,
                    lhs: l,
                    rhs: r,
                });
                dst.into()
            }
            ExprKind::Logical { and, lhs, rhs } => {
                let dst = self.f.new_reg(RegKind::Int);
                let l = self.value(lhs);
                let rhs_b = self.f.new_block();
                let short_b = self.f.new_block();
                let end = self.f.new_block();
                if *and {
                    self.emit(Inst::Br {
                        cond: l,
                        then_to: rhs_b,
                        else_to: short_b,
                    });
                } else {
                    self.emit(Inst::Br {
                        cond: l,
                        then_to: short_b,
                        else_to: rhs_b,
                    });
                }
                self.switch_to(short_b);
                self.emit(Inst::Mov {
                    dst,
                    src: Value::Const(if *and { 0 } else { 1 }),
                });
                self.emit(Inst::Jmp { to: end });
                self.switch_to(rhs_b);
                let r = self.value(rhs);
                let rk = rhs.ty.int_kind().unwrap_or(IntKind::U64);
                self.emit(Inst::Cmp {
                    dst,
                    op: HCmp::Ne,
                    k: rk,
                    lhs: r,
                    rhs: Value::Const(0),
                });
                self.emit(Inst::Jmp { to: end });
                self.switch_to(end);
                dst.into()
            }
            ExprKind::Cond { cond, then, els } => {
                let kind = Self::kind_of_ty(&e.ty);
                let dst = self.f.new_reg(kind);
                let c = self.value(cond);
                let then_b = self.f.new_block();
                let else_b = self.f.new_block();
                let end = self.f.new_block();
                self.emit(Inst::Br {
                    cond: c,
                    then_to: then_b,
                    else_to: else_b,
                });
                self.switch_to(then_b);
                let tv = self.value(then);
                self.emit(Inst::Mov { dst, src: tv });
                self.emit(Inst::Jmp { to: end });
                self.switch_to(else_b);
                let ev = self.value(els);
                self.emit(Inst::Mov { dst, src: ev });
                self.emit(Inst::Jmp { to: end });
                self.switch_to(end);
                dst.into()
            }
            ExprKind::Assign { place, value } => {
                let v = self.value(value);
                self.store_place(place, v);
                v
            }
            ExprKind::IncDec {
                place,
                inc,
                post,
                elem_size,
            } => {
                let old = self.load_place(place);
                let new = if *elem_size == 0 {
                    let k = place.ty().int_kind().expect("int incdec");
                    let dst = self.f.new_reg(RegKind::Int);
                    let op = if *inc { HArith::Add } else { HArith::Sub };
                    self.emit(Inst::Bin {
                        dst,
                        op,
                        k,
                        lhs: old,
                        rhs: Value::Const(1),
                    });
                    Value::Reg(dst)
                } else {
                    let dst = self.f.new_reg(RegKind::Ptr);
                    let step = if *inc { 1 } else { -1 };
                    self.emit(Inst::Gep {
                        dst,
                        base: old,
                        index: Value::Const(step),
                        scale: *elem_size,
                        offset: 0,
                        field_size: None,
                    });
                    Value::Reg(dst)
                };
                // `old` may name a register that the store below mutates
                // (promoted locals): copy it first for post-inc results.
                let result = if *post {
                    let kind = Self::kind_of_ty(place.ty());
                    let keep = self.f.new_reg(kind);
                    self.emit(Inst::Mov {
                        dst: keep,
                        src: old,
                    });
                    Value::Reg(keep)
                } else {
                    new
                };
                self.store_place(place, new);
                result
            }
            ExprKind::Call { target, args } => self.call(target, args, &e.ty),
            ExprKind::Cast { kind, arg } => {
                let v = self.value(arg);
                match kind {
                    CastKind::IntToInt(k) | CastKind::PtrToInt(k) => {
                        let dst = self.f.new_reg(RegKind::Int);
                        self.emit(Inst::Cast { dst, k: *k, src: v });
                        dst.into()
                    }
                    CastKind::IntToPtr => {
                        // Moves the raw integer into a pointer register; the
                        // SoftBound pass will give it NULL bounds (§5.2).
                        let dst = self.f.new_reg(RegKind::Ptr);
                        self.emit(Inst::Mov { dst, src: v });
                        dst.into()
                    }
                    CastKind::PtrToPtr => v, // bounds are inherited; no-op
                }
            }
        }
    }

    fn call(&mut self, target: &CallTarget, args: &[Expr], ret_ty: &Ty) -> Value {
        let mut avs = Vec::with_capacity(args.len());
        for a in args {
            let mut v = self.value(a);
            // Materialize pointer-typed constant arguments (e.g. NULL) into
            // pointer registers so instrumentation passes can identify every
            // pointer argument of a call by register kind — required for
            // metadata-argument alignment at indirect call sites (§3.3).
            if a.ty.is_ptr() && matches!(v, Value::Const(_)) {
                let r = self.f.new_reg(RegKind::Ptr);
                self.emit(Inst::Mov { dst: r, src: v });
                v = r.into();
            }
            avs.push(v);
        }
        let ptr_hint = match target {
            CallTarget::Builtin(Builtin::Memcpy) => args
                .iter()
                .take(2)
                .any(|a| arg_points_to_ptrs(a, self.types())),
            CallTarget::Builtin(Builtin::Free) => args
                .first()
                .map(|a| arg_points_to_ptrs(a, self.types()))
                .unwrap_or(false),
            _ => false,
        };
        let callee = match target {
            CallTarget::Direct(name) => Callee::Direct(self.func_ids[name]),
            CallTarget::Builtin(b) => Callee::Builtin(*b),
            CallTarget::Indirect(ptr) => {
                let v = self.value(ptr);
                Callee::Indirect(v)
            }
        };
        let dsts = match ret_ty {
            Ty::Void => vec![],
            t => vec![self.f.new_reg(Self::kind_of_ty(t))],
        };
        let result = dsts.first().copied();
        self.emit(Inst::Call {
            dsts,
            callee,
            args: avs,
            ptr_hint,
            wrapped: false,
        });
        result.map(Value::Reg).unwrap_or(Value::Const(0))
    }

    // --------------------------------------------------------------- places

    /// Loads the value stored at a place.
    fn load_place(&mut self, place: &Place) -> Value {
        match place {
            Place::Var { id, .. } => match self.locals[id.0 as usize] {
                Slot::Reg(r) => r.into(),
                Slot::Mem(addr) => {
                    let mem = self.mem_ty(place.ty());
                    let kind = Self::kind_of_ty(place.ty());
                    let dst = self.f.new_reg(kind);
                    self.emit(Inst::Load {
                        dst,
                        mem,
                        addr: addr.into(),
                    });
                    dst.into()
                }
            },
            _ => {
                let addr = self.place_addr(place);
                let mem = self.mem_ty(place.ty());
                let kind = Self::kind_of_ty(place.ty());
                let dst = self.f.new_reg(kind);
                self.emit(Inst::Load { dst, mem, addr });
                dst.into()
            }
        }
    }

    /// Stores `v` into a place.
    fn store_place(&mut self, place: &Place, v: Value) {
        match place {
            Place::Var { id, .. } => match self.locals[id.0 as usize] {
                Slot::Reg(r) => self.emit(Inst::Mov { dst: r, src: v }),
                Slot::Mem(addr) => {
                    let mem = self.mem_ty(place.ty());
                    self.emit(Inst::Store {
                        mem,
                        addr: addr.into(),
                        value: v,
                    });
                }
            },
            _ => {
                let addr = self.place_addr(place);
                let mem = self.mem_ty(place.ty());
                self.emit(Inst::Store {
                    mem,
                    addr,
                    value: v,
                });
            }
        }
    }

    /// Computes the address of a place. Field steps emit marked GEPs so the
    /// SoftBound pass can shrink bounds to the sub-object.
    fn place_addr(&mut self, place: &Place) -> Value {
        match place {
            Place::Var { id, .. } => match self.locals[id.0 as usize] {
                Slot::Mem(addr) => addr.into(),
                Slot::Reg(_) => panic!("address of promoted register (typeck marks addr_taken)"),
            },
            Place::Global { name, .. } => Value::GlobalAddr {
                id: self.global_ids[name],
                offset: 0,
            },
            Place::Deref { ptr, .. } => self.value(ptr),
            Place::Index { base, index, elem } => {
                let b = self.place_addr(base);
                let i = self.value(index);
                let dst = self.f.new_reg(RegKind::Ptr);
                self.emit(Inst::Gep {
                    dst,
                    base: b,
                    index: i,
                    scale: self.types().size_of(elem),
                    offset: 0,
                    field_size: None,
                });
                dst.into()
            }
            Place::Field {
                base, offset, ty, ..
            } => {
                let b = self.place_addr(base);
                let dst = self.f.new_reg(RegKind::Ptr);
                self.emit(Inst::Gep {
                    dst,
                    base: b,
                    index: Value::Const(0),
                    scale: 0,
                    offset: *offset as i64,
                    field_size: Some(self.types().size_of(ty)),
                });
                dst.into()
            }
        }
    }
}

/// True if an argument expression is (after peeling pointer casts) a
/// pointer to memory that itself contains pointers — the paper's memcpy
/// inference heuristic (§5.2).
fn arg_points_to_ptrs(e: &Expr, types: &TypeTable) -> bool {
    let mut cur = e;
    while let ExprKind::Cast {
        kind: CastKind::PtrToPtr,
        arg,
    } = &cur.kind
    {
        cur = arg;
    }
    match &cur.ty {
        Ty::Ptr(pointee) => pointee.contains_ptr(types),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_src(src: &str) -> Module {
        let prog = sb_cir::compile(src).expect("compiles");
        lower(&prog, "test")
    }

    #[test]
    fn allocas_record_whether_they_hold_pointers() {
        let m = lower_src(
            r#"
            struct pair { long n; char* p; };
            int f() { struct pair a[3]; char b[64]; a[0].p = b; return a[0].p == b; }
        "#,
        );
        let f = m.func("f").expect("exists");
        let holds: Vec<(&str, bool)> = f.blocks[0]
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Alloca { info, .. } => Some((info.name.as_str(), info.holds_ptrs)),
                _ => None,
            })
            .collect();
        assert_eq!(holds, [("a", true), ("b", false)]);
    }

    #[test]
    fn lowers_simple_function() {
        let m = lower_src("int add(int a, int b) { return a + b; }");
        let f = m.func("add").expect("exists");
        assert_eq!(f.params.len(), 2);
        assert!(f.inst_count() >= 2);
    }

    #[test]
    fn promoted_scalars_have_no_alloca() {
        let m = lower_src("int f() { int x = 1; int y = 2; return x + y; }");
        let f = m.func("f").expect("exists");
        let allocas = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Alloca { .. }))
            .count();
        assert_eq!(
            allocas, 0,
            "register promotion should remove scalar allocas"
        );
    }

    #[test]
    fn addr_taken_scalar_gets_alloca() {
        let m = lower_src("int f() { int x = 1; int* p = &x; return *p; }");
        let f = m.func("f").expect("exists");
        let allocas = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Alloca { .. }))
            .count();
        assert_eq!(allocas, 1);
    }

    #[test]
    fn field_geps_are_marked() {
        let m = lower_src(
            r#"
            struct node { char str[8]; void (*func)(void); };
            char* f(struct node* n) { return &n->str[2]; }
        "#,
        );
        let f = m.func("f").expect("exists");
        let field_geps: Vec<_> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::Gep {
                    field_size: Some(sz),
                    ..
                } => Some(*sz),
                _ => None,
            })
            .collect();
        assert_eq!(
            field_geps,
            vec![8],
            "the str[8] field gep must carry its size"
        );
    }

    #[test]
    fn pointer_loads_use_ptr_memty() {
        let m = lower_src("int* f(int** pp) { return *pp; }");
        let f = m.func("f").expect("exists");
        let has_ptr_load = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Load {
                    mem: MemTy::Ptr,
                    ..
                }
            )
        });
        assert!(has_ptr_load);
    }

    #[test]
    fn string_literals_become_globals() {
        let m = lower_src(r#"char* greet() { return "hello"; }"#);
        let s = m
            .globals
            .iter()
            .find(|g| g.name.starts_with(".str."))
            .expect("string global");
        assert_eq!(s.size, 6); // "hello" + NUL
    }

    #[test]
    fn global_initializers_resolve() {
        let m = lower_src(
            r#"
            int x = 42;
            int* px = &x;
            char* msg = "hi";
            void handler(void) { }
            void (*h)(void) = handler;
        "#,
        );
        let px = m.globals.iter().find(|g| g.name == "px").expect("px");
        assert!(matches!(px.init[0].1, GInit::GlobalAddr { .. }));
        let h = m.globals.iter().find(|g| g.name == "h").expect("h");
        assert!(matches!(h.init[0].1, GInit::FuncAddr(_)));
    }

    #[test]
    fn memcpy_ptr_hint() {
        let m = lower_src(
            r#"
            struct holder { char* p; };
            void copy_ptrs(struct holder* d, struct holder* s) {
                memcpy(d, s, sizeof(struct holder));
            }
            void copy_bytes(char* d, char* s) { memcpy(d, s, 8); }
        "#,
        );
        let hints: Vec<bool> = m
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
            .filter_map(|i| match i {
                Inst::Call {
                    callee: Callee::Builtin(Builtin::Memcpy),
                    ptr_hint,
                    ..
                } => Some(*ptr_hint),
                _ => None,
            })
            .collect();
        assert_eq!(hints, vec![true, false]);
    }

    #[test]
    fn control_flow_blocks_terminated() {
        let m = lower_src(
            r#"
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    if (i == 3) continue;
                    if (i == 7) break;
                    s += i;
                }
                while (s > 10) s -= 2;
                return s;
            }
        "#,
        );
        let f = m.func("f").expect("exists");
        for (bi, b) in f.blocks.iter().enumerate() {
            assert!(
                b.insts.last().map(Inst::is_terminator).unwrap_or(false),
                "block {bi} not terminated"
            );
        }
    }

    #[test]
    fn ptr_returning_function_ret_kind() {
        let m = lower_src("char* id(char* p) { return p; }");
        let f = m.func("id").expect("exists");
        assert_eq!(f.ret_kinds, vec![RegKind::Ptr]);
        assert_eq!(f.param_kinds, vec![RegKind::Ptr]);
    }

    #[test]
    fn external_function_lowered_as_declaration() {
        let m = lower_src(
            "int external_helper(char* p); int main() { return external_helper(\"x\"); }",
        );
        let f = m.func("external_helper").expect("exists");
        assert!(!f.defined);
        assert_eq!(f.param_kinds, vec![RegKind::Ptr]);
    }

    #[test]
    fn post_increment_returns_old_value() {
        // Exercised behaviorally in the VM tests; here just check shape.
        let m = lower_src("int f() { int i = 5; int j = i++; return j * 10 + i; }");
        assert!(m.func("f").is_some());
    }
}
