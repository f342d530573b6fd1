//! Type checker: resolves the untyped AST into the typed [`hir`](crate::hir).
//!
//! Responsibilities: struct registration and layout, name resolution
//! (locals/globals/functions/builtins), implicit conversion insertion, C's
//! usual arithmetic conversions, array-to-pointer decay, pointer arithmetic
//! scaling, constant evaluation for array sizes and global initializers,
//! and structural checks (lvalues, call arity, loop context for
//! `break`/`continue`).

use crate::ast::{
    self, BinOp, Decl, Expr as AExpr, ExprKind as AK, Init, Stmt as AStmt, StmtKind, TypeExpr, UnOp,
};
use crate::error::{CompileError, Pos, Result};
use crate::hir::*;
use crate::types::{FuncSig, IntKind, PtrLayout, Ty, TypeTable};
use std::collections::HashMap;

/// Type-checks a parsed unit with the default thin-pointer layout.
///
/// # Errors
///
/// Returns the first type error encountered.
pub fn check(unit: &ast::Unit) -> Result<Program> {
    check_with_layout(unit, PtrLayout::Thin)
}

/// Type-checks with an explicit pointer layout (the fat-pointer baseline
/// passes [`PtrLayout::Fat`]).
///
/// # Errors
///
/// Returns the first type error encountered.
pub fn check_with_layout(unit: &ast::Unit, layout: PtrLayout) -> Result<Program> {
    let mut cx = Checker::new(layout);
    cx.register_structs(unit)?;
    cx.register_signatures(unit)?;
    cx.check_globals(unit)?;
    cx.check_functions(unit)?;
    Ok(Program {
        types: cx.types,
        globals: cx.globals,
        funcs: cx.funcs,
        strings: cx.strings,
    })
}

/// Result of checking an expression: a value, an lvalue, or a function
/// designator.
enum Checked {
    Val(Expr),
    Place(Place),
    Func(String),
}

struct Checker {
    types: TypeTable,
    defined_structs: Vec<bool>,
    globals: Vec<GlobalDef>,
    global_tys: HashMap<String, Ty>,
    func_sigs: HashMap<String, FuncSig>,
    funcs: Vec<FuncDef>,
    strings: Vec<Vec<u8>>,
    // Per-function state.
    locals: Vec<Local>,
    scopes: Vec<HashMap<String, LocalId>>,
    ret_ty: Ty,
    loop_depth: u32,
    current_vararg: bool,
}

impl Checker {
    fn new(layout: PtrLayout) -> Self {
        Checker {
            types: TypeTable::with_layout(layout),
            defined_structs: Vec::new(),
            globals: Vec::new(),
            global_tys: HashMap::new(),
            func_sigs: HashMap::new(),
            funcs: Vec::new(),
            strings: Vec::new(),
            locals: Vec::new(),
            scopes: Vec::new(),
            ret_ty: Ty::Void,
            loop_depth: 0,
            current_vararg: false,
        }
    }

    fn err<T>(&self, msg: impl Into<String>, pos: Pos) -> Result<T> {
        Err(CompileError::new(msg, pos))
    }

    // ------------------------------------------------------------ structs

    fn register_structs(&mut self, unit: &ast::Unit) -> Result<()> {
        // Pass 1: declare every tag so pointer fields can be recursive.
        for d in &unit.decls {
            if let Decl::Struct { tag, is_union, .. } = d {
                let id = self.types.declare(tag, *is_union);
                if self.defined_structs.len() <= id.0 as usize {
                    self.defined_structs.resize(id.0 as usize + 1, false);
                }
            }
        }
        // Pass 2: define in source order; by-value fields must already be
        // defined (C completeness rule).
        for d in &unit.decls {
            if let Decl::Struct {
                tag, fields, pos, ..
            } = d
            {
                let id = self.types.lookup(tag).expect("declared in pass 1");
                if self.defined_structs[id.0 as usize] {
                    return self.err(format!("duplicate definition of struct `{tag}`"), *pos);
                }
                let mut resolved = Vec::with_capacity(fields.len());
                for (fname, fty) in fields {
                    let ty = self.resolve_ty(fty, *pos)?;
                    self.require_complete(&ty, *pos)?;
                    resolved.push((fname.clone(), ty));
                }
                self.types.define(id, resolved);
                self.defined_structs[id.0 as usize] = true;
            }
        }
        Ok(())
    }

    fn require_complete(&self, ty: &Ty, pos: Pos) -> Result<()> {
        match ty {
            Ty::Void => self.err("`void` is not a value type", pos),
            Ty::Struct(id) => {
                if self
                    .defined_structs
                    .get(id.0 as usize)
                    .copied()
                    .unwrap_or(false)
                {
                    Ok(())
                } else {
                    self.err(
                        format!(
                            "struct `{}` used by value before definition",
                            self.types.def(*id).name
                        ),
                        pos,
                    )
                }
            }
            Ty::Array(e, n) => {
                if *n == 0 {
                    self.err("array size must be positive", pos)
                } else {
                    self.require_complete(e, pos)
                }
            }
            Ty::Func(_) => self.err("function type is not a value type", pos),
            _ => Ok(()),
        }
    }

    fn resolve_ty(&mut self, t: &TypeExpr, pos: Pos) -> Result<Ty> {
        Ok(match t {
            TypeExpr::Void => Ty::Void,
            TypeExpr::Char { unsigned } => {
                Ty::Int(if *unsigned { IntKind::U8 } else { IntKind::I8 })
            }
            TypeExpr::Short { unsigned } => Ty::Int(if *unsigned {
                IntKind::U16
            } else {
                IntKind::I16
            }),
            TypeExpr::Int { unsigned } => Ty::Int(if *unsigned {
                IntKind::U32
            } else {
                IntKind::I32
            }),
            TypeExpr::Long { unsigned } => Ty::Int(if *unsigned {
                IntKind::U64
            } else {
                IntKind::I64
            }),
            TypeExpr::Named { tag, is_union } => {
                let id = self.types.declare(tag, *is_union);
                if self.defined_structs.len() <= id.0 as usize {
                    self.defined_structs.resize(id.0 as usize + 1, false);
                }
                Ty::Struct(id)
            }
            TypeExpr::Ptr(inner) => self.resolve_ty(inner, pos)?.ptr_to(),
            TypeExpr::Array(inner, size) => {
                let elem = self.resolve_ty(inner, pos)?;
                let n = self.const_eval(size)?;
                if n < 0 {
                    return self.err("array size must be non-negative", pos);
                }
                Ty::Array(Box::new(elem), n as u64)
            }
            TypeExpr::Func {
                ret,
                params,
                vararg,
            } => {
                let r = self.resolve_ty(ret, pos)?;
                let mut ps = Vec::with_capacity(params.len());
                for p in params {
                    ps.push(self.resolve_ty(p, pos)?);
                }
                Ty::Func(Box::new(FuncSig {
                    ret: r,
                    params: ps,
                    vararg: *vararg,
                }))
            }
        })
    }

    // --------------------------------------------------------- signatures

    fn register_signatures(&mut self, unit: &ast::Unit) -> Result<()> {
        for d in &unit.decls {
            if let Decl::Func {
                name,
                ret,
                params,
                vararg,
                pos,
                ..
            } = d
            {
                let r = self.resolve_ty(ret, *pos)?;
                let mut ps = Vec::with_capacity(params.len());
                for p in params {
                    let ty = self.resolve_ty(&p.ty, *pos)?;
                    if matches!(ty, Ty::Struct(_)) {
                        return self.err(
                            "passing structs by value is not supported; pass a pointer",
                            *pos,
                        );
                    }
                    ps.push(ty);
                }
                if matches!(r, Ty::Struct(_)) {
                    return self.err("returning structs by value is not supported", *pos);
                }
                let sig = FuncSig {
                    ret: r,
                    params: ps,
                    vararg: *vararg,
                };
                if let Some(prev) = self.func_sigs.get(name) {
                    if *prev != sig {
                        return self.err(
                            format!("conflicting declarations for function `{name}`"),
                            *pos,
                        );
                    }
                } else {
                    self.func_sigs.insert(name.clone(), sig);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------ globals

    fn check_globals(&mut self, unit: &ast::Unit) -> Result<()> {
        for d in &unit.decls {
            if let Decl::Global {
                name,
                ty,
                init,
                pos,
            } = d
            {
                let mut rty = self.resolve_ty(ty, *pos)?;
                // `T x[] = {...}` / `char s[] = "..."`: infer the dimension.
                if let Ty::Array(elem, 0) = &rty {
                    let n = match init {
                        Some(Init::List(items)) => items.len() as u64,
                        Some(Init::Expr(AExpr {
                            kind: AK::StrLit(s),
                            ..
                        })) if **elem == Ty::char() => s.len() as u64 + 1,
                        _ => {
                            return self.err("unsized array needs an initializer", *pos);
                        }
                    };
                    rty = Ty::Array(elem.clone(), n);
                }
                self.require_complete(&rty, *pos)?;
                if self.global_tys.contains_key(name) {
                    return self.err(format!("duplicate global `{name}`"), *pos);
                }
                let mut items = Vec::new();
                if let Some(init) = init {
                    self.const_init(&rty, init, 0, &mut items, *pos)?;
                }
                self.global_tys.insert(name.clone(), rty.clone());
                self.globals.push(GlobalDef {
                    name: name.clone(),
                    ty: rty,
                    init: items,
                });
            }
        }
        Ok(())
    }

    fn intern_str(&mut self, s: &[u8]) -> StrId {
        if let Some(i) = self.strings.iter().position(|x| x == s) {
            return StrId(i as u32);
        }
        self.strings.push(s.to_vec());
        StrId(self.strings.len() as u32 - 1)
    }

    /// Flattens a constant initializer for type `ty` at byte offset `off`.
    fn const_init(
        &mut self,
        ty: &Ty,
        init: &Init,
        off: u64,
        out: &mut Vec<(u64, ConstItem)>,
        pos: Pos,
    ) -> Result<()> {
        match (ty, init) {
            (Ty::Int(k), Init::Expr(e)) => {
                let v = self.const_eval(e)?;
                out.push((
                    off,
                    ConstItem::Int {
                        value: k.wrap(v),
                        size: k.size() as u8,
                    },
                ));
                Ok(())
            }
            (Ty::Ptr(_), Init::Expr(e)) => {
                let item = self.const_ptr(e)?;
                out.push((off, item));
                Ok(())
            }
            (
                Ty::Array(elem, n),
                Init::Expr(AExpr {
                    kind: AK::StrLit(s),
                    ..
                }),
            ) if **elem == Ty::char() || **elem == Ty::Int(IntKind::U8) => {
                if s.len() as u64 + 1 > *n {
                    return self.err("string literal longer than array", pos);
                }
                for (i, b) in s.iter().enumerate() {
                    out.push((
                        off + i as u64,
                        ConstItem::Int {
                            value: *b as i64,
                            size: 1,
                        },
                    ));
                }
                Ok(())
            }
            (Ty::Array(elem, n), Init::List(items)) => {
                if items.len() as u64 > *n {
                    return self.err("too many initializers for array", pos);
                }
                let esz = self.types.size_of(elem);
                for (i, item) in items.iter().enumerate() {
                    self.const_init(elem, item, off + i as u64 * esz, out, pos)?;
                }
                Ok(())
            }
            (Ty::Struct(id), Init::List(items)) => {
                let fields: Vec<_> = self.types.fields(*id).to_vec();
                if items.len() > fields.len() {
                    return self.err("too many initializers for struct", pos);
                }
                for (f, item) in fields.iter().zip(items) {
                    self.const_init(&f.ty, item, off + f.offset, out, pos)?;
                }
                Ok(())
            }
            _ => self.err("initializer shape does not match type", pos),
        }
    }

    /// A constant pointer initializer: NULL, 0, a string literal, `&global`,
    /// `&global[k]`, `global` (array decay), or a function name.
    fn const_ptr(&mut self, e: &AExpr) -> Result<ConstItem> {
        match &e.kind {
            AK::Null => Ok(ConstItem::Int { value: 0, size: 8 }),
            AK::IntLit(0) => Ok(ConstItem::Int { value: 0, size: 8 }),
            AK::StrLit(s) => Ok(ConstItem::Str(self.intern_str(s))),
            AK::Ident(name) => {
                if let Some(ty) = self.global_tys.get(name) {
                    if matches!(ty, Ty::Array(..)) {
                        return Ok(ConstItem::GlobalAddr {
                            name: name.clone(),
                            offset: 0,
                        });
                    }
                }
                if self.func_sigs.contains_key(name) {
                    return Ok(ConstItem::FuncAddr(name.clone()));
                }
                self.err(format!("`{name}` is not a constant address"), e.pos)
            }
            AK::Unary(UnOp::AddrOf, inner) => match &inner.kind {
                AK::Ident(name) if self.global_tys.contains_key(name) => {
                    Ok(ConstItem::GlobalAddr {
                        name: name.clone(),
                        offset: 0,
                    })
                }
                AK::Index(base, idx) => {
                    if let AK::Ident(name) = &base.kind {
                        if let Some(Ty::Array(elem, _)) = self.global_tys.get(name).cloned() {
                            let i = self.const_eval(idx)?;
                            let esz = self.types.size_of(&elem);
                            return Ok(ConstItem::GlobalAddr {
                                name: name.clone(),
                                offset: i as u64 * esz,
                            });
                        }
                    }
                    self.err("unsupported constant address expression", e.pos)
                }
                _ => self.err("unsupported constant address expression", e.pos),
            },
            AK::Cast(_, inner) => self.const_ptr(inner),
            _ => self.err("pointer initializer must be a constant address", e.pos),
        }
    }

    /// Evaluates an integer constant expression.
    fn const_eval(&mut self, e: &AExpr) -> Result<i64> {
        Ok(match &e.kind {
            AK::IntLit(v) => *v,
            AK::CharLit(c) => *c as i64,
            AK::Null => 0,
            AK::Unary(UnOp::Neg, x) => self.const_eval(x)?.wrapping_neg(),
            AK::Unary(UnOp::BitNot, x) => !self.const_eval(x)?,
            AK::Unary(UnOp::Not, x) => (self.const_eval(x)? == 0) as i64,
            AK::Binary(op, l, r) => {
                let a = self.const_eval(l)?;
                let b = self.const_eval(r)?;
                match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return self.err("division by zero in constant", e.pos);
                        }
                        a.wrapping_div(b)
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return self.err("division by zero in constant", e.pos);
                        }
                        a.wrapping_rem(b)
                    }
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Shl => a.wrapping_shl(b as u32),
                    BinOp::Shr => a.wrapping_shr(b as u32),
                    BinOp::Lt => (a < b) as i64,
                    BinOp::Le => (a <= b) as i64,
                    BinOp::Gt => (a > b) as i64,
                    BinOp::Ge => (a >= b) as i64,
                    BinOp::Eq => (a == b) as i64,
                    BinOp::Ne => (a != b) as i64,
                }
            }
            AK::SizeofTy(t) => {
                let ty = self.resolve_ty(t, e.pos)?;
                self.types.size_of(&ty) as i64
            }
            AK::Cast(t, inner) => {
                let v = self.const_eval(inner)?;
                match self.resolve_ty(t, e.pos)? {
                    Ty::Int(k) => k.wrap(v),
                    _ => v,
                }
            }
            _ => return self.err("expected a constant expression", e.pos),
        })
    }

    // ---------------------------------------------------------- functions

    fn check_functions(&mut self, unit: &ast::Unit) -> Result<()> {
        let mut seen_defs: HashMap<String, bool> = HashMap::new();
        for d in &unit.decls {
            if let Decl::Func {
                name,
                params,
                body,
                vararg,
                pos,
                ..
            } = d
            {
                let sig = self.func_sigs[name].clone();
                let defined = body.is_some();
                if defined && seen_defs.get(name).copied().unwrap_or(false) {
                    return self.err(format!("duplicate definition of function `{name}`"), *pos);
                }
                if defined {
                    seen_defs.insert(name.clone(), true);
                }
                let Some(body) = body else {
                    // Prototype: record only if no definition seen/coming.
                    if !unit.decls.iter().any(
                        |d2| matches!(d2, Decl::Func { name: n2, body: Some(_), .. } if n2 == name),
                    ) && !self.funcs.iter().any(|f| f.name == *name)
                    {
                        self.funcs.push(FuncDef {
                            name: name.clone(),
                            sig: sig.clone(),
                            locals: Vec::new(),
                            body: Vec::new(),
                            defined: false,
                        });
                    }
                    continue;
                };

                self.locals = Vec::new();
                self.scopes = vec![HashMap::new()];
                self.ret_ty = sig.ret.clone();
                self.loop_depth = 0;
                self.current_vararg = *vararg;
                for (p, ty) in params.iter().zip(&sig.params) {
                    let id = LocalId(self.locals.len() as u32);
                    self.locals.push(Local {
                        name: p.name.clone(),
                        ty: ty.clone(),
                        addr_taken: false,
                    });
                    if !p.name.is_empty() {
                        self.scopes[0].insert(p.name.clone(), id);
                    }
                }
                let hbody = self.check_block(body)?;
                self.funcs.push(FuncDef {
                    name: name.clone(),
                    sig,
                    locals: std::mem::take(&mut self.locals),
                    body: hbody,
                    defined: true,
                });
            }
        }
        Ok(())
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn lookup_local(&self, name: &str) -> Option<LocalId> {
        for scope in self.scopes.iter().rev() {
            if let Some(&id) = scope.get(name) {
                return Some(id);
            }
        }
        None
    }

    fn check_block(&mut self, stmts: &[AStmt]) -> Result<Vec<Stmt>> {
        self.push_scope();
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.check_stmt(s)?);
        }
        self.pop_scope();
        Ok(out)
    }

    fn check_stmt(&mut self, s: &AStmt) -> Result<Stmt> {
        let pos = s.pos;
        Ok(match &s.kind {
            StmtKind::Empty => Stmt::Block(Vec::new()),
            StmtKind::Block(b) => Stmt::Block(self.check_block(b)?),
            StmtKind::Expr(e) => {
                // Struct assignment `a = b;` desugars to memcpy.
                if let AK::Assign { op: None, lhs, rhs } = &e.kind {
                    if let Some(st) = self.try_struct_assign(lhs, rhs, pos)? {
                        return Ok(st);
                    }
                }
                Stmt::Expr(self.rvalue_or_void(e)?)
            }
            StmtKind::Decl { name, ty, init } => {
                let mut rty = self.resolve_ty(ty, pos)?;
                if let Ty::Array(elem, 0) = &rty {
                    let n = match init {
                        Some(Init::List(items)) => items.len() as u64,
                        Some(Init::Expr(AExpr {
                            kind: AK::StrLit(s),
                            ..
                        })) => s.len() as u64 + 1,
                        _ => return self.err("unsized array needs an initializer", pos),
                    };
                    rty = Ty::Array(elem.clone(), n);
                }
                self.require_complete(&rty, pos)?;
                let id = LocalId(self.locals.len() as u32);
                self.locals.push(Local {
                    name: name.clone(),
                    ty: rty.clone(),
                    addr_taken: false,
                });
                self.scopes
                    .last_mut()
                    .expect("scope stack non-empty")
                    .insert(name.clone(), id);
                let hinit = match init {
                    None => None,
                    Some(Init::Expr(AExpr {
                        kind: AK::StrLit(bytes),
                        ..
                    })) if matches!(rty, Ty::Array(..)) => {
                        let Ty::Array(_, n) = &rty else {
                            unreachable!()
                        };
                        if bytes.len() as u64 + 1 > *n {
                            return self.err("string literal longer than array", pos);
                        }
                        let mut b = bytes.clone();
                        b.push(0);
                        Some(LocalInit::Str(b))
                    }
                    Some(Init::Expr(e)) => {
                        let v = self.rvalue(e)?;
                        let v = self.convert(v, &rty, pos)?;
                        Some(LocalInit::Scalar(v))
                    }
                    Some(Init::List(_)) => {
                        let mut items = Vec::new();
                        self.flatten_local_init(
                            &rty,
                            init.as_ref().expect("checked above"),
                            0,
                            &mut items,
                            pos,
                        )?;
                        Some(LocalInit::List(items))
                    }
                };
                Stmt::DeclInit { id, init: hinit }
            }
            StmtKind::If { cond, then, els } => {
                let c = self.cond_value(cond)?;
                let t = self.check_block(std::slice::from_ref(then))?;
                let e = match els {
                    Some(e) => self.check_block(std::slice::from_ref(e))?,
                    None => Vec::new(),
                };
                Stmt::If {
                    cond: c,
                    then: t,
                    els: e,
                }
            }
            StmtKind::While { cond, body } => {
                let c = self.cond_value(cond)?;
                self.loop_depth += 1;
                let b = self.check_block(std::slice::from_ref(body))?;
                self.loop_depth -= 1;
                Stmt::While { cond: c, body: b }
            }
            StmtKind::DoWhile { cond, body } => {
                self.loop_depth += 1;
                let b = self.check_block(std::slice::from_ref(body))?;
                self.loop_depth -= 1;
                let c = self.cond_value(cond)?;
                Stmt::DoWhile { cond: c, body: b }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                let i = match init {
                    Some(st) => vec![self.check_stmt(st)?],
                    None => Vec::new(),
                };
                let c = match cond {
                    Some(e) => Some(self.cond_value(e)?),
                    None => None,
                };
                let st = match step {
                    Some(e) => Some(self.rvalue_or_void(e)?),
                    None => None,
                };
                self.loop_depth += 1;
                let b = self.check_block(std::slice::from_ref(body))?;
                self.loop_depth -= 1;
                self.pop_scope();
                Stmt::For {
                    init: i,
                    cond: c,
                    step: st,
                    body: b,
                }
            }
            StmtKind::Return(None) => {
                if self.ret_ty != Ty::Void {
                    return self.err("non-void function must return a value", pos);
                }
                Stmt::Return(None)
            }
            StmtKind::Return(Some(e)) => {
                if self.ret_ty == Ty::Void {
                    return self.err("void function cannot return a value", pos);
                }
                let v = self.rvalue(e)?;
                let ret_ty = self.ret_ty.clone();
                let v = self.convert(v, &ret_ty, pos)?;
                Stmt::Return(Some(v))
            }
            StmtKind::Break => {
                if self.loop_depth == 0 {
                    return self.err("`break` outside a loop", pos);
                }
                Stmt::Break
            }
            StmtKind::Continue => {
                if self.loop_depth == 0 {
                    return self.err("`continue` outside a loop", pos);
                }
                Stmt::Continue
            }
        })
    }

    fn try_struct_assign(&mut self, lhs: &AExpr, rhs: &AExpr, pos: Pos) -> Result<Option<Stmt>> {
        // Probe the LHS type without committing to errors for non-struct
        // cases (those fall through to ordinary assignment checking).
        let Ok(Checked::Place(dst)) = self.check_expr(lhs) else {
            return Ok(None);
        };
        let Ty::Struct(_) = dst.ty() else {
            return Ok(None);
        };
        let Checked::Place(src) = self.check_expr(rhs)? else {
            return self.err("struct assignment requires an lvalue source", pos);
        };
        if dst.ty() != src.ty() {
            return self.err("struct assignment with mismatched types", pos);
        }
        let size = self.types.size_of(dst.ty());
        let dptr = Expr {
            ty: dst.ty().clone().ptr_to(),
            kind: ExprKind::AddrOf(Box::new(dst)),
            pos,
        };
        let sptr = Expr {
            ty: src.ty().clone().ptr_to(),
            kind: ExprKind::AddrOf(Box::new(src)),
            pos,
        };
        Ok(Some(Stmt::Expr(Expr {
            ty: Ty::void_ptr(),
            kind: ExprKind::Call {
                target: CallTarget::Builtin(Builtin::Memcpy),
                args: vec![
                    dptr,
                    sptr,
                    Expr {
                        ty: Ty::long(),
                        kind: ExprKind::Int(size as i64),
                        pos,
                    },
                ],
            },
            pos,
        })))
    }

    fn flatten_local_init(
        &mut self,
        ty: &Ty,
        init: &Init,
        off: u64,
        out: &mut Vec<(u64, Expr)>,
        pos: Pos,
    ) -> Result<()> {
        match (ty, init) {
            (Ty::Array(elem, n), Init::List(items)) => {
                if items.len() as u64 > *n {
                    return self.err("too many initializers for array", pos);
                }
                let esz = self.types.size_of(elem);
                for (i, item) in items.iter().enumerate() {
                    self.flatten_local_init(elem, item, off + i as u64 * esz, out, pos)?;
                }
                Ok(())
            }
            (Ty::Struct(id), Init::List(items)) => {
                let fields: Vec<_> = self.types.fields(*id).to_vec();
                if items.len() > fields.len() {
                    return self.err("too many initializers for struct", pos);
                }
                for (f, item) in fields.iter().zip(items) {
                    self.flatten_local_init(&f.ty, item, off + f.offset, out, pos)?;
                }
                Ok(())
            }
            (
                Ty::Array(elem, n),
                Init::Expr(AExpr {
                    kind: AK::StrLit(s),
                    pos: spos,
                }),
            ) if **elem == Ty::char() || **elem == Ty::Int(IntKind::U8) => {
                if s.len() as u64 + 1 > *n {
                    return self.err("string literal longer than array", *spos);
                }
                for (i, b) in s.iter().enumerate() {
                    out.push((
                        off + i as u64,
                        Expr {
                            ty: Ty::char(),
                            kind: ExprKind::Int(*b as i64),
                            pos: *spos,
                        },
                    ));
                }
                out.push((
                    off + s.len() as u64,
                    Expr {
                        ty: Ty::char(),
                        kind: ExprKind::Int(0),
                        pos: *spos,
                    },
                ));
                Ok(())
            }
            (_, Init::Expr(e)) => {
                let v = self.rvalue(e)?;
                let v = self.convert(v, ty, pos)?;
                out.push((off, v));
                Ok(())
            }
            _ => self.err("initializer shape does not match type", pos),
        }
    }

    // -------------------------------------------------------- expressions

    /// Checks an expression and produces an rvalue (loading lvalues,
    /// decaying arrays, converting function designators to pointers).
    fn rvalue(&mut self, e: &AExpr) -> Result<Expr> {
        let c = self.check_expr(e)?;
        self.to_rvalue(c, e.pos)
    }

    /// Like [`rvalue`], but tolerates `void`-typed calls (for statements).
    fn rvalue_or_void(&mut self, e: &AExpr) -> Result<Expr> {
        let c = self.check_expr(e)?;
        match c {
            Checked::Val(v) => Ok(v),
            other => self.to_rvalue(other, e.pos),
        }
    }

    // Not a conversion of `self` (clippy's `to_*` heuristic): it lowers a
    // checked expression, and needs the checker for diagnostics.
    #[allow(clippy::wrong_self_convention)]
    fn to_rvalue(&mut self, c: Checked, pos: Pos) -> Result<Expr> {
        match c {
            Checked::Val(v) => Ok(v),
            Checked::Func(name) => self.func_addr(name, pos),
            Checked::Place(p) => match p.ty().clone() {
                Ty::Array(elem, n) => {
                    // Array-to-pointer decay: &p[0], typed elem*.
                    let idx0 = Expr {
                        ty: Ty::long(),
                        kind: ExprKind::Int(0),
                        pos,
                    };
                    let first = Place::Index {
                        base: Box::new(p),
                        index: Box::new(idx0),
                        elem: (*elem).clone(),
                    };
                    let _ = n;
                    Ok(Expr {
                        ty: (*elem).clone().ptr_to(),
                        kind: ExprKind::AddrOf(Box::new(first)),
                        pos,
                    })
                }
                ty => {
                    self.note_addr_taken_for_load(&p);
                    Ok(Expr {
                        ty,
                        kind: ExprKind::Load(Box::new(p)),
                        pos,
                    })
                }
            },
        }
    }

    /// The address of function `name`, typed as a function pointer.
    /// Builtins have no code address: they can only be called.
    fn func_addr(&self, name: String, pos: Pos) -> Result<Expr> {
        let Some(sig) = self.func_sigs.get(&name) else {
            return self.err(format!("builtin `{name}` can only be called"), pos);
        };
        Ok(Expr {
            ty: Ty::Func(Box::new(sig.clone())).ptr_to(),
            kind: ExprKind::FuncAddr(name),
            pos,
        })
    }

    /// Loading a *part* of an aggregate local (field/index) requires the
    /// local to live in memory, so mark it address-taken. Whole scalar
    /// locals can stay in registers.
    fn note_addr_taken_for_load(&mut self, p: &Place) {
        if let Place::Index { .. } | Place::Field { .. } = p {
            self.mark_addr_taken(p);
        }
    }

    fn mark_addr_taken(&mut self, p: &Place) {
        match p {
            Place::Var { id, .. } => self.locals[id.0 as usize].addr_taken = true,
            Place::Index { base, .. } | Place::Field { base, .. } => self.mark_addr_taken(base),
            Place::Global { .. } | Place::Deref { .. } => {}
        }
    }

    fn place(&mut self, e: &AExpr) -> Result<Place> {
        match self.check_expr(e)? {
            Checked::Place(p) => Ok(p),
            _ => self.err("expression is not an lvalue", e.pos),
        }
    }

    /// A scalar value for use in a condition.
    fn cond_value(&mut self, e: &AExpr) -> Result<Expr> {
        let v = self.rvalue(e)?;
        if !v.ty.is_scalar() {
            return self.err("condition must be a scalar", e.pos);
        }
        Ok(v)
    }

    fn check_expr(&mut self, e: &AExpr) -> Result<Checked> {
        let pos = e.pos;
        Ok(match &e.kind {
            AK::IntLit(v) => {
                // Literals that do not fit in `int` get type `long`, like C.
                let ty = if *v >= i32::MIN as i64 && *v <= i32::MAX as i64 {
                    Ty::int()
                } else {
                    Ty::long()
                };
                Checked::Val(Expr {
                    ty,
                    kind: ExprKind::Int(*v),
                    pos,
                })
            }
            AK::CharLit(c) => Checked::Val(Expr {
                ty: Ty::int(),
                kind: ExprKind::Int(*c as i64),
                pos,
            }),
            AK::StrLit(s) => {
                let id = self.intern_str(s);
                Checked::Val(Expr {
                    ty: Ty::char().ptr_to(),
                    kind: ExprKind::Str(id),
                    pos,
                })
            }
            AK::Null => Checked::Val(Expr {
                ty: Ty::void_ptr(),
                kind: ExprKind::NullPtr,
                pos,
            }),
            AK::Ident(name) => {
                if let Some(id) = self.lookup_local(name) {
                    let ty = self.locals[id.0 as usize].ty.clone();
                    Checked::Place(Place::Var { id, ty })
                } else if let Some(ty) = self.global_tys.get(name) {
                    Checked::Place(Place::Global {
                        name: name.clone(),
                        ty: ty.clone(),
                    })
                } else if self.func_sigs.contains_key(name) || Builtin::from_name(name).is_some() {
                    Checked::Func(name.clone())
                } else {
                    return self.err(format!("unknown identifier `{name}`"), pos);
                }
            }
            AK::Unary(UnOp::Deref, inner) => {
                let v = self.rvalue(inner)?;
                match v.ty.clone() {
                    Ty::Ptr(pointee) => match *pointee {
                        Ty::Func(_) => Checked::Val(v), // *fnptr == fnptr
                        Ty::Void => {
                            return self.err("cannot dereference `void*`; cast it first", pos)
                        }
                        t => Checked::Place(Place::Deref {
                            ptr: Box::new(v),
                            ty: t,
                        }),
                    },
                    _ => return self.err("cannot dereference a non-pointer", pos),
                }
            }
            AK::Unary(UnOp::AddrOf, inner) => match self.check_expr(inner)? {
                Checked::Place(p) => {
                    self.mark_addr_taken(&p);
                    let ty = p.ty().clone().ptr_to();
                    Checked::Val(Expr {
                        ty,
                        kind: ExprKind::AddrOf(Box::new(p)),
                        pos,
                    })
                }
                Checked::Func(name) => Checked::Val(self.func_addr(name, pos)?),
                Checked::Val(_) => return self.err("cannot take the address of an rvalue", pos),
            },
            AK::Unary(op @ (UnOp::Neg | UnOp::BitNot), inner) => {
                let v = self.rvalue(inner)?;
                let Some(k) = v.ty.int_kind() else {
                    return self.err("operand must be an integer", pos);
                };
                let k = k.promoted();
                let v = self.convert(v, &Ty::Int(k), pos)?;
                let hop = if matches!(op, UnOp::Neg) {
                    UnaryOp::Neg
                } else {
                    UnaryOp::BitNot
                };
                Checked::Val(Expr {
                    ty: Ty::Int(k),
                    kind: ExprKind::Unary(hop, Box::new(v)),
                    pos,
                })
            }
            AK::Unary(UnOp::Not, inner) => {
                let v = self.rvalue(inner)?;
                if !v.ty.is_scalar() {
                    return self.err("operand of `!` must be scalar", pos);
                }
                let kind = if v.ty.is_ptr() {
                    ExprKind::Cmp {
                        op: CmpOp::Eq,
                        signed: false,
                        lhs: Box::new(v),
                        rhs: Box::new(Expr {
                            ty: Ty::void_ptr(),
                            kind: ExprKind::NullPtr,
                            pos,
                        }),
                    }
                } else {
                    ExprKind::Unary(UnaryOp::Not, Box::new(v))
                };
                Checked::Val(Expr {
                    ty: Ty::int(),
                    kind,
                    pos,
                })
            }
            AK::IncDec { target, inc, post } => {
                let p = self.place(target)?;
                let (elem_size, ty) = match p.ty() {
                    Ty::Int(_) => (0u64, p.ty().clone()),
                    Ty::Ptr(pointee) => {
                        let sz = match &**pointee {
                            Ty::Void => 1,
                            t @ (Ty::Int(_) | Ty::Ptr(_) | Ty::Array(..) | Ty::Struct(_)) => {
                                self.types.size_of(t)
                            }
                            Ty::Func(_) => {
                                return self.err("cannot increment a function pointer", pos)
                            }
                        };
                        (sz, p.ty().clone())
                    }
                    _ => return self.err("cannot increment this type", pos),
                };
                Checked::Val(Expr {
                    ty,
                    kind: ExprKind::IncDec {
                        place: Box::new(p),
                        inc: *inc,
                        post: *post,
                        elem_size,
                    },
                    pos,
                })
            }
            AK::Binary(op, l, r) => return self.check_binary(*op, l, r, pos),
            AK::Logical { and, lhs, rhs } => {
                let l = self.cond_value(lhs)?;
                let r = self.cond_value(rhs)?;
                Checked::Val(Expr {
                    ty: Ty::int(),
                    kind: ExprKind::Logical {
                        and: *and,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                    pos,
                })
            }
            AK::Cond(c, t, f) => {
                let cv = self.cond_value(c)?;
                let tv = self.rvalue(t)?;
                let fv = self.rvalue(f)?;
                let ty = self.unify(&tv.ty, &fv.ty, pos)?;
                let tv = self.convert(tv, &ty, pos)?;
                let fv = self.convert(fv, &ty, pos)?;
                Checked::Val(Expr {
                    ty,
                    kind: ExprKind::Cond {
                        cond: Box::new(cv),
                        then: Box::new(tv),
                        els: Box::new(fv),
                    },
                    pos,
                })
            }
            AK::Assign { op: None, lhs, rhs } => {
                let p = self.place(lhs)?;
                if matches!(p.ty(), Ty::Struct(_) | Ty::Array(..)) {
                    return self.err("aggregate assignment only supported as a statement", pos);
                }
                let v = self.rvalue(rhs)?;
                let pty = p.ty().clone();
                let v = self.convert(v, &pty, pos)?;
                Checked::Val(Expr {
                    ty: pty,
                    kind: ExprKind::Assign {
                        place: Box::new(p),
                        value: Box::new(v),
                    },
                    pos,
                })
            }
            AK::Assign {
                op: Some(op),
                lhs,
                rhs,
            } => {
                // `a op= b` desugars to `a = a op b` (single evaluation of
                // `a`'s address is guaranteed by HIR Assign semantics only
                // for side-effect-free places; CIR-C programs keep compound
                // assignment targets simple, and the checker re-checks the
                // place twice which is safe for all supported place forms).
                let p = self.place(lhs)?;
                let pty = p.ty().clone();
                let cur = {
                    self.note_addr_taken_for_load(&p);
                    Expr {
                        ty: pty.clone(),
                        kind: ExprKind::Load(Box::new(p.clone())),
                        pos,
                    }
                };
                let rv = self.rvalue(rhs)?;
                let combined = self.binary_values(*op, cur, rv, pos)?;
                let combined = self.convert(combined, &pty, pos)?;
                Checked::Val(Expr {
                    ty: pty,
                    kind: ExprKind::Assign {
                        place: Box::new(p),
                        value: Box::new(combined),
                    },
                    pos,
                })
            }
            AK::Call { callee, args } => return self.check_call(callee, args, pos),
            AK::Index(base, idx) => {
                let b = self.check_expr(base)?;
                let i = self.rvalue(idx)?;
                if !i.ty.is_int() {
                    return self.err("array index must be an integer", pos);
                }
                let i = self.convert(i, &Ty::long(), pos)?;
                match b {
                    Checked::Place(p) if matches!(p.ty(), Ty::Array(..)) => {
                        let Ty::Array(elem, _) = p.ty().clone() else {
                            unreachable!()
                        };
                        Checked::Place(Place::Index {
                            base: Box::new(p),
                            index: Box::new(i),
                            elem: *elem,
                        })
                    }
                    other => {
                        let ptr = self.to_rvalue(other, pos)?;
                        let Ty::Ptr(pointee) = ptr.ty.clone() else {
                            return self.err("indexing requires an array or pointer", pos);
                        };
                        if matches!(*pointee, Ty::Void | Ty::Func(_)) {
                            return self.err("cannot index `void*` or function pointers", pos);
                        }
                        let esz = self.types.size_of(&pointee);
                        let addr = Expr {
                            ty: ptr.ty.clone(),
                            kind: ExprKind::PtrAdd {
                                ptr: Box::new(ptr),
                                index: Box::new(i),
                                elem_size: esz,
                            },
                            pos,
                        };
                        Checked::Place(Place::Deref {
                            ptr: Box::new(addr),
                            ty: *pointee,
                        })
                    }
                }
            }
            AK::Member(base, fname) => {
                let p = self.place(base)?;
                let Ty::Struct(sid) = p.ty().clone() else {
                    return self.err("`.` requires a struct", pos);
                };
                let Some(f) = self.types.field(sid, fname).cloned() else {
                    return self.err(format!("no field `{fname}`"), pos);
                };
                Checked::Place(Place::Field {
                    base: Box::new(p),
                    sid,
                    offset: f.offset,
                    ty: f.ty,
                })
            }
            AK::Arrow(base, fname) => {
                let ptr = self.rvalue(base)?;
                let Ty::Ptr(pointee) = ptr.ty.clone() else {
                    return self.err("`->` requires a struct pointer", pos);
                };
                let Ty::Struct(sid) = *pointee else {
                    return self.err("`->` requires a struct pointer", pos);
                };
                let Some(f) = self.types.field(sid, fname).cloned() else {
                    return self.err(format!("no field `{fname}`"), pos);
                };
                let base_place = Place::Deref {
                    ptr: Box::new(ptr),
                    ty: Ty::Struct(sid),
                };
                Checked::Place(Place::Field {
                    base: Box::new(base_place),
                    sid,
                    offset: f.offset,
                    ty: f.ty,
                })
            }
            AK::Cast(t, inner) => {
                let target = self.resolve_ty(t, pos)?;
                let v = self.rvalue(inner)?;
                if target == Ty::Void {
                    return Ok(Checked::Val(v));
                }
                Checked::Val(self.explicit_cast(v, &target, pos)?)
            }
            AK::SizeofTy(t) => {
                let ty = self.resolve_ty(t, pos)?;
                let sz = self.types.size_of(&ty);
                Checked::Val(Expr {
                    ty: Ty::long(),
                    kind: ExprKind::Int(sz as i64),
                    pos,
                })
            }
            AK::SizeofExpr(inner) => {
                let c = self.check_expr(inner)?;
                let ty = match &c {
                    Checked::Place(p) => p.ty().clone(),
                    Checked::Val(v) => v.ty.clone(),
                    Checked::Func(_) => return self.err("sizeof a function", pos),
                };
                let sz = self.types.size_of(&ty);
                Checked::Val(Expr {
                    ty: Ty::long(),
                    kind: ExprKind::Int(sz as i64),
                    pos,
                })
            }
        })
    }

    /// The element size pointer arithmetic on a `ptr_ty` value steps by
    /// (`pointer ± integer` and `pointer − pointer`): one byte for
    /// `void*`, as in GNU C, and none for function pointers, whose
    /// pointee has no size.
    fn arith_elem_size(&self, ptr_ty: &Ty, pos: Pos) -> Result<u64> {
        match ptr_ty.pointee().expect("checked is_ptr") {
            Ty::Void => Ok(1),
            Ty::Func(_) => self.err("arithmetic on function pointer", pos),
            t => Ok(self.types.size_of(t)),
        }
    }

    fn check_binary(&mut self, op: BinOp, l: &AExpr, r: &AExpr, pos: Pos) -> Result<Checked> {
        let lv = self.rvalue(l)?;
        let rv = self.rvalue(r)?;
        Ok(Checked::Val(self.binary_values(op, lv, rv, pos)?))
    }

    fn binary_values(&mut self, op: BinOp, lv: Expr, rv: Expr, pos: Pos) -> Result<Expr> {
        use BinOp::*;
        // Pointer arithmetic and comparisons.
        match (lv.ty.is_ptr(), rv.ty.is_ptr(), op) {
            (true, false, Add) | (true, false, Sub) => {
                let esz = self.arith_elem_size(&lv.ty, pos)?;
                let idx = self.convert(rv, &Ty::long(), pos)?;
                let idx = if op == Sub {
                    Expr {
                        ty: Ty::long(),
                        kind: ExprKind::Unary(UnaryOp::Neg, Box::new(idx)),
                        pos,
                    }
                } else {
                    idx
                };
                return Ok(Expr {
                    ty: lv.ty.clone(),
                    kind: ExprKind::PtrAdd {
                        ptr: Box::new(lv),
                        index: Box::new(idx),
                        elem_size: esz,
                    },
                    pos,
                });
            }
            (false, true, Add) => {
                return self.binary_values(Add, rv, lv, pos);
            }
            (true, true, Sub) => {
                let esz = self.arith_elem_size(&lv.ty, pos)?;
                return Ok(Expr {
                    ty: Ty::long(),
                    kind: ExprKind::PtrDiff {
                        lhs: Box::new(lv),
                        rhs: Box::new(rv),
                        elem_size: esz,
                    },
                    pos,
                });
            }
            (true, _, Lt | Le | Gt | Ge | Eq | Ne) | (_, true, Lt | Le | Gt | Ge | Eq | Ne) => {
                let cmp = cmp_of(op);
                let (lv, rv) = self.unify_cmp_operands(lv, rv, pos)?;
                return Ok(Expr {
                    ty: Ty::int(),
                    kind: ExprKind::Cmp {
                        op: cmp,
                        signed: false,
                        lhs: Box::new(lv),
                        rhs: Box::new(rv),
                    },
                    pos,
                });
            }
            _ => {}
        }

        let (Some(lk), Some(rk)) = (lv.ty.int_kind(), rv.ty.int_kind()) else {
            return self.err("invalid operand types for binary operator", pos);
        };

        if op.is_cmp() {
            let k = lk.usual_arith(rk);
            let lv = self.convert(lv, &Ty::Int(k), pos)?;
            let rv = self.convert(rv, &Ty::Int(k), pos)?;
            return Ok(Expr {
                ty: Ty::int(),
                kind: ExprKind::Cmp {
                    op: cmp_of(op),
                    signed: k.is_signed(),
                    lhs: Box::new(lv),
                    rhs: Box::new(rv),
                },
                pos,
            });
        }

        // Shifts use the promoted left operand's kind; everything else uses
        // the usual arithmetic conversions.
        let k = if matches!(op, Shl | Shr) {
            lk.promoted()
        } else {
            lk.usual_arith(rk)
        };
        let lv = self.convert(lv, &Ty::Int(k), pos)?;
        let rv = self.convert(rv, &Ty::Int(k), pos)?;
        let aop = match op {
            Add => ArithOp::Add,
            Sub => ArithOp::Sub,
            Mul => ArithOp::Mul,
            Div => ArithOp::Div,
            Rem => ArithOp::Rem,
            And => ArithOp::And,
            Or => ArithOp::Or,
            Xor => ArithOp::Xor,
            Shl => ArithOp::Shl,
            Shr => ArithOp::Shr,
            _ => unreachable!("comparisons handled above"),
        };
        Ok(Expr {
            ty: Ty::Int(k),
            kind: ExprKind::Binary {
                op: aop,
                k,
                lhs: Box::new(lv),
                rhs: Box::new(rv),
            },
            pos,
        })
    }

    fn unify_cmp_operands(&mut self, lv: Expr, rv: Expr, pos: Pos) -> Result<(Expr, Expr)> {
        match (lv.ty.is_ptr(), rv.ty.is_ptr()) {
            (true, true) => Ok((lv, rv)),
            (true, false) => {
                if is_zero_const(&rv) {
                    let null = Expr {
                        ty: lv.ty.clone(),
                        kind: ExprKind::NullPtr,
                        pos,
                    };
                    Ok((lv, null))
                } else {
                    self.err("comparison of pointer with non-zero integer", pos)
                }
            }
            (false, true) => {
                let (r2, l2) = self.unify_cmp_operands(rv, lv, pos)?;
                Ok((l2, r2))
            }
            _ => unreachable!("at least one pointer"),
        }
    }

    fn unify(&mut self, a: &Ty, b: &Ty, pos: Pos) -> Result<Ty> {
        if a == b {
            return Ok(a.clone());
        }
        match (a, b) {
            (Ty::Int(x), Ty::Int(y)) => Ok(Ty::Int(x.usual_arith(*y))),
            (Ty::Ptr(_), Ty::Ptr(_)) => Ok(a.clone()),
            (Ty::Ptr(_), Ty::Int(_)) | (Ty::Int(_), Ty::Ptr(_)) => {
                // Permits `cond ? p : 0`.
                if a.is_ptr() {
                    Ok(a.clone())
                } else {
                    Ok(b.clone())
                }
            }
            _ => self.err("incompatible branch types", pos),
        }
    }

    fn check_call(&mut self, callee: &AExpr, args: &[AExpr], pos: Pos) -> Result<Checked> {
        let (target, sig) = match self.check_expr(callee)? {
            Checked::Func(name) => {
                if self.func_sigs.contains_key(&name) {
                    let sig = self.func_sigs[&name].clone();
                    (CallTarget::Direct(name), sig)
                } else {
                    let b = Builtin::from_name(&name).expect("checked in Ident");
                    (CallTarget::Builtin(b), b.sig())
                }
            }
            other => {
                let v = self.to_rvalue(other, pos)?;
                let Ty::Ptr(inner) = &v.ty else {
                    return self.err("called object is not a function", pos);
                };
                let Ty::Func(sig) = &**inner else {
                    return self.err("called object is not a function", pos);
                };
                let sig = (**sig).clone();
                (CallTarget::Indirect(Box::new(v)), sig)
            }
        };
        if args.len() < sig.params.len() || (!sig.vararg && args.len() > sig.params.len()) {
            return self.err(
                format!(
                    "expected {} argument(s), got {}",
                    sig.params.len(),
                    args.len()
                ),
                pos,
            );
        }
        let mut hargs = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let v = self.rvalue(a)?;
            let v = if i < sig.params.len() {
                self.convert(v, &sig.params[i].clone(), pos)?
            } else {
                // Variadic arguments: default promotions.
                match v.ty.clone() {
                    Ty::Int(k) if k.size() < 8 => {
                        let target = if k.is_signed() {
                            IntKind::I64
                        } else {
                            IntKind::U64
                        };
                        self.convert(v, &Ty::Int(target), pos)?
                    }
                    _ => v,
                }
            };
            hargs.push(v);
        }
        Ok(Checked::Val(Expr {
            ty: sig.ret.clone(),
            kind: ExprKind::Call {
                target,
                args: hargs,
            },
            pos,
        }))
    }

    fn explicit_cast(&mut self, v: Expr, target: &Ty, pos: Pos) -> Result<Expr> {
        if v.ty == *target {
            return Ok(v);
        }
        let kind = match (&v.ty, target) {
            (Ty::Int(_), Ty::Int(k)) => CastKind::IntToInt(*k),
            (Ty::Int(_), Ty::Ptr(_)) => {
                if is_zero_const(&v) {
                    return Ok(Expr {
                        ty: target.clone(),
                        kind: ExprKind::NullPtr,
                        pos,
                    });
                }
                CastKind::IntToPtr
            }
            (Ty::Ptr(_), Ty::Int(k)) => CastKind::PtrToInt(*k),
            (Ty::Ptr(_), Ty::Ptr(_)) => CastKind::PtrToPtr,
            _ => return self.err("unsupported cast", pos),
        };
        Ok(Expr {
            ty: target.clone(),
            kind: ExprKind::Cast {
                kind,
                arg: Box::new(v),
            },
            pos,
        })
    }

    /// Implicit conversion of `v` to `target`.
    fn convert(&mut self, v: Expr, target: &Ty, pos: Pos) -> Result<Expr> {
        if v.ty == *target {
            return Ok(v);
        }
        match (&v.ty, target) {
            (Ty::Int(_), Ty::Int(k)) => Ok(Expr {
                ty: target.clone(),
                kind: ExprKind::Cast {
                    kind: CastKind::IntToInt(*k),
                    arg: Box::new(v),
                },
                pos,
            }),
            // All pointer-to-pointer conversions are allowed implicitly;
            // SoftBound's disjoint metadata makes even wild casts safe
            // (paper §3.4/§5.2).
            (Ty::Ptr(_), Ty::Ptr(_)) => Ok(Expr {
                ty: target.clone(),
                kind: ExprKind::Cast {
                    kind: CastKind::PtrToPtr,
                    arg: Box::new(v),
                },
                pos,
            }),
            (Ty::Int(_), Ty::Ptr(_)) if is_zero_const(&v) => Ok(Expr {
                ty: target.clone(),
                kind: ExprKind::NullPtr,
                pos,
            }),
            _ => self.err(
                format!(
                    "cannot implicitly convert `{}` to `{}`",
                    self.types.display(&v.ty),
                    self.types.display(target)
                ),
                pos,
            ),
        }
    }
}

fn cmp_of(op: BinOp) -> CmpOp {
    match op {
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        _ => unreachable!("not a comparison"),
    }
}

fn is_zero_const(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::Int(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ck(src: &str) -> Program {
        let unit = parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
        check(&unit).unwrap_or_else(|e| panic!("typeck: {e}\nsource: {src}"))
    }

    fn ck_err(src: &str) -> CompileError {
        let unit = parse(src).expect("should parse");
        check(&unit).expect_err("should fail type checking")
    }

    #[test]
    fn simple_function() {
        let p = ck("int add(int a, int b) { return a + b; }");
        let f = p.func("add").expect("function exists");
        assert_eq!(f.sig.params.len(), 2);
        assert!(f.defined);
    }

    #[test]
    fn pointer_arith_scales() {
        let p = ck("int f(int* p) { return *(p + 2); }");
        let f = p.func("f").expect("exists");
        // Body: Return(Load(Deref(PtrAdd{elem_size: 4})))
        let Stmt::Return(Some(e)) = &f.body[0] else {
            panic!("expected return")
        };
        let ExprKind::Load(place) = &e.kind else {
            panic!("expected load, got {:?}", e.kind)
        };
        let Place::Deref { ptr, .. } = &**place else {
            panic!("expected deref")
        };
        let ExprKind::PtrAdd { elem_size, .. } = &ptr.kind else {
            panic!("expected ptradd")
        };
        assert_eq!(*elem_size, 4);
    }

    #[test]
    fn array_decay_in_call() {
        ck(r#"
            long strlen(char* s);
            int main() { char buf[8]; buf[0] = 0; return (int)strlen(buf); }
        "#);
    }

    #[test]
    fn struct_field_resolution() {
        let p = ck(r#"
            struct point { int x; int y; };
            int get_y(struct point* p) { return p->y; }
        "#);
        let f = p.func("get_y").expect("exists");
        let Stmt::Return(Some(e)) = &f.body[0] else {
            panic!()
        };
        let ExprKind::Load(place) = &e.kind else {
            panic!()
        };
        let Place::Field { offset, .. } = &**place else {
            panic!("expected field")
        };
        assert_eq!(*offset, 4);
    }

    #[test]
    fn sub_object_place_for_inner_array() {
        // The §2.1 motivating example: &node.str[2] must resolve to a
        // Field place (so SoftBound can shrink bounds to the field).
        let p = ck(r#"
            struct node { char str[8]; void (*func)(void); };
            char* f(struct node* n) { return &n->str[2]; }
        "#);
        let f = p.func("f").expect("exists");
        let Stmt::Return(Some(e)) = &f.body[0] else {
            panic!()
        };
        let ExprKind::AddrOf(place) = &e.kind else {
            panic!("expected addrof")
        };
        let Place::Index { base, .. } = &**place else {
            panic!("expected index")
        };
        assert!(matches!(**base, Place::Field { .. }));
    }

    #[test]
    fn wild_casts_allowed() {
        ck(r#"
            int main() {
                long x = 7;
                char* p = (char*)&x;
                int* q = (int*)p;
                long r = (long)q;
                int** w = (int**)r;
                return (int)(w == (int**)0);
            }
        "#);
    }

    #[test]
    fn implicit_ptr_conversions() {
        ck(r#"
            void* malloc(long n);
            int main() { int* p = malloc(40); char* c = p; return c == 0; }
        "#);
    }

    #[test]
    fn null_constant() {
        ck("int main() { char* p = NULL; int* q = 0; return p == NULL && q == 0; }");
    }

    #[test]
    fn builtins_resolve() {
        ck(r#"
            int main() {
                char* p = (char*)malloc(16);
                strcpy(p, "hi");
                long n = strlen(p);
                free(p);
                return (int)n;
            }
        "#);
    }

    #[test]
    fn function_pointers() {
        let p = ck(r#"
            int inc(int x) { return x + 1; }
            int apply(int (*f)(int), int v) { return f(v); }
            int main() { return apply(inc, 41); }
        "#);
        assert!(p.func("apply").is_some());
    }

    #[test]
    fn global_initializers() {
        let p = ck(r#"
            int table[4] = {1, 2, 3, 4};
            char* msg = "hello";
            int x = 10;
            int* px = &x;
            struct pt { int x; int y; };
            struct pt origin = {3, 4};
        "#);
        let t = p.global("table").expect("exists");
        assert_eq!(t.init.len(), 4);
        let m = p.global("msg").expect("exists");
        assert!(matches!(m.init[0].1, ConstItem::Str(_)));
        let px = p.global("px").expect("exists");
        assert!(matches!(px.init[0].1, ConstItem::GlobalAddr { .. }));
        let o = p.global("origin").expect("exists");
        assert_eq!(o.init[1].0, 4);
    }

    #[test]
    fn global_function_pointer() {
        let p = ck(r#"
            void handler(void) { }
            void (*current)(void) = handler;
        "#);
        let g = p.global("current").expect("exists");
        assert!(matches!(g.init[0].1, ConstItem::FuncAddr(_)));
    }

    #[test]
    fn unsized_arrays() {
        let p = ck("int t[] = {1,2,3}; char s[] = \"abcd\";");
        assert_eq!(
            p.global("t").map(|g| g.ty.clone()),
            Some(Ty::Array(Box::new(Ty::int()), 3))
        );
        assert_eq!(
            p.global("s").map(|g| g.ty.clone()),
            Some(Ty::Array(Box::new(Ty::char()), 5))
        );
    }

    #[test]
    fn string_array_local_init() {
        ck("int main() { char buf[8] = \"hi\"; return buf[0]; }");
    }

    #[test]
    fn recursive_struct() {
        ck(r#"
            struct list { int v; struct list* next; };
            int sum(struct list* l) {
                int s = 0;
                while (l != NULL) { s += l->v; l = l->next; }
                return s;
            }
        "#);
    }

    #[test]
    fn ptr_diff_type() {
        let p = ck("long f(char* a, char* b) { return a - b; }");
        let f = p.func("f").expect("exists");
        let Stmt::Return(Some(e)) = &f.body[0] else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::PtrDiff { .. }));
    }

    #[test]
    fn unsigned_arithmetic() {
        let p = ck("unsigned int h(unsigned int x) { return x / 3u + (x >> 2); }");
        assert!(p.func("h").is_some());
    }

    #[test]
    fn vararg_user_function() {
        ck(r#"
            int sum_all(int n, ...) {
                int s = 0;
                int i;
                for (i = 0; i < n; i++) s += (int)va_arg_long(i);
                return s;
            }
            int main() { return sum_all(3, 1, 2, 3); }
        "#);
    }

    #[test]
    fn err_unknown_identifier() {
        let e = ck_err("int main() { return zork; }");
        assert!(e.message().contains("unknown identifier"));
    }

    #[test]
    fn err_call_arity() {
        let e = ck_err("int f(int a) { return a; } int main() { return f(1, 2); }");
        assert!(e.message().contains("argument"));
    }

    #[test]
    fn err_deref_non_pointer() {
        let e = ck_err("int main() { int x = 1; return *x; }");
        assert!(e.message().contains("dereference"));
    }

    #[test]
    fn err_break_outside_loop() {
        let e = ck_err("int main() { break; return 0; }");
        assert!(e.message().contains("break"));
    }

    #[test]
    fn err_struct_by_value_param() {
        let e = ck_err("struct s { int v; }; int f(struct s x) { return x.v; }");
        assert!(e.message().contains("structs by value"));
    }

    #[test]
    fn err_implicit_int_to_ptr() {
        let e = ck_err("int main() { char* p = 42; return 0; }");
        assert!(e.message().contains("convert"));
    }

    #[test]
    fn err_duplicate_global() {
        let e = ck_err("int x; int x;");
        assert!(e.message().contains("duplicate"));
    }

    #[test]
    fn err_conflicting_prototypes() {
        let e = ck_err("int f(int a); char f(int a);");
        assert!(e.message().contains("conflicting"));
    }

    #[test]
    fn err_incomplete_struct_by_value() {
        let e = ck_err("struct later; int main() { struct later x; return 0; }");
        assert!(e.message().contains("before definition"));
    }

    #[test]
    fn addr_taken_marking() {
        let p = ck("int main() { int x = 1; int* p = &x; int y = 2; return *p + y; }");
        let f = p.func("main").expect("exists");
        let x = f.locals.iter().find(|l| l.name == "x").expect("x exists");
        let y = f.locals.iter().find(|l| l.name == "y").expect("y exists");
        assert!(x.addr_taken);
        assert!(!y.addr_taken);
    }

    #[test]
    fn setjmp_longjmp_types() {
        ck(r#"
            long jb[8];
            int main() {
                if (setjmp(jb) == 0) { longjmp(jb, 1); }
                return 0;
            }
        "#);
    }

    #[test]
    fn setbound_builtin() {
        ck(r#"
            int main() {
                long raw = 4096;
                char* p = (char*)setbound((void*)raw, 64);
                return p != NULL;
            }
        "#);
    }

    #[test]
    fn struct_assignment_desugars_to_memcpy() {
        let p = ck(r#"
            struct s { int a; int b; };
            int main() { struct s x; struct s y; x.a = 1; x.b = 2; y = x; return y.a; }
        "#);
        let f = p.func("main").expect("exists");
        let has_memcpy = f.body.iter().any(|st| {
            matches!(
                st,
                Stmt::Expr(Expr {
                    kind: ExprKind::Call {
                        target: CallTarget::Builtin(Builtin::Memcpy),
                        ..
                    },
                    ..
                })
            )
        });
        assert!(has_memcpy);
    }

    #[test]
    fn cond_expr_with_pointers() {
        ck("char* pick(int c, char* a, char* b) { return c ? a : b; }");
    }

    #[test]
    fn multidim_arrays() {
        ck(r#"
            int grid[4][8];
            int main() {
                int i; int j;
                for (i = 0; i < 4; i++)
                    for (j = 0; j < 8; j++)
                        grid[i][j] = i * 8 + j;
                return grid[3][7];
            }
        "#);
    }

    #[test]
    fn unions_overlay() {
        ck(r#"
            union conv { long l; char bytes[8]; };
            int main() {
                union conv c;
                c.l = 0x41;
                return c.bytes[0];
            }
        "#);
    }
}
