//! Recursive-descent parser for CIR-C.
//!
//! The grammar is the pragmatic C subset the [crate documentation](crate)
//! describes: full expression syntax with C precedence, statements
//! (`if`/`while`/`for`/`do`/`return`/`break`/`continue`/blocks), struct
//! and union definitions, globals with brace initializers, function
//! definitions and prototypes, and function-pointer declarators of the
//! common `ret (*name)(params)` shape.

use crate::ast::*;
use crate::error::{CompileError, Pos, Result};
use crate::lexer::lex;
use crate::token::{Tok, Token};

/// Parses a translation unit from source text.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse(src: &str) -> Result<Unit> {
    let toks = lex(src)?;
    Parser { toks, i: 0 }.unit()
}

struct Parser {
    toks: Vec<Token>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.i + 1).min(self.toks.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.i].clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(CompileError::new(
                format!("expected {}, found {}", t, self.peek()),
                self.pos(),
            ))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(CompileError::new(
                format!("expected identifier, found {other}"),
                self.pos(),
            )),
        }
    }

    // ---------------------------------------------------------- top level

    fn unit(&mut self) -> Result<Unit> {
        let mut decls = Vec::new();
        while !self.at(&Tok::Eof) {
            self.top_decl(&mut decls)?;
        }
        Ok(Unit { decls })
    }

    fn top_decl(&mut self, out: &mut Vec<Decl>) -> Result<()> {
        // Storage-class keywords are accepted and ignored.
        while self.eat(&Tok::KwStatic) || self.eat(&Tok::KwExtern) || self.eat(&Tok::KwConst) {}

        // struct/union definition `struct TAG { ... };` — distinguished from
        // a declaration that merely *uses* `struct TAG` by the `{` after the
        // tag.
        if (self.at(&Tok::KwStruct) || self.at(&Tok::KwUnion))
            && matches!(self.peek2(), Tok::Ident(_))
            && self.toks.get(self.i + 2).map(|t| &t.tok) == Some(&Tok::LBrace)
        {
            let pos = self.pos();
            let is_union = matches!(self.bump().tok, Tok::KwUnion);
            let tag = self.ident()?;
            self.expect(&Tok::LBrace)?;
            let mut fields = Vec::new();
            while !self.eat(&Tok::RBrace) {
                let base = self.base_type()?;
                loop {
                    let (name, ty) = self.declarator(base.clone())?;
                    fields.push((name, ty));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::Semi)?;
            }
            self.expect(&Tok::Semi)?;
            out.push(Decl::Struct {
                tag,
                is_union,
                fields,
                pos,
            });
            return Ok(());
        }

        let pos = self.pos();
        let base = self.base_type()?;
        // `struct TAG;` forward declaration: nothing to record.
        if self.eat(&Tok::Semi) {
            return Ok(());
        }
        let (name, ty) = self.declarator(base.clone())?;

        if self.at(&Tok::LParen) && !matches!(ty, TypeExpr::Func { .. }) {
            // Function definition or prototype: `ret name(params) {body}`.
            let (params, vararg) = self.param_list()?;
            if self.eat(&Tok::Semi) {
                out.push(Decl::Func {
                    name,
                    ret: ty,
                    params,
                    vararg,
                    body: None,
                    pos,
                });
            } else {
                self.expect(&Tok::LBrace)?;
                let body = self.block_body()?;
                out.push(Decl::Func {
                    name,
                    ret: ty,
                    params,
                    vararg,
                    body: Some(body),
                    pos,
                });
            }
            return Ok(());
        }

        // Global variable(s), possibly a comma-separated declarator list.
        let mut pending = vec![(name, ty)];
        loop {
            let init = if self.eat(&Tok::Assign) {
                Some(self.initializer()?)
            } else {
                None
            };
            let (name, ty) = pending.pop().expect("one pending declarator");
            out.push(Decl::Global {
                name,
                ty,
                init,
                pos,
            });
            if self.eat(&Tok::Comma) {
                pending.push(self.declarator(base.clone())?);
                continue;
            }
            self.expect(&Tok::Semi)?;
            break;
        }
        Ok(())
    }

    fn param_list(&mut self) -> Result<(Vec<Param>, bool)> {
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        let mut vararg = false;
        if self.eat(&Tok::RParen) {
            return Ok((params, vararg));
        }
        // `(void)` means no parameters.
        if self.at(&Tok::KwVoid) && self.peek2() == &Tok::RParen {
            self.bump();
            self.bump();
            return Ok((params, vararg));
        }
        loop {
            if self.eat(&Tok::Ellipsis) {
                vararg = true;
                break;
            }
            let base = self.base_type()?;
            let (name, ty) = self.declarator_opt_name(base)?;
            // Array parameters decay to pointers, as in C.
            let ty = decay(ty);
            params.push(Param { name, ty });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        Ok((params, vararg))
    }

    // --------------------------------------------------------------- types

    /// Parses the "base type" part: keywords plus `struct`/`union` tags.
    fn base_type(&mut self) -> Result<TypeExpr> {
        while self.eat(&Tok::KwConst) || self.eat(&Tok::KwStatic) {}
        let pos = self.pos();
        let mut unsigned = false;
        let mut explicit_sign = false;
        if self.eat(&Tok::KwUnsigned) {
            unsigned = true;
            explicit_sign = true;
        } else if self.eat(&Tok::KwSigned) {
            explicit_sign = true;
        }
        while self.eat(&Tok::KwConst) {}
        let t = match self.peek().clone() {
            Tok::KwVoid => {
                self.bump();
                TypeExpr::Void
            }
            Tok::KwChar => {
                self.bump();
                TypeExpr::Char { unsigned }
            }
            Tok::KwShort => {
                self.bump();
                self.eat(&Tok::KwInt);
                TypeExpr::Short { unsigned }
            }
            Tok::KwInt => {
                self.bump();
                TypeExpr::Int { unsigned }
            }
            Tok::KwLong => {
                self.bump();
                self.eat(&Tok::KwLong); // `long long` == long
                self.eat(&Tok::KwInt); // `long int`
                TypeExpr::Long { unsigned }
            }
            Tok::KwStruct | Tok::KwUnion => {
                let is_union = matches!(self.bump().tok, Tok::KwUnion);
                let tag = self.ident()?;
                TypeExpr::Named { tag, is_union }
            }
            _ if explicit_sign => TypeExpr::Int { unsigned },
            other => {
                return Err(CompileError::new(
                    format!("expected type, found {other}"),
                    pos,
                ))
            }
        };
        while self.eat(&Tok::KwConst) {}
        Ok(t)
    }

    /// Parses pointer stars, a (required) name or `(*name)(params)`
    /// function-pointer declarator, and array suffixes.
    fn declarator(&mut self, base: TypeExpr) -> Result<(String, TypeExpr)> {
        let (name, ty) = self.declarator_opt_name(base)?;
        if name.is_empty() {
            return Err(CompileError::new(
                "expected a name in declarator",
                self.pos(),
            ));
        }
        Ok((name, ty))
    }

    fn declarator_opt_name(&mut self, base: TypeExpr) -> Result<(String, TypeExpr)> {
        let mut ty = base;
        while self.eat(&Tok::Star) {
            while self.eat(&Tok::KwConst) {}
            ty = TypeExpr::Ptr(Box::new(ty));
        }
        // Function-pointer declarator: `(*name)(params)` (possibly with
        // extra leading stars for pointer-to-function-pointer, and array
        // suffixes for arrays of function pointers: `(*ops[2])(int)`).
        if self.at(&Tok::LParen) && self.peek2() == &Tok::Star {
            self.bump(); // (
            let mut extra = 0;
            while self.eat(&Tok::Star) {
                extra += 1;
            }
            let name = if matches!(self.peek(), Tok::Ident(_)) {
                self.ident()?
            } else {
                String::new()
            };
            let mut dims = Vec::new();
            while self.eat(&Tok::LBracket) {
                let e = self.expr()?;
                self.expect(&Tok::RBracket)?;
                dims.push(e);
            }
            self.expect(&Tok::RParen)?;
            let (params, vararg) = self.type_param_list()?;
            let mut fty = TypeExpr::Ptr(Box::new(TypeExpr::Func {
                ret: Box::new(ty),
                params,
                vararg,
            }));
            for _ in 1..extra {
                fty = TypeExpr::Ptr(Box::new(fty));
            }
            for d in dims.into_iter().rev() {
                fty = TypeExpr::Array(Box::new(fty), Box::new(d));
            }
            return Ok((name, fty));
        }
        let name = if matches!(self.peek(), Tok::Ident(_)) {
            self.ident()?
        } else {
            String::new()
        };
        // Array suffixes, outermost first in source order.
        let mut dims = Vec::new();
        while self.eat(&Tok::LBracket) {
            if self.eat(&Tok::RBracket) {
                // Unsized `[]` — size inferred from initializer (checked later).
                dims.push(None);
            } else {
                let e = self.expr()?;
                self.expect(&Tok::RBracket)?;
                dims.push(Some(e));
            }
        }
        for d in dims.into_iter().rev() {
            let size = d.unwrap_or(Expr {
                kind: ExprKind::IntLit(0),
                pos: Pos::none(),
            });
            ty = TypeExpr::Array(Box::new(ty), Box::new(size));
        }
        Ok((name, ty))
    }

    /// Parameter list of a function *type* (names allowed but ignored).
    fn type_param_list(&mut self) -> Result<(Vec<TypeExpr>, bool)> {
        let (params, vararg) = self.param_list()?;
        Ok((params.into_iter().map(|p| p.ty).collect(), vararg))
    }

    /// Parses a type-name (for casts and `sizeof`): base type, stars, and
    /// abstract function-pointer/array suffixes.
    fn type_name(&mut self) -> Result<TypeExpr> {
        let base = self.base_type()?;
        let (name, ty) = self.declarator_opt_name(base)?;
        if !name.is_empty() {
            return Err(CompileError::new("unexpected name in type", self.pos()));
        }
        Ok(ty)
    }

    // ---------------------------------------------------------- statements

    fn block_body(&mut self) -> Result<Vec<Stmt>> {
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            self.stmt_into(&mut stmts)?;
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let mut v = Vec::new();
        self.stmt_into(&mut v)?;
        if v.len() == 1 {
            Ok(v.pop().expect("one statement"))
        } else {
            let pos = v.first().map(|s| s.pos).unwrap_or_else(Pos::none);
            Ok(Stmt {
                kind: StmtKind::Block(v),
                pos,
            })
        }
    }

    /// Parses one statement; declarations with comma lists may expand to
    /// several `Stmt`s, hence the out-parameter.
    fn stmt_into(&mut self, out: &mut Vec<Stmt>) -> Result<()> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::LBrace => {
                self.bump();
                let body = self.block_body()?;
                out.push(Stmt {
                    kind: StmtKind::Block(body),
                    pos,
                });
            }
            Tok::Semi => {
                self.bump();
                out.push(Stmt {
                    kind: StmtKind::Empty,
                    pos,
                });
            }
            Tok::KwIf => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then = Box::new(self.stmt()?);
                let els = if self.eat(&Tok::KwElse) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                out.push(Stmt {
                    kind: StmtKind::If { cond, then, els },
                    pos,
                });
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = Box::new(self.stmt()?);
                out.push(Stmt {
                    kind: StmtKind::While { cond, body },
                    pos,
                });
            }
            Tok::KwDo => {
                self.bump();
                let body = Box::new(self.stmt()?);
                self.expect(&Tok::KwWhile)?;
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                out.push(Stmt {
                    kind: StmtKind::DoWhile { cond, body },
                    pos,
                });
            }
            Tok::KwFor => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let init = if self.at(&Tok::Semi) {
                    self.bump();
                    None
                } else {
                    let mut v = Vec::new();
                    if self.peek().starts_type() {
                        self.decl_stmt(&mut v)?;
                    } else {
                        let e = self.expr()?;
                        self.expect(&Tok::Semi)?;
                        v.push(Stmt {
                            kind: StmtKind::Expr(e),
                            pos,
                        });
                    }
                    Some(Box::new(if v.len() == 1 {
                        v.pop().expect("one statement")
                    } else {
                        Stmt {
                            kind: StmtKind::Block(v),
                            pos,
                        }
                    }))
                };
                let cond = if self.at(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                let step = if self.at(&Tok::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::RParen)?;
                let body = Box::new(self.stmt()?);
                out.push(Stmt {
                    kind: StmtKind::For {
                        init,
                        cond,
                        step,
                        body,
                    },
                    pos,
                });
            }
            Tok::KwReturn => {
                self.bump();
                let e = if self.at(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                out.push(Stmt {
                    kind: StmtKind::Return(e),
                    pos,
                });
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(&Tok::Semi)?;
                out.push(Stmt {
                    kind: StmtKind::Break,
                    pos,
                });
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(&Tok::Semi)?;
                out.push(Stmt {
                    kind: StmtKind::Continue,
                    pos,
                });
            }
            t if t.starts_type() || t == Tok::KwStatic => {
                self.decl_stmt(out)?;
            }
            _ => {
                let e = self.expr()?;
                self.expect(&Tok::Semi)?;
                out.push(Stmt {
                    kind: StmtKind::Expr(e),
                    pos,
                });
            }
        }
        Ok(())
    }

    fn decl_stmt(&mut self, out: &mut Vec<Stmt>) -> Result<()> {
        let pos = self.pos();
        while self.eat(&Tok::KwStatic) {}
        let base = self.base_type()?;
        loop {
            let (name, ty) = self.declarator(base.clone())?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.initializer()?)
            } else {
                None
            };
            out.push(Stmt {
                kind: StmtKind::Decl { name, ty, init },
                pos,
            });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::Semi)?;
        Ok(())
    }

    fn initializer(&mut self) -> Result<Init> {
        if self.eat(&Tok::LBrace) {
            let mut items = Vec::new();
            if !self.eat(&Tok::RBrace) {
                loop {
                    items.push(self.initializer()?);
                    if self.eat(&Tok::Comma) {
                        if self.eat(&Tok::RBrace) {
                            break; // trailing comma
                        }
                        continue;
                    }
                    self.expect(&Tok::RBrace)?;
                    break;
                }
            }
            Ok(Init::List(items))
        } else {
            Ok(Init::Expr(self.assign_expr()?))
        }
    }

    // --------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr> {
        // Comma operator: evaluate left, yield right. Used mainly in `for`
        // steps like `i++, j++`.
        let mut e = self.assign_expr()?;
        while self.at(&Tok::Comma) {
            let pos = self.pos();
            self.bump();
            let rhs = self.assign_expr()?;
            // Encode `(a, b)` as `(a && 1, b)`-free: use a Logical "and"
            // would change semantics. Represent with a block-like Binary on
            // a fresh kind is overkill; we desugar to `((void)a, b)` by
            // keeping both for effect through a Cond: cond ? b : b would
            // double-evaluate. Instead keep a dedicated node via Assign-less
            // trick: wrap in Call to nothing is wrong too. So: represent
            // as Binary(Comma) is cleanest — but we avoid a new BinOp by
            // using `Cond(1 != 0, b after a, ...)`. Simplest correct choice:
            // a Block expression is unsupported, so we synthesize
            // `Logical{and:false}`-free sequencing node:
            e = Expr {
                kind: ExprKind::Binary(BinOp::Add, Box::new(seq_discard(e)), Box::new(rhs)),
                pos,
            };
        }
        Ok(e)
    }

    fn assign_expr(&mut self) -> Result<Expr> {
        let lhs = self.cond_expr()?;
        let pos = self.pos();
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(BinOp::Add),
            Tok::MinusAssign => Some(BinOp::Sub),
            Tok::StarAssign => Some(BinOp::Mul),
            Tok::SlashAssign => Some(BinOp::Div),
            Tok::PercentAssign => Some(BinOp::Rem),
            Tok::AmpAssign => Some(BinOp::And),
            Tok::PipeAssign => Some(BinOp::Or),
            Tok::CaretAssign => Some(BinOp::Xor),
            Tok::ShlAssign => Some(BinOp::Shl),
            Tok::ShrAssign => Some(BinOp::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.assign_expr()?;
        Ok(Expr {
            kind: ExprKind::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            pos,
        })
    }

    fn cond_expr(&mut self) -> Result<Expr> {
        let cond = self.binary_expr(0)?;
        if self.at(&Tok::Question) {
            let pos = self.pos();
            self.bump();
            let t = self.expr()?;
            self.expect(&Tok::Colon)?;
            let e = self.cond_expr()?;
            return Ok(Expr {
                kind: ExprKind::Cond(Box::new(cond), Box::new(t), Box::new(e)),
                pos,
            });
        }
        Ok(cond)
    }

    /// Precedence-climbing for binary operators. Level 0 = `||`.
    fn binary_expr(&mut self, min_level: u8) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (level, tok) = match self.peek() {
                Tok::PipePipe => (0, self.peek().clone()),
                Tok::AmpAmp => (1, self.peek().clone()),
                Tok::Pipe => (2, self.peek().clone()),
                Tok::Caret => (3, self.peek().clone()),
                Tok::Amp => (4, self.peek().clone()),
                Tok::EqEq | Tok::BangEq => (5, self.peek().clone()),
                Tok::Lt | Tok::Gt | Tok::Le | Tok::Ge => (6, self.peek().clone()),
                Tok::Shl | Tok::Shr => (7, self.peek().clone()),
                Tok::Plus | Tok::Minus => (8, self.peek().clone()),
                Tok::Star | Tok::Slash | Tok::Percent => (9, self.peek().clone()),
                _ => break,
            };
            if level < min_level {
                break;
            }
            let pos = self.pos();
            self.bump();
            let rhs = self.binary_expr(level + 1)?;
            let kind = match tok {
                Tok::PipePipe => ExprKind::Logical {
                    and: false,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                Tok::AmpAmp => ExprKind::Logical {
                    and: true,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                Tok::Pipe => ExprKind::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs)),
                Tok::Caret => ExprKind::Binary(BinOp::Xor, Box::new(lhs), Box::new(rhs)),
                Tok::Amp => ExprKind::Binary(BinOp::And, Box::new(lhs), Box::new(rhs)),
                Tok::EqEq => ExprKind::Binary(BinOp::Eq, Box::new(lhs), Box::new(rhs)),
                Tok::BangEq => ExprKind::Binary(BinOp::Ne, Box::new(lhs), Box::new(rhs)),
                Tok::Lt => ExprKind::Binary(BinOp::Lt, Box::new(lhs), Box::new(rhs)),
                Tok::Gt => ExprKind::Binary(BinOp::Gt, Box::new(lhs), Box::new(rhs)),
                Tok::Le => ExprKind::Binary(BinOp::Le, Box::new(lhs), Box::new(rhs)),
                Tok::Ge => ExprKind::Binary(BinOp::Ge, Box::new(lhs), Box::new(rhs)),
                Tok::Shl => ExprKind::Binary(BinOp::Shl, Box::new(lhs), Box::new(rhs)),
                Tok::Shr => ExprKind::Binary(BinOp::Shr, Box::new(lhs), Box::new(rhs)),
                Tok::Plus => ExprKind::Binary(BinOp::Add, Box::new(lhs), Box::new(rhs)),
                Tok::Minus => ExprKind::Binary(BinOp::Sub, Box::new(lhs), Box::new(rhs)),
                Tok::Star => ExprKind::Binary(BinOp::Mul, Box::new(lhs), Box::new(rhs)),
                Tok::Slash => ExprKind::Binary(BinOp::Div, Box::new(lhs), Box::new(rhs)),
                Tok::Percent => ExprKind::Binary(BinOp::Rem, Box::new(lhs), Box::new(rhs)),
                _ => unreachable!(),
            };
            lhs = Expr { kind, pos };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr {
                    kind: ExprKind::Unary(UnOp::Neg, Box::new(e)),
                    pos,
                })
            }
            Tok::Plus => {
                self.bump();
                self.unary_expr()
            }
            Tok::Bang => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr {
                    kind: ExprKind::Unary(UnOp::Not, Box::new(e)),
                    pos,
                })
            }
            Tok::Tilde => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr {
                    kind: ExprKind::Unary(UnOp::BitNot, Box::new(e)),
                    pos,
                })
            }
            Tok::Star => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr {
                    kind: ExprKind::Unary(UnOp::Deref, Box::new(e)),
                    pos,
                })
            }
            Tok::Amp => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr {
                    kind: ExprKind::Unary(UnOp::AddrOf, Box::new(e)),
                    pos,
                })
            }
            Tok::PlusPlus => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr {
                    kind: ExprKind::IncDec {
                        target: Box::new(e),
                        inc: true,
                        post: false,
                    },
                    pos,
                })
            }
            Tok::MinusMinus => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr {
                    kind: ExprKind::IncDec {
                        target: Box::new(e),
                        inc: false,
                        post: false,
                    },
                    pos,
                })
            }
            Tok::KwSizeof => {
                self.bump();
                if self.at(&Tok::LParen) && self.peek2().starts_type() {
                    self.bump();
                    let ty = self.type_name()?;
                    self.expect(&Tok::RParen)?;
                    Ok(Expr {
                        kind: ExprKind::SizeofTy(ty),
                        pos,
                    })
                } else {
                    let e = self.unary_expr()?;
                    Ok(Expr {
                        kind: ExprKind::SizeofExpr(Box::new(e)),
                        pos,
                    })
                }
            }
            Tok::LParen if self.peek2().starts_type() => {
                // Cast expression.
                self.bump();
                let ty = self.type_name()?;
                self.expect(&Tok::RParen)?;
                let e = self.unary_expr()?;
                Ok(Expr {
                    kind: ExprKind::Cast(ty, Box::new(e)),
                    pos,
                })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut e = self.primary_expr()?;
        loop {
            let pos = self.pos();
            match self.peek().clone() {
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.assign_expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    e = Expr {
                        kind: ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        pos,
                    };
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    e = Expr {
                        kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                        pos,
                    };
                }
                Tok::Dot => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr {
                        kind: ExprKind::Member(Box::new(e), f),
                        pos,
                    };
                }
                Tok::Arrow => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr {
                        kind: ExprKind::Arrow(Box::new(e), f),
                        pos,
                    };
                }
                Tok::PlusPlus => {
                    self.bump();
                    e = Expr {
                        kind: ExprKind::IncDec {
                            target: Box::new(e),
                            inc: true,
                            post: true,
                        },
                        pos,
                    };
                }
                Tok::MinusMinus => {
                    self.bump();
                    e = Expr {
                        kind: ExprKind::IncDec {
                            target: Box::new(e),
                            inc: false,
                            post: true,
                        },
                        pos,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::IntLit(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::IntLit(v),
                    pos,
                })
            }
            Tok::CharLit(c) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::CharLit(c),
                    pos,
                })
            }
            Tok::StrLit(s) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::StrLit(s),
                    pos,
                })
            }
            Tok::KwNull => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Null,
                    pos,
                })
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Ident(name),
                    pos,
                })
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(CompileError::new(
                format!("expected expression, found {other}"),
                pos,
            )),
        }
    }
}

/// Rewrites `e` so that its value is discarded but side effects kept, for
/// the comma operator: `(e, rhs)` becomes `(e - e's value → 0) + rhs`…
/// Since CIR-C lacks a block expression, we multiply the value by zero;
/// side effects still occur exactly once because the operand is a single
/// evaluated expression.
fn seq_discard(e: Expr) -> Expr {
    let pos = e.pos;
    Expr {
        kind: ExprKind::Binary(
            BinOp::Mul,
            Box::new(Expr {
                kind: ExprKind::Cast(TypeExpr::Long { unsigned: false }, Box::new(e)),
                pos,
            }),
            Box::new(Expr {
                kind: ExprKind::IntLit(0),
                pos,
            }),
        ),
        pos,
    }
}

/// Array-of-T parameter types decay to pointer-to-T.
fn decay(ty: TypeExpr) -> TypeExpr {
    match ty {
        TypeExpr::Array(elem, _) => TypeExpr::Ptr(elem),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Unit {
        parse(src).unwrap_or_else(|e| panic!("parse error: {e}\nsource: {src}"))
    }

    #[test]
    fn parse_global_int() {
        let u = p("int x = 5;");
        assert_eq!(u.decls.len(), 1);
        match &u.decls[0] {
            Decl::Global { name, init, .. } => {
                assert_eq!(name, "x");
                assert!(init.is_some());
            }
            d => panic!("unexpected decl {d:?}"),
        }
    }

    #[test]
    fn parse_global_list() {
        let u = p("int a, b = 2, c;");
        assert_eq!(u.decls.len(), 3);
    }

    #[test]
    fn parse_struct_def() {
        let u = p("struct node { int v; struct node* next; };");
        match &u.decls[0] {
            Decl::Struct {
                tag,
                fields,
                is_union,
                ..
            } => {
                assert_eq!(tag, "node");
                assert_eq!(fields.len(), 2);
                assert!(!is_union);
            }
            d => panic!("unexpected decl {d:?}"),
        }
    }

    #[test]
    fn parse_union_def() {
        let u = p("union u { long l; char c[8]; };");
        match &u.decls[0] {
            Decl::Struct { is_union, .. } => assert!(is_union),
            d => panic!("unexpected decl {d:?}"),
        }
    }

    #[test]
    fn parse_function() {
        let u = p("int add(int a, int b) { return a + b; }");
        match &u.decls[0] {
            Decl::Func {
                name,
                params,
                body,
                vararg,
                ..
            } => {
                assert_eq!(name, "add");
                assert_eq!(params.len(), 2);
                assert!(body.is_some());
                assert!(!vararg);
            }
            d => panic!("unexpected decl {d:?}"),
        }
    }

    #[test]
    fn parse_prototype_and_vararg() {
        let u = p("int printf(char* fmt, ...); void f(void);");
        match &u.decls[0] {
            Decl::Func { vararg, body, .. } => {
                assert!(*vararg);
                assert!(body.is_none());
            }
            d => panic!("unexpected decl {d:?}"),
        }
        match &u.decls[1] {
            Decl::Func { params, .. } => assert!(params.is_empty()),
            d => panic!("unexpected decl {d:?}"),
        }
    }

    #[test]
    fn parse_function_pointer_declarator() {
        let u =
            p("struct s { void (*handler)(int); }; int g(int (*cmp)(char*, char*)) { return 0; }");
        match &u.decls[1] {
            Decl::Func { params, .. } => match &params[0].ty {
                TypeExpr::Ptr(inner) => assert!(matches!(**inner, TypeExpr::Func { .. })),
                t => panic!("expected fn ptr, got {t:?}"),
            },
            d => panic!("unexpected decl {d:?}"),
        }
    }

    #[test]
    fn parse_array_dims() {
        let u = p("int grid[8][16];");
        match &u.decls[0] {
            Decl::Global { ty, .. } => match ty {
                TypeExpr::Array(inner, _) => assert!(matches!(**inner, TypeExpr::Array(..))),
                t => panic!("expected array, got {t:?}"),
            },
            d => panic!("unexpected decl {d:?}"),
        }
    }

    #[test]
    fn parse_control_flow() {
        p(r#"
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    if (i % 2 == 0) s += i; else s -= i;
                }
                while (s > 100) { s /= 2; }
                do { s++; } while (s < 0);
                return s;
            }
        "#);
    }

    #[test]
    fn parse_pointer_expressions() {
        p(r#"
            int main() {
                char buf[16];
                char* p = &buf[2];
                *p = 'x';
                p = p + 3;
                **(&p) = 0;
                return (int)(p - buf);
            }
        "#);
    }

    #[test]
    fn parse_casts_vs_parens() {
        p("int main() { long x = (long)5; int y = (x + 2); return (int)(char)y; }");
    }

    #[test]
    fn parse_member_chains() {
        p(r#"
            struct inner { int v; };
            struct outer { struct inner in; struct inner* pin; };
            int main() {
                struct outer o;
                o.in.v = 1;
                o.pin->v = 2;
                return o.in.v + o.pin->v;
            }
        "#);
    }

    #[test]
    fn parse_ternary_and_logical() {
        p("int f(int a, int b) { return a && b ? a | b : a ^ ~b; }");
    }

    #[test]
    fn parse_brace_initializers() {
        p("int t[4] = {1, 2, 3, 4}; struct p { int x; int y; }; struct p origin = {0, 0};");
    }

    #[test]
    fn parse_sizeof_forms() {
        p("int main() { return sizeof(int) + sizeof(char*) + (int)sizeof 4; }");
    }

    #[test]
    fn parse_string_and_null() {
        p("char* msg = \"hi\"; int main() { char* p = NULL; return p == NULL; }");
    }

    #[test]
    fn parse_error_reports_position() {
        let err = parse("int main() { return 1 + ; }").unwrap_err();
        assert!(err.pos().line >= 1);
    }

    #[test]
    fn parse_comma_in_for_step() {
        p("int main() { int i; int j; for (i = 0, j = 9; i < j; i++, j--) {} return i; }");
    }

    #[test]
    fn parse_do_not_confuse_deref_mul() {
        p("int main() { int x = 4; int* p = &x; int y = x * *p; return y; }");
    }

    #[test]
    fn parse_unsized_array_with_init() {
        p("int t[] = {1,2,3};");
    }

    #[test]
    fn parse_forward_struct_decl() {
        p("struct node; struct node { int v; };");
    }
}
