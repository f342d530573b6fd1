//! Structural IR verifier.
//!
//! Checks the invariants the VM and the instrumentation passes rely on:
//! every block terminates exactly once (at the end), branch targets exist,
//! registers are in range, call/ret arities match, allocas appear only in
//! the entry block, and pointer/integer register kinds are used
//! consistently.

use crate::ir::*;
use std::error::Error;
use std::fmt;

/// A verifier diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the problem was found.
    pub func: String,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in `{}`: {}", self.func, self.msg)
    }
}

impl Error for VerifyError {}

/// Verifies a module.
///
/// # Errors
///
/// Returns the first structural violation found.
pub fn verify(m: &Module) -> Result<(), VerifyError> {
    for f in &m.funcs {
        verify_fn(m, f)?;
    }
    Ok(())
}

fn err(f: &Function, msg: impl Into<String>) -> VerifyError {
    VerifyError {
        func: f.name.clone(),
        msg: msg.into(),
    }
}

/// Required argument count of each runtime helper. Instrumentation
/// passes and the post-instrument optimizer (which rewrites `Rt`
/// instructions during check elimination) must both preserve these.
fn rt_arg_count(rt: RtFn) -> usize {
    match rt {
        RtFn::SbCheck { .. } => 4,
        RtFn::SbMetaStore | RtFn::SbFnCheck => 3,
        RtFn::ObjCheckArith | RtFn::DerefCheck { .. } => 2,
        RtFn::SbMetaLoad => 1,
    }
}

fn verify_fn(m: &Module, f: &Function) -> Result<(), VerifyError> {
    if !f.defined {
        return Ok(());
    }
    if f.blocks.is_empty() {
        return Err(err(f, "defined function has no blocks"));
    }
    if f.params.len() != f.param_kinds.len() {
        return Err(err(f, "params/param_kinds length mismatch"));
    }
    let nregs = f.reg_kinds.len() as u32;
    let nblocks = f.blocks.len() as u32;

    let check_val = |v: &Value| -> Result<(), VerifyError> {
        match v {
            Value::Reg(r) if r.0 >= nregs => Err(err(f, format!("register r{} out of range", r.0))),
            Value::GlobalAddr { id, .. } if id.0 as usize >= m.globals.len() => {
                Err(err(f, format!("global @{} out of range", id.0)))
            }
            Value::FuncAddr(fid) if fid.0 as usize >= m.funcs.len() => {
                Err(err(f, format!("function fn{} out of range", fid.0)))
            }
            _ => Ok(()),
        }
    };

    for (bi, b) in f.blocks.iter().enumerate() {
        if b.insts.is_empty() {
            return Err(err(f, format!("block b{bi} is empty")));
        }
        for (ii, inst) in b.insts.iter().enumerate() {
            let is_last = ii == b.insts.len() - 1;
            if inst.is_terminator() != is_last {
                return Err(err(
                    f,
                    format!("block b{bi} instruction {ii}: terminator placement invalid"),
                ));
            }
            let mut verr = None;
            inst.for_each_use(|v| {
                if verr.is_none() {
                    verr = check_val(v).err();
                }
            });
            if let Some(e) = verr {
                return Err(e);
            }
            for d in inst.defs() {
                if d.0 >= nregs {
                    return Err(err(f, format!("def register r{} out of range", d.0)));
                }
            }
            match inst {
                Inst::Alloca { .. } if bi != 0 => {
                    return Err(err(f, "alloca outside entry block"));
                }
                Inst::Jmp { to } if to.0 >= nblocks => {
                    return Err(err(f, format!("jump target b{} out of range", to.0)));
                }
                Inst::Br {
                    then_to, else_to, ..
                } if then_to.0 >= nblocks || else_to.0 >= nblocks => {
                    return Err(err(f, "branch target out of range"));
                }
                Inst::Ret { vals } if vals.len() != f.ret_kinds.len() => {
                    return Err(err(
                        f,
                        format!(
                            "ret arity {} does not match signature {}",
                            vals.len(),
                            f.ret_kinds.len()
                        ),
                    ));
                }
                Inst::Call {
                    dsts,
                    callee: Callee::Direct(fid),
                    args,
                    ..
                } => {
                    if fid.0 as usize >= m.funcs.len() {
                        return Err(err(f, "call target out of range"));
                    }
                    let callee_fn = &m.funcs[fid.0 as usize];
                    if dsts.len() > callee_fn.ret_kinds.len() {
                        return Err(err(
                            f,
                            format!(
                                "call to `{}` binds {} results but callee returns {}",
                                callee_fn.name,
                                dsts.len(),
                                callee_fn.ret_kinds.len()
                            ),
                        ));
                    }
                    if args.len() < callee_fn.params.len() && callee_fn.defined {
                        return Err(err(
                            f,
                            format!("call to `{}` passes too few arguments", callee_fn.name),
                        ));
                    }
                }
                Inst::Rt { dsts, rt, args } => {
                    if dsts.len() != rt.result_count() {
                        return Err(err(
                            f,
                            format!(
                                "rt call {:?} binds {} results, expects {}",
                                rt,
                                dsts.len(),
                                rt.result_count()
                            ),
                        ));
                    }
                    if args.len() != rt_arg_count(*rt) {
                        return Err(err(
                            f,
                            format!(
                                "rt call {:?} passes {} args, expects {}",
                                rt,
                                args.len(),
                                rt_arg_count(*rt)
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;

    fn module(src: &str) -> Module {
        lower(&sb_cir::compile(src).expect("compiles"), "t")
    }

    #[test]
    fn lowered_modules_verify() {
        let srcs = [
            "int main() { return 0; }",
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            r#"
            struct node { int v; struct node* next; };
            int sum(struct node* l) { int s = 0; while (l) { s += l->v; l = l->next; } return s; }
            int main() { return sum(0); }
            "#,
            "int g(int (*f)(int), int x) { return f(x); }",
        ];
        for src in srcs {
            let m = module(src);
            verify(&m).unwrap_or_else(|e| panic!("verify failed: {e}\nmodule:\n{m}"));
        }
    }

    #[test]
    fn detects_missing_terminator() {
        let mut m = module("int main() { return 0; }");
        let f = m.funcs.iter_mut().find(|f| f.name == "main").expect("main");
        f.blocks[0].insts.pop();
        f.blocks[0].insts.push(Inst::Mov {
            dst: RegId(0),
            src: Value::Const(1),
        });
        // Need a register to exist for the Mov.
        if f.reg_kinds.is_empty() {
            f.reg_kinds.push(RegKind::Int);
        }
        assert!(verify(&m).is_err());
    }

    #[test]
    fn detects_bad_branch_target() {
        let mut m = module("int main() { return 0; }");
        let f = m.funcs.iter_mut().find(|f| f.name == "main").expect("main");
        f.blocks[0].insts.pop();
        f.blocks[0].insts.push(Inst::Jmp { to: BlockId(99) });
        assert!(verify(&m).is_err());
    }

    #[test]
    fn detects_out_of_range_register() {
        let mut m = module("int main() { return 0; }");
        let f = m.funcs.iter_mut().find(|f| f.name == "main").expect("main");
        f.blocks[0].insts.insert(
            0,
            Inst::Mov {
                dst: RegId(1000),
                src: Value::Const(0),
            },
        );
        assert!(verify(&m).is_err());
    }

    #[test]
    fn detects_rt_arity_mismatch() {
        let mut m = module("int main() { return 0; }");
        let f = m.funcs.iter_mut().find(|f| f.name == "main").expect("main");
        f.blocks[0].insts.insert(
            0,
            Inst::Rt {
                dsts: vec![],
                rt: RtFn::SbMetaLoad,
                args: vec![Value::Const(0)],
            },
        );
        assert!(verify(&m).is_err());
    }

    #[test]
    fn detects_rt_argument_count_mismatch() {
        let mut m = module("int main() { return 0; }");
        let f = m.funcs.iter_mut().find(|f| f.name == "main").expect("main");
        // A check missing its size operand must be rejected.
        f.blocks[0].insts.insert(
            0,
            Inst::Rt {
                dsts: vec![],
                rt: RtFn::SbCheck { is_store: false },
                args: vec![Value::Const(0), Value::Const(0), Value::Const(0)],
            },
        );
        let e = verify(&m).expect_err("short arg list rejected");
        assert!(e.msg.contains("expects 4"), "{e}");
    }
}
