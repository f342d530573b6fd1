//! Human-readable IR dumps (for debugging and docs; not a parseable
//! format).

use crate::ir::*;
use std::fmt;

/// Prints a whole module.
pub fn print_module(m: &Module, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    writeln!(f, "; module {}", m.name)?;
    for (i, g) in m.globals.iter().enumerate() {
        writeln!(
            f,
            "@{} = global \"{}\" size {} align {}",
            i, g.name, g.size, g.align
        )?;
    }
    for (i, func) in m.funcs.iter().enumerate() {
        print_function(i, func, f)?;
    }
    Ok(())
}

fn val(v: &Value) -> String {
    match v {
        Value::Reg(r) => format!("r{}", r.0),
        Value::Const(c) => format!("{c}"),
        Value::GlobalAddr { id, offset } if *offset == 0 => format!("@{}", id.0),
        Value::GlobalAddr { id, offset } => format!("@{}+{}", id.0, offset),
        Value::FuncAddr(fid) => format!("&fn{}", fid.0),
    }
}

fn print_function(idx: usize, func: &Function, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let params: Vec<String> = func
        .params
        .iter()
        .zip(&func.param_kinds)
        .map(|(r, k)| format!("r{}:{:?}", r.0, k))
        .collect();
    writeln!(
        f,
        "\nfn{} {}({}){}{} -> {:?} {{",
        idx,
        func.name,
        params.join(", "),
        if func.vararg { ", ..." } else { "" },
        if func.defined { "" } else { " [extern]" },
        func.ret_kinds,
    )?;
    for (bi, b) in func.blocks.iter().enumerate() {
        writeln!(f, "b{bi}:")?;
        for inst in &b.insts {
            writeln!(f, "  {}", fmt_inst(inst))?;
        }
    }
    writeln!(f, "}}")
}

/// Formats a single instruction.
pub fn fmt_inst(inst: &Inst) -> String {
    match inst {
        Inst::Bin {
            dst,
            op,
            k,
            lhs,
            rhs,
        } => {
            format!("r{} = {:?}.{:?} {}, {}", dst.0, op, k, val(lhs), val(rhs))
        }
        Inst::Cmp {
            dst,
            op,
            k,
            lhs,
            rhs,
        } => {
            format!(
                "r{} = cmp.{:?}.{:?} {}, {}",
                dst.0,
                op,
                k,
                val(lhs),
                val(rhs)
            )
        }
        Inst::Cast { dst, k, src } => format!("r{} = cast.{:?} {}", dst.0, k, val(src)),
        Inst::Mov { dst, src } => format!("r{} = {}", dst.0, val(src)),
        Inst::Alloca { dst, info } => format!(
            "r{} = alloca \"{}\" size {} align {}{}",
            dst.0,
            info.name,
            info.size,
            info.align,
            if info.holds_ptrs { " holds_ptrs" } else { "" }
        ),
        Inst::Load { dst, mem, addr } => format!("r{} = load.{:?} [{}]", dst.0, mem, val(addr)),
        Inst::Store { mem, addr, value } => {
            format!("store.{:?} [{}], {}", mem, val(addr), val(value))
        }
        Inst::Gep {
            dst,
            base,
            index,
            scale,
            offset,
            field_size,
        } => {
            let mut s = format!(
                "r{} = gep {} + {}*{} + {}",
                dst.0,
                val(base),
                val(index),
                scale,
                offset
            );
            if let Some(fs) = field_size {
                s.push_str(&format!(" [field:{fs}]"));
            }
            s
        }
        Inst::Call {
            dsts, callee, args, ..
        } => {
            let d: Vec<String> = dsts.iter().map(|r| format!("r{}", r.0)).collect();
            let a: Vec<String> = args.iter().map(val).collect();
            let c = match callee {
                Callee::Direct(fid) => format!("fn{}", fid.0),
                Callee::Indirect(v) => format!("*{}", val(v)),
                Callee::Builtin(b) => format!("{b:?}").to_lowercase(),
            };
            if d.is_empty() {
                format!("call {}({})", c, a.join(", "))
            } else {
                format!("{} = call {}({})", d.join(", "), c, a.join(", "))
            }
        }
        Inst::Rt { dsts, rt, args } => {
            let d: Vec<String> = dsts.iter().map(|r| format!("r{}", r.0)).collect();
            let a: Vec<String> = args.iter().map(val).collect();
            if d.is_empty() {
                format!("rt {:?}({})", rt, a.join(", "))
            } else {
                format!("{} = rt {:?}({})", d.join(", "), rt, a.join(", "))
            }
        }
        Inst::Ret { vals } => {
            let v: Vec<String> = vals.iter().map(val).collect();
            format!("ret {}", v.join(", "))
        }
        Inst::Jmp { to } => format!("jmp b{}", to.0),
        Inst::Br {
            cond,
            then_to,
            else_to,
        } => {
            format!("br {} ? b{} : b{}", val(cond), then_to.0, else_to.0)
        }
        Inst::Unreachable => "unreachable".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_display_smoke() {
        let prog = sb_cir::compile("int main() { char buf[4]; buf[0] = 1; return buf[0]; }")
            .expect("compiles");
        let m = crate::lower::lower(&prog, "t");
        let text = m.to_string();
        assert!(text.contains("fn0 main"));
        assert!(text.contains("alloca"));
        assert!(text.contains("store"));
    }

    #[test]
    fn fmt_inst_variants() {
        assert!(fmt_inst(&Inst::Unreachable).contains("unreachable"));
        assert!(fmt_inst(&Inst::Jmp { to: BlockId(3) }).contains("b3"));
        let s = fmt_inst(&Inst::Rt {
            dsts: vec![RegId(1), RegId(2)],
            rt: RtFn::SbMetaLoad,
            args: vec![Value::Reg(RegId(0))],
        });
        assert!(s.contains("SbMetaLoad"));
    }
}
