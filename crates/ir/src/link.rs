//! Module linking: the separate-compilation story.
//!
//! SoftBound's claim (Table 1, §5.2) is that its purely intra-procedural
//! transformation composes with traditional separate compilation: each
//! module is transformed independently, functions are renamed `_sb_<name>`,
//! and "the static or dynamic linker matches up caller and callee as
//! usual". [`link`] is that linker: it concatenates modules, resolves
//! external declarations against definitions *by name*, and remaps all ids.
//! Module-private symbols are renamed apart: interned strings (`.str.`)
//! and constructors (`__ctor.`, which an instrumentation pass names after
//! its module), so that modules compiled under one name still link.

use crate::ir::*;
use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Name prefix of a module constructor: a function the machine runs
/// before the entry point.
pub const CTOR_PREFIX: &str = "__ctor.";

/// A linking failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkError {
    msg: String,
}

impl LinkError {
    /// The description.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl Error for LinkError {}

/// Links several modules into one.
///
/// Duplicate *defined* functions or duplicate globals are errors;
/// declarations (`defined == false`) are resolved against the definition
/// with the same name, from any module. Module `i`'s constructor
/// `__ctor.<rest>` becomes `__ctor.m<i>.<rest>`: the machine runs every
/// `__ctor.` function before the entry point.
///
/// # Errors
///
/// Returns a [`LinkError`] on duplicate symbols.
pub fn link(modules: &[Module], name: &str) -> Result<Module, LinkError> {
    let mut out = Module {
        name: name.to_owned(),
        ..Module::default()
    };

    // First pass: lay out globals and decide the final function table.
    // Functions keyed by name: a definition wins over declarations.
    let mut global_map: Vec<Vec<GlobalId>> = Vec::new(); // [module][old] -> new
    let mut global_names: HashMap<String, GlobalId> = HashMap::new();
    for m in modules {
        let mut map = Vec::with_capacity(m.globals.len());
        for g in &m.globals {
            // Interned strings may repeat across modules; rename them apart.
            let mut g2 = g.clone();
            if g.name.starts_with(".str.") {
                g2.name = format!(".m{}{}", global_map.len(), g.name);
            } else if global_names.contains_key(&g.name) {
                return Err(LinkError {
                    msg: format!("duplicate global `{}`", g.name),
                });
            }
            let id = GlobalId(out.globals.len() as u32);
            global_names.insert(g2.name.clone(), id);
            map.push(id);
            out.globals.push(g2);
        }
        global_map.push(map);
    }

    let mut func_names: HashMap<String, FuncId> = HashMap::new();
    let mut func_map: Vec<Vec<FuncId>> = Vec::new();
    // The module each output function came from: its definition's, else
    // its first declaration's.
    let mut origin: Vec<usize> = Vec::new();
    for (mi, m) in modules.iter().enumerate() {
        let mut map = Vec::with_capacity(m.funcs.len());
        for f in &m.funcs {
            let mut f = Cow::Borrowed(f);
            if f.defined {
                if let Some(rest) = f.name.strip_prefix(CTOR_PREFIX) {
                    let name = format!("{CTOR_PREFIX}m{mi}.{rest}");
                    f.to_mut().name = name;
                }
            }
            let id = match func_names.get(&f.name) {
                Some(&existing) => {
                    let have = &out.funcs[existing.0 as usize];
                    if have.defined && f.defined {
                        return Err(LinkError {
                            msg: format!("duplicate definition of function `{}`", f.name),
                        });
                    }
                    if !have.defined && f.defined {
                        out.funcs[existing.0 as usize] = f.into_owned();
                        origin[existing.0 as usize] = mi;
                    }
                    existing
                }
                None => {
                    let id = FuncId(out.funcs.len() as u32);
                    func_names.insert(f.name.clone(), id);
                    out.funcs.push(f.into_owned());
                    origin.push(mi);
                    id
                }
            };
            map.push(id);
        }
        func_map.push(map);
    }

    // Second pass: remap ids inside function bodies and global inits.
    for (f, &mi) in out.funcs.iter_mut().zip(&origin) {
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                inst.for_each_use_mut(|v| remap_value(v, &global_map[mi], &func_map[mi]));
                if let Inst::Call {
                    callee: Callee::Direct(fid),
                    ..
                } = inst
                {
                    *fid = func_map[mi][fid.0 as usize];
                }
            }
        }
    }
    // Globals: remap init references. Track which module each output global
    // came from by reconstructing the order (same iteration as pass 1).
    let mut gi = 0usize;
    for (mi, m) in modules.iter().enumerate() {
        for _ in &m.globals {
            let g = &mut out.globals[gi];
            for (_, item) in &mut g.init {
                match item {
                    GInit::GlobalAddr { id, .. } => *id = global_map[mi][id.0 as usize],
                    GInit::FuncAddr(fid) => *fid = func_map[mi][fid.0 as usize],
                    GInit::Bytes(_) => {}
                }
            }
            gi += 1;
        }
    }
    Ok(out)
}

fn remap_value(v: &mut Value, gmap: &[GlobalId], fmap: &[FuncId]) {
    match v {
        Value::GlobalAddr { id, .. } => *id = gmap[id.0 as usize],
        Value::FuncAddr(fid) => *fid = fmap[fid.0 as usize],
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::verify::verify;

    fn module(src: &str, name: &str) -> Module {
        lower(&sb_cir::compile(src).expect("compiles"), name)
    }

    #[test]
    fn links_caller_and_callee_across_modules() {
        let lib = module("int twice(int x) { return 2 * x; }", "lib");
        let app = module("int twice(int x); int main() { return twice(21); }", "app");
        let linked = link(&[app, lib], "prog").expect("links");
        verify(&linked).expect("verifies");
        let main_id = linked.func_id("main").expect("main exists");
        let twice_id = linked.func_id("twice").expect("twice exists");
        assert!(linked.funcs[twice_id.0 as usize].defined);
        // main's call must point at the defined twice.
        let main = &linked.funcs[main_id.0 as usize];
        let calls: Vec<FuncId> = main
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::Call {
                    callee: Callee::Direct(fid),
                    ..
                } => Some(*fid),
                _ => None,
            })
            .collect();
        assert_eq!(calls, vec![twice_id]);
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let a = module("int f() { return 1; }", "a");
        let b = module("int f() { return 2; }", "b");
        assert!(link(&[a, b], "prog").is_err());
    }

    #[test]
    fn duplicate_globals_rejected() {
        let a = module("int g;", "a");
        let b = module("int g;", "b");
        assert!(link(&[a, b], "prog").is_err());
    }

    #[test]
    fn string_globals_do_not_collide() {
        let a = module(r#"char* f() { return "shared"; }"#, "a");
        let b = module(r#"char* f2() { return "shared"; }"#, "b");
        let linked = link(&[a, b], "prog").expect("links");
        verify(&linked).expect("verifies");
    }

    #[test]
    fn global_references_remapped() {
        let a = module("int counter = 7; int* pc = &counter;", "a");
        let b = module("int other = 9;", "b");
        let linked = link(&[b, a], "prog").expect("links");
        let pc = linked.globals.iter().find(|g| g.name == "pc").expect("pc");
        let GInit::GlobalAddr { id, .. } = pc.init[0].1 else {
            panic!("expected global addr")
        };
        assert_eq!(linked.globals[id.0 as usize].name, "counter");
    }
}
