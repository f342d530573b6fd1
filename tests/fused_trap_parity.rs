//! Regression: fused check+access superinstructions must fault exactly
//! like their unfused twins.
//!
//! The pre-decoded lane fuses an `SbCheck` with the load/store it
//! guards into one superinstruction (`CheckLoad`/`CheckStore`). A
//! 1-byte overflow whose faulting address sits on a page boundary is
//! the adversarial case: the access's *object* ends exactly where a
//! fresh page begins, so any fused-path shortcut that checked the page
//! rather than the bounds — or reported the access site instead of the
//! faulting byte — would diverge from the tree-walk oracle here. Every
//! facility's pre-decoded lane must report the same faulting address,
//! write flag, and trap PC (dynamic instruction index) as its tree-walk
//! twin, for both the fused-store and fused-load shapes.

use sb_vm::{MachineConfig, Outcome, Trap, HEAP_BASE, PAGE_SIZE};
use softbound::{Engine, MetadataFacility, Program, SoftBoundConfig, SoftBoundRuntime};

/// One page exactly: `malloc(4096)` is the program's first allocation,
/// so the object spans `[HEAP_BASE, HEAP_BASE + 4096)` and `p[4096]`
/// is one byte past it *and* the first byte of the next page.
const STORE_STRADDLE: &str = r#"
    int main(int n) {
        char* p = (char*)malloc(4096);
        for (int i = 0; i < 4096; i += 512) p[i] = (char)(i / 512 + 1);
        p[n] = 7;
        return p[0];
    }
"#;

const LOAD_STRADDLE: &str = r#"
    int main(int n) {
        char* p = (char*)malloc(4096);
        for (int i = 0; i < 4096; i += 512) p[i] = (char)(i / 512 + 1);
        return p[n];
    }
"#;

struct TrapObs {
    addr: u64,
    write: bool,
    insts: u64,
    output: String,
}

fn trap_of<F: MetadataFacility>(
    program: &Program,
    rt: SoftBoundRuntime<F>,
    arg: i64,
    predecoded: bool,
) -> TrapObs {
    let mut machine = program.machine(MachineConfig::default(), rt);
    let r = if predecoded {
        machine.run_predecoded("main", &[arg])
    } else {
        machine.run("main", &[arg])
    };
    match r.outcome {
        Outcome::Trapped(Trap::SpatialViolation {
            scheme: "softbound",
            addr,
            write,
        }) => TrapObs {
            addr,
            write,
            insts: r.stats.insts,
            output: r.output,
        },
        other => panic!("expected an explicit-check spatial violation, got {other:?}"),
    }
}

fn assert_parity(source: &str, is_store: bool) {
    let cfg = SoftBoundConfig::full_shadow();
    let program = Engine::new()
        .softbound_config(cfg.clone())
        .compile(source)
        .expect("compiles");
    // The fused path must actually be on trial: the kernel's guarded
    // access has to have been fused into a superinstruction.
    assert!(
        program.exec().fused_checks > 0,
        "no check+access pairs were fused — the regression tests nothing"
    );
    let boundary = HEAP_BASE + 4096;
    assert_eq!(boundary % PAGE_SIZE, 0, "fault must straddle a page");

    let tree = trap_of(&program, SoftBoundRuntime::new_paged(&cfg), 4096, false);
    assert_eq!(tree.addr, boundary, "tree-walk fault address");
    assert_eq!(tree.write, is_store);

    for (facility, obs_tree, obs_pre) in [
        (
            "paged",
            trap_of(&program, SoftBoundRuntime::new_paged(&cfg), 4096, false),
            trap_of(&program, SoftBoundRuntime::new_paged(&cfg), 4096, true),
        ),
        (
            "shadow-hashmap",
            trap_of(
                &program,
                SoftBoundRuntime::new_shadow_hashmap(&cfg),
                4096,
                false,
            ),
            trap_of(
                &program,
                SoftBoundRuntime::new_shadow_hashmap(&cfg),
                4096,
                true,
            ),
        ),
        (
            "hash-table",
            trap_of(&program, SoftBoundRuntime::new_hash(&cfg), 4096, false),
            trap_of(&program, SoftBoundRuntime::new_hash(&cfg), 4096, true),
        ),
    ] {
        assert_eq!(
            obs_pre.addr, obs_tree.addr,
            "{facility}: fused lane faulting address diverged"
        );
        assert_eq!(obs_pre.addr, boundary, "{facility}: not the first OOB byte");
        assert_eq!(obs_pre.write, obs_tree.write, "{facility}: write flag");
        assert_eq!(
            obs_pre.insts, obs_tree.insts,
            "{facility}: trap PC (dynamic instruction index) diverged"
        );
        assert_eq!(obs_pre.output, obs_tree.output, "{facility}: output");
    }
}

#[test]
fn fused_check_store_traps_like_tree_walk_across_a_page_boundary() {
    assert_parity(STORE_STRADDLE, true);
}

#[test]
fn fused_check_load_traps_like_tree_walk_across_a_page_boundary() {
    assert_parity(LOAD_STRADDLE, false);
}

#[test]
fn one_byte_short_of_the_boundary_is_silent_in_every_lane() {
    // The dual obligation: p[4095] (the object's last byte) must *not*
    // trap anywhere — a fused path that over-approximated to page
    // granularity would fail exactly this.
    let cfg = SoftBoundConfig::full_shadow();
    let program = Engine::new()
        .softbound_config(cfg.clone())
        .compile(STORE_STRADDLE)
        .expect("compiles");
    for predecoded in [false, true] {
        let mut machine =
            program.machine(MachineConfig::default(), SoftBoundRuntime::new_paged(&cfg));
        let r = if predecoded {
            machine.run_predecoded("main", &[4095])
        } else {
            machine.run("main", &[4095])
        };
        assert_eq!(
            r.ret(),
            Some(1),
            "in-bounds run must finish (pre={predecoded})"
        );
        assert_eq!(machine.hooks().violation_count, 0);
    }
}
