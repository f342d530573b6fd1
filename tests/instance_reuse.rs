//! Differential proof that instance reuse is invisible: N back-to-back
//! runs on one `Instance` must observe exactly what N fresh machines
//! observe — identical outcomes, outputs, dynamic statistics, runtime
//! check/violation counters, and final-memory digests — across both
//! metadata facilities, for both finishing and trapping programs.
//!
//! This is what licenses a server to keep one machine per worker and
//! reset between requests instead of rebuilding the world.

use sb_vm::Outcome;
use softbound::{Engine, Facility, Instance, Program, SoftBoundConfig};

/// Everything observable about one run of one instance.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    outcome: Outcome,
    output: String,
    checks: u64,
    meta_loads: u64,
    meta_stores: u64,
    cycles: u64,
    check_count: u64,
    violation_count: u64,
    mem_hash: u64,
    live_entries: usize,
}

fn observe_run(instance: &mut Instance<'_>, arg: i64) -> Observed {
    let r = instance.run("main", &[arg]);
    Observed {
        outcome: r.outcome,
        output: r.output,
        checks: r.stats.checks,
        meta_loads: r.stats.meta_loads,
        meta_stores: r.stats.meta_stores,
        cycles: r.stats.cycles,
        check_count: instance.check_count(),
        violation_count: instance.violation_count(),
        mem_hash: instance.mem_content_hash(),
        live_entries: instance.live_entries(),
    }
}

fn assert_reuse_invisible(engine: &Engine, program: &Program, args: &[i64], label: &str) {
    let mut reused = engine.instantiate(program);
    for (i, &arg) in args.iter().enumerate() {
        let on_reused = observe_run(&mut reused, arg);
        let mut fresh = engine.instantiate(program);
        let on_fresh = observe_run(&mut fresh, arg);
        assert_eq!(
            on_reused, on_fresh,
            "{label}: run {i} (arg {arg}) diverged between reused instance and fresh machine"
        );
    }
    assert_eq!(reused.runs(), args.len() as u64);
    reused.reset();
    assert_eq!(
        reused.live_entries(),
        0,
        "{label}: live metadata must vanish on reset"
    );
    assert_eq!(reused.check_count(), 0);
    assert_eq!(reused.violation_count(), 0);
}

fn engines() -> Vec<(Facility, Engine)> {
    [Facility::ShadowShared, Facility::HashTable]
        .into_iter()
        .map(|f| (f, Engine::new().facility(f)))
        .collect()
}

#[test]
fn safe_workloads_reuse_equals_fresh_machines() {
    // Pointer-heavy evaluation workloads: plenty of metadata traffic,
    // heap churn, and output.
    for name in ["treeadd", "li"] {
        let w = sb_workloads::benchmark_by_name(name).expect("workload exists");
        for (facility, engine) in engines() {
            let program = engine.compile(w.source).expect("workload compiles");
            assert_reuse_invisible(
                &engine,
                &program,
                &[w.default_arg, w.default_arg, w.default_arg],
                &format!("{name}/{facility:?}"),
            );
        }
    }
}

#[test]
fn trapping_program_reuse_equals_fresh_machines() {
    // A run that ends in a spatial violation leaves frames, heap blocks,
    // and metadata mid-flight; the next run must still match a fresh
    // machine exactly.
    let src = r#"
        int main(int n) {
            int* p = (int*)malloc(8 * sizeof(int));
            for (int i = 0; i < 8; i++) p[i] = i;
            if (n > 0) { p[8 + n] = 1; }
            int s = p[0] + p[7];
            free(p);
            return s;
        }
    "#;
    for (facility, engine) in engines() {
        let program = engine.compile(src).expect("compiles");
        // Alternate trap / finish / trap / finish.
        assert_reuse_invisible(
            &engine,
            &program,
            &[1, 0, 3, 0],
            &format!("oob/{facility:?}"),
        );
        let mut check = engine.instantiate(&program);
        let r = check.run("main", &[2]);
        assert!(
            r.outcome.is_spatial_violation(),
            "{facility:?}: expected a violation, got {:?}",
            r.outcome
        );
    }
}

#[test]
fn reuse_across_different_allocation_layouts() {
    // Regression for the `Mem` page-translation cache: `reset` recycles
    // page frames instead of rebuilding the memory, so a stale cached
    // (page → frame) pair would leak a page of the previous run's image
    // into the next. Each argument below drives a different
    // allocation layout (different heap block counts/sizes and stack
    // depths), and every run's observables — final-memory digest
    // included — must match a fresh machine bit for bit.
    let src = r#"
        struct node { long v; struct node* next; };
        int grow(int depth, int fan) {
            if (depth <= 0) return 1;
            struct node* head = NULL;
            for (int i = 0; i < fan; i++) {
                struct node* n = (struct node*)malloc(sizeof(struct node));
                n->v = depth * 100 + i;
                n->next = head;
                head = n;
            }
            int s = grow(depth - 1, fan + 1);
            while (head != NULL) {
                s += (int)(head->v % 7);
                head = head->next;
            }
            return s;
        }
        int main(int n) {
            char* pad = (char*)malloc(64 + 32 * n);
            pad[0] = (char)n;
            int s = grow(n % 5, 1 + n % 3);
            return s + pad[0];
        }
    "#;
    for (facility, engine) in engines() {
        let program = engine.compile(src).expect("compiles");
        assert_reuse_invisible(
            &engine,
            &program,
            &[1, 6, 2, 9, 0, 4],
            &format!("layouts/{facility:?}"),
        );
    }
}

#[test]
fn shared_facility_reset_does_not_disturb_sibling_instances() {
    // Two shadow-space instances share the process-wide frame pool:
    // resetting one must clear *its* metadata only. A frame pooled while
    // the sibling still used it would show up as the sibling losing
    // entries, a changed memory digest, or a diverging subsequent run.
    let src = r#"
        int main() {
            long** blocks = (long**)malloc(8 * sizeof(long*));
            for (int i = 0; i < 8; i++) {
                blocks[i] = (long*)malloc(sizeof(long));
            }
            return blocks[7] != 0;
        }
    "#;
    let engine = Engine::new().facility(Facility::ShadowShared);
    let program = engine.compile(src).expect("compiles");
    let mut a = engine.instantiate(&program);
    let mut b = engine.instantiate(&program);
    let first_on_b = observe_run(&mut b, 0);
    observe_run(&mut a, 0);
    assert!(
        a.live_entries() > 0,
        "the program leaks metadata on purpose"
    );
    assert!(b.live_entries() > 0);
    let b_live = b.live_entries();
    let b_hash = b.mem_content_hash();

    a.reset();
    assert_eq!(a.live_entries(), 0, "reset worker must be empty");
    assert_eq!(
        b.live_entries(),
        b_live,
        "sibling lost metadata to another worker's reset"
    );
    assert_eq!(
        b.mem_content_hash(),
        b_hash,
        "sibling memory disturbed by another worker's reset"
    );
    // Both instances keep serving correctly afterwards.
    assert_eq!(observe_run(&mut b, 0), first_on_b);
    assert_eq!(observe_run(&mut a, 0), first_on_b);
}

#[test]
fn store_only_mode_reuses_identically() {
    let cfg = SoftBoundConfig::store_only_shadow();
    let engine = Engine::new().softbound_config(cfg);
    let w = sb_workloads::benchmark_by_name("mst").expect("workload exists");
    let program = engine.compile(w.source).expect("compiles");
    assert_reuse_invisible(
        &engine,
        &program,
        &[w.default_arg, w.default_arg],
        "mst/store-only",
    );
}
