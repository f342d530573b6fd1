//! End-to-end integration tests: CIR-C source → lower → optimize →
//! SoftBound instrument → re-optimize → execute under each metadata
//! facility and checking mode.
//!
//! These tests pin the paper's core claims: no false positives on correct
//! programs (§6.4), complete detection of spatial violations in full mode
//! (§6.2), store-overflow detection (and load-overflow blindness) in
//! store-only mode (Table 4), sub-object overflow detection (§2.1/§3.1),
//! and wild-cast safety (§3.4).

use sb_baselines::Scheme;
use sb_vm::{Machine, MachineConfig, Outcome, Trap};
use softbound::{Engine, SoftBoundConfig, SoftBoundRuntime, ViolationPolicy};

/// One-shot protected run through the session API — every test here
/// compiles a distinct program, so no instance outlives its run.
fn protect(src: &str, cfg: &SoftBoundConfig) -> sb_vm::RunResult {
    Engine::new()
        .softbound_config(cfg.clone())
        .run_once(src, "main", &[])
        .expect("compiles")
}

fn all_configs() -> Vec<SoftBoundConfig> {
    vec![
        SoftBoundConfig::full_shadow(),
        SoftBoundConfig::full_hash(),
        SoftBoundConfig::store_only_shadow(),
        SoftBoundConfig::store_only_hash(),
    ]
}

fn full_configs() -> Vec<SoftBoundConfig> {
    vec![SoftBoundConfig::full_shadow(), SoftBoundConfig::full_hash()]
}

/// Asserts the program runs to completion with `expected` under every
/// configuration — the no-false-positives property.
fn assert_safe(src: &str, expected: i64) {
    for cfg in all_configs() {
        let r = protect(src, &cfg);
        assert_eq!(
            r.ret(),
            Some(expected),
            "false positive or wrong result under {} : {:?}\noutput: {}",
            cfg.label(),
            r.outcome,
            r.output
        );
    }
}

fn assert_violation(src: &str, cfgs: &[SoftBoundConfig]) {
    for cfg in cfgs {
        let r = protect(src, cfg);
        assert!(
            r.outcome.is_spatial_violation(),
            "expected spatial violation under {}, got {:?}",
            cfg.label(),
            r.outcome
        );
    }
}

#[test]
fn safe_array_sum() {
    assert_safe(
        r#"
        int main() {
            int a[64];
            for (int i = 0; i < 64; i++) a[i] = i;
            int s = 0;
            for (int i = 0; i < 64; i++) s += a[i];
            return s == 2016;
        }"#,
        1,
    );
}

#[test]
fn safe_linked_list() {
    assert_safe(
        r#"
        struct node { int v; struct node* next; };
        int main() {
            struct node* head = NULL;
            for (int i = 0; i < 100; i++) {
                struct node* n = (struct node*)malloc(sizeof(struct node));
                n->v = i;
                n->next = head;
                head = n;
            }
            long s = 0;
            for (struct node* p = head; p != NULL; p = p->next) s += p->v;
            while (head) { struct node* t = head->next; free(head); head = t; }
            return s == 4950;
        }"#,
        1,
    );
}

#[test]
fn safe_string_handling() {
    assert_safe(
        r#"
        int main() {
            char buf[32];
            strcpy(buf, "hello");
            strcat(buf, ", world");
            return (int)strlen(buf) == 12 && strcmp(buf, "hello, world") == 0;
        }"#,
        1,
    );
}

#[test]
fn safe_function_pointers() {
    assert_safe(
        r#"
        int dbl(int x) { return 2 * x; }
        int neg(int x) { return -x; }
        int main() {
            int (*ops[2])(int);
            ops[0] = dbl;
            ops[1] = neg;
            int s = 0;
            for (int i = 0; i < 2; i++) s += ops[i](21);
            return s == 21;
        }"#,
        1,
    );
}

#[test]
fn safe_wild_casts() {
    // §3.4: disjoint metadata makes arbitrary casts safe — and the casts
    // must not produce false positives for in-bounds accesses.
    assert_safe(
        r#"
        int main() {
            long x[4];
            char* c = (char*)x;
            int* ip = (int*)(c + 4);
            *ip = 0x41424344;
            long l = (long)ip;
            int* back = (int*)l;  // int-to-pointer: NULL bounds...
            back = (int*)setbound((void*)l, 4); // ...restored via setbound
            return *back == 0x41424344;
        }"#,
        1,
    );
}

#[test]
fn safe_memcpy_with_pointers() {
    assert_safe(
        r#"
        struct holder { char* p; long n; };
        int main() {
            char data[8];
            data[0] = 'z';
            struct holder a;
            struct holder b;
            a.p = data;
            a.n = 1;
            memcpy(&b, &a, sizeof(struct holder));
            return b.p[0] == 'z'; // metadata must have been copied
        }"#,
        1,
    );
}

#[test]
fn safe_pointer_returned_through_functions() {
    assert_safe(
        r#"
        char* pick(char* a, char* b, int which) { return which ? a : b; }
        int main() {
            char x[4]; char y[4];
            x[0] = 1; y[0] = 2;
            char* p = pick(x, y, 1);
            return p[0] == 1;
        }"#,
        1,
    );
}

#[test]
fn heap_write_overflow_detected_all_modes() {
    assert_violation(
        r#"
        int main() {
            int* p = (int*)malloc(10 * sizeof(int));
            for (int i = 0; i <= 10; i++) p[i] = i; // one past the end
            return 0;
        }"#,
        &all_configs(),
    );
}

#[test]
fn stack_write_overflow_detected_all_modes() {
    assert_violation(
        r#"
        int main() {
            char buf[8];
            for (int i = 0; i < 9; i++) buf[i] = 'A';
            return 0;
        }"#,
        &all_configs(),
    );
}

#[test]
fn global_write_overflow_detected_all_modes() {
    assert_violation(
        r#"
        int g[4];
        int main() {
            for (int i = 0; i < 5; i++) g[i] = i;
            return 0;
        }"#,
        &all_configs(),
    );
}

#[test]
fn read_overflow_detected_in_full_missed_in_store_only() {
    let src = r#"
        int main() {
            int a[8];
            a[0] = 1;
            int s = 0;
            for (int i = 0; i < 10; i++) s += a[i]; // read overflow
            return s >= 0 || s < 0;
        }
    "#;
    assert_violation(src, &full_configs());
    for cfg in [
        SoftBoundConfig::store_only_shadow(),
        SoftBoundConfig::store_only_hash(),
    ] {
        let r = protect(src, &cfg);
        assert_eq!(
            r.ret(),
            Some(1),
            "store-only mode must miss read overflows (Table 4 'go'), got {:?}",
            r.outcome
        );
    }
}

#[test]
fn sub_object_overflow_detected() {
    // The §2.1 motivating example: object-based tools cannot see this.
    assert_violation(
        r#"
        struct node { char str[8]; void (*func)(void); };
        void noop(void) { }
        int main() {
            struct node n;
            n.func = noop;
            char* ptr = n.str;
            strcpy(ptr, "overflow...");
            return 0;
        }"#,
        &all_configs(),
    );
}

#[test]
fn negative_index_underflow_detected() {
    assert_violation(
        r#"
        int main() {
            int a[8];
            int* p = &a[0];
            p[-1] = 5;
            return 0;
        }"#,
        &all_configs(),
    );
}

#[test]
fn out_of_bounds_pointer_creation_is_legal_until_deref() {
    // §3.1: C allows creating out-of-bounds pointers; only dereference
    // must trap.
    assert_safe(
        r#"
        int main() {
            int a[8];
            int* end = a + 8;     // one past the end: legal
            int* wild = a + 100;  // far out: still legal to create
            int* back = wild - 100;
            *back = 7;            // in bounds again
            return a[0] == 7 && (end - a) == 8;
        }"#,
        1,
    );
}

#[test]
fn int_to_pointer_cast_gets_null_bounds() {
    for cfg in full_configs() {
        let r = protect(
            r#"
            int main() {
                long addr = 0x10000;
                int* p = (int*)addr;
                return *p;
            }"#,
            &cfg,
        );
        assert!(
            r.outcome.is_spatial_violation(),
            "forged pointer dereference must abort, got {:?}",
            r.outcome
        );
    }
}

#[test]
fn corrupted_function_pointer_via_wild_write_caught() {
    // Write the function pointer through an int* alias (in-bounds, wild
    // cast): SbFnCheck rejects the forged value since its metadata is not
    // the zero-sized function encoding.
    for cfg in full_configs() {
        let r = protect(
            r#"
            void evil(void) { exit(66); }
            int main() {
                void (*fp)(void);
                long* alias = (long*)&fp;
                *alias = (long)&evil + 0; // integer write: metadata NULLed? No —
                                          // the slot metadata is overwritten by an
                                          // integer store... the pointer load sees
                                          // stale or NULL metadata; FnCheck fires.
                fp();
                return 0;
            }"#,
            &cfg,
        );
        assert!(
            r.outcome.is_spatial_violation(),
            "forged function pointer must be rejected, got {:?}",
            r.outcome
        );
    }
}

#[test]
fn stale_metadata_cleared_on_free_prevents_use_after_realloc_confusion() {
    // After free+realloc of the same address, old metadata must not grant
    // wider bounds than the new allocation.
    assert_violation(
        r#"
        struct big { char* p; char pad[56]; };
        int main() {
            struct big* a = (struct big*)malloc(sizeof(struct big));
            a->p = (char*)a; // pointer stored: metadata for slot written
            free(a);
            // Same class size -> same address reused for a smaller view.
            char** b = (char**)malloc(8);
            char* q = *b;    // reads slot: metadata must be cleared (NULL)
            q[0] = 'x';      // must trap, not use stale [a, a+64) bounds
            return 0;
        }"#,
        &full_configs(),
    );
}

#[test]
fn separate_compilation_links_and_runs_protected() {
    // Transform two modules independently, link, run: the paper's
    // separate-compilation claim (§5.2, Table 1).
    let lib_src = r#"
        int sum(int* xs, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += xs[i];
            return s;
        }
    "#;
    let app_src = r#"
        int sum(int* xs, int n);
        int main() {
            int a[16];
            for (int i = 0; i < 16; i++) a[i] = i;
            return sum(a, 16) == 120;
        }
    "#;
    let cfg = SoftBoundConfig::default();
    let compile_one = |src: &str, name: &str| {
        let prog = sb_cir::compile(src).expect("compiles");
        let mut m = sb_ir::lower(&prog, name);
        sb_ir::optimize(&mut m, sb_ir::OptLevel::PreInstrument);
        let mut m = softbound::instrument(&m, &cfg);
        sb_ir::optimize(&mut m, sb_ir::OptLevel::PostInstrument);
        m
    };
    let lib = compile_one(lib_src, "lib");
    let app = compile_one(app_src, "app");
    // A linked module has no `Program`, so it runs on a machine built
    // directly over it, as every baseline scheme does.
    let run_linked = |m: &sb_ir::Module| {
        Machine::new(
            m,
            MachineConfig::default(),
            SoftBoundRuntime::new_paged(&cfg),
        )
        .run("main", &[])
    };
    let linked = sb_ir::link(&[app, lib], "prog").expect("links");
    sb_ir::verify(&linked).expect("verifies");
    let r = run_linked(&linked);
    assert_eq!(
        r.ret(),
        Some(1),
        "linked protected program runs: {:?}",
        r.outcome
    );

    // And the protection crosses the module boundary: passing a short
    // array into the library's loop still traps.
    let bad_app = r#"
        int sum(int* xs, int n);
        int main() {
            int a[4];
            return sum(a, 16); // library reads past the caller's array
        }
    "#;
    let app2 = compile_one(bad_app, "app");
    let lib2 = compile_one(lib_src, "lib");
    let linked2 = sb_ir::link(&[app2, lib2], "prog").expect("links");
    let r2 = run_linked(&linked2);
    assert!(
        r2.outcome.is_spatial_violation(),
        "bounds must travel across separately compiled modules, got {:?}",
        r2.outcome
    );
}

#[test]
fn global_pointer_initializers_have_bounds() {
    assert_safe(
        r#"
        int table[8] = {1,2,3,4,5,6,7,8};
        int* cursor = &table[0];
        char* msg = "hi";
        int main() {
            int s = 0;
            for (int i = 0; i < 8; i++) s += cursor[i];
            return s == 36 && msg[0] == 'h';
        }"#,
        1,
    );
    // ...and the bounds are the real object bounds:
    assert_violation(
        r#"
        int table[8];
        int* cursor = &table[0];
        int main() {
            cursor[8] = 1; // past the end of table
            return 0;
        }"#,
        &all_configs(),
    );
}

#[test]
fn vararg_over_decode_trapped() {
    // `sum_all` decodes 5 varargs where 2 were passed. Decoding index 2
    // traps (§5.2) under every configuration and violation policy, since
    // there is no in-bounds vararg slot to clamp to, and under both
    // pointer-based baselines.
    const SRC: &str = r#"
        int sum_all(int n, ...) {
            int s = 0;
            for (int i = 0; i < n; i++) s += (int)va_arg_long(i);
            return s;
        }
        int main() { return sum_all(5, 1, 2); } // lies about the count
    "#;
    let mut runs: Vec<(String, sb_vm::RunResult)> = all_configs()
        .into_iter()
        .chain([SoftBoundConfig::hardened(), SoftBoundConfig::monitor()])
        .map(|cfg| (cfg.label(), protect(SRC, &cfg)))
        .collect();
    for scheme in [Scheme::Mscc, Scheme::FatPointer] {
        let r = scheme.run(SRC, "main", &[]).expect("compiles");
        runs.push((scheme.label(), r));
    }
    for (label, r) in runs {
        assert!(
            matches!(
                r.outcome,
                Outcome::Trapped(Trap::SpatialViolation {
                    addr: 2,
                    write: false,
                    ..
                })
            ),
            "{label}: decoding vararg 2 of 2 must trap (§5.2), got {:?}",
            r.outcome
        );
    }
}

#[test]
fn the_entry_point_is_the_renamed_entry_not_a_name_ending_in_it() {
    // The pass renames `main` to `<prefix>main`, and the VM finds the
    // entry by stripping one `_<tag>_` prefix. `x_main` becomes
    // `<prefix>x_main`, which ends in `_main` but is not the entry.
    const SRC: &str = "int x_main() { return 1; } int main() { return 2; }";
    assert_eq!(sb_vm::run_source(SRC, "main", &[]).ret(), Some(2));
    for cfg in full_configs() {
        assert_eq!(protect(SRC, &cfg).ret(), Some(2), "{}", cfg.label());
    }
    for scheme in [Scheme::Mscc, Scheme::FatPointer] {
        let r = scheme.run(SRC, "main", &[]).expect("compiles");
        assert_eq!(r.ret(), Some(2), "{}", scheme.label());
    }
}

#[test]
fn overhead_ordering_is_sane() {
    // Relative cost-model sanity for one pointer-heavy workload:
    // uninstrumented < store-only(shadow) < full(shadow) < full(hash).
    let src = r#"
        struct node { int v; struct node* next; };
        int main() {
            struct node* head = NULL;
            for (int i = 0; i < 400; i++) {
                struct node* n = (struct node*)malloc(sizeof(struct node));
                n->v = i; n->next = head; head = n;
            }
            long s = 0;
            for (int pass = 0; pass < 10; pass++)
                for (struct node* p = head; p; p = p->next) s += p->v;
            return s > 0;
        }
    "#;
    let base = sb_vm::run_source(src, "main", &[]);
    assert_eq!(base.ret(), Some(1));
    let cycles = |cfg: &SoftBoundConfig| {
        let r = protect(src, cfg);
        assert_eq!(r.ret(), Some(1), "{}: {:?}", cfg.label(), r.outcome);
        r.stats.cycles
    };
    let store_shadow = cycles(&SoftBoundConfig::store_only_shadow());
    let full_shadow = cycles(&SoftBoundConfig::full_shadow());
    let full_hash = cycles(&SoftBoundConfig::full_hash());
    assert!(base.stats.cycles < store_shadow);
    assert!(store_shadow < full_shadow);
    assert!(
        full_shadow < full_hash,
        "hash table must cost more than shadow space"
    );
}

#[test]
fn no_hijack_possible_under_softbound() {
    // The uninstrumented run is hijacked; every SoftBound mode stops it.
    let src = r#"
        void evil(void) { exit(66); }
        void vulnerable(long target) {
            long buf[2];
            long* p = buf;
            for (int i = 0; i < 6; i++) p[i] = target;
        }
        int main() { vulnerable((long)&evil); return 0; }
    "#;
    let plain = sb_vm::run_source(src, "main", &[]);
    assert!(
        matches!(plain.outcome, Outcome::Hijacked { .. }),
        "{:?}",
        plain.outcome
    );
    assert_violation(src, &all_configs());
}

#[test]
fn memfault_trap_distinct_from_violation() {
    // Sanity: an unmapped wild store in an *uninstrumented* run is a
    // MemFault, not a spatial violation.
    let r = sb_vm::run_source(
        "int main() { *(int*)123456789 = 1; return 0; }",
        "main",
        &[],
    );
    assert!(matches!(r.outcome, Outcome::Trapped(Trap::MemFault { .. })));
}

#[test]
fn every_wrapper_check_is_counted_and_charged() {
    // One wrapped builtin each. Every buffer a wrapper checks adds one
    // check and its 3 cycles, like an explicit `SbCheck`, and a check
    // that traps is counted too: `memcpy`'s 8-byte source passes and its
    // 4-byte destination traps.
    let pins = [
        (r#"int main() { puts("hi"); return 0; }"#, 1, 19),
        (r#"int main() { printf("hi\n"); return 0; }"#, 1, 28),
        (r#"int main() { long jb[8]; setjmp(jb); return 0; }"#, 1, 22),
        (
            r#"int main() { char a[4]; char b[8]; memcpy(a, b, 8); return 0; }"#,
            2,
            18,
        ),
    ];
    for (src, checks, cycles) in pins {
        let r = protect(src, &SoftBoundConfig::default());
        assert_eq!(
            (r.stats.checks, r.stats.cycles),
            (checks, cycles),
            "{src}: {:?}",
            r.outcome
        );
    }
}

#[test]
fn printf_checks_each_string_it_reads() {
    // `a` holds `abcd` unterminated, and `b` follows it in the global
    // segment: an unchecked `%s` would read on through `b`.
    let src = r#"
        char a[4];
        char b[8];
        int main() {
            for (int i = 0; i < 4; i++) a[i] = 'a' + i;
            for (int i = 0; i < 7; i++) b[i] = 'x';
            b[7] = 0;
            printf("%ld ", (long)a);
            printf("%s\n", a);
            return 0;
        }
    "#;
    let engine = Engine::new();
    let program = engine.compile(src).expect("compiles");
    let mut tree_walk = Machine::new(
        program.module(),
        MachineConfig::default(),
        SoftBoundRuntime::new_paged(engine.config()),
    );
    for r in [
        tree_walk.run("main", &[]),
        engine.instantiate(&program).run("main", &[]),
    ] {
        let a: u64 = r.output.trim().parse().expect("the address of a");
        assert_eq!(
            r.outcome,
            Outcome::Trapped(Trap::SpatialViolation {
                scheme: "softbound-wrapper",
                addr: a + 4,
                write: false,
            }),
            "{}",
            r.output
        );
    }

    let hardened = Engine::new().policy(ViolationPolicy::Hardened);
    let program = hardened.compile(src).expect("compiles");
    let mut instance = hardened.instantiate(&program);
    let r = instance.run("main", &[]);
    assert!(r.output.ends_with(" abcd\n"), "{:?}", r.output);
    assert_eq!(instance.drain_evidence().len(), 1);
}
