//! Fleet-style serving of the §6.4 daemons through the session API:
//! each daemon is compiled once into a `Program`, instantiated once,
//! and then serves a stream of request batches on the same `Instance`.
//!
//! This is the deployment shape the ROADMAP's server north star needs —
//! one shadow directory per worker, reset between requests — and the
//! compatibility claim of §6.4 restated per request: every batch
//! returns the unprotected checksum, with zero false positives, for
//! both checking modes.

use sb_vm::MachineConfig;
use sb_workloads::daemons;
use softbound::{CheckMode, Engine};

#[test]
fn daemons_serve_repeated_batches_on_one_instance() {
    for daemon in daemons::all() {
        // Unprotected reference checksums per batch size.
        let expected: Vec<Option<i64>> = (1..=3)
            .map(|n| {
                let prog = sb_cir::compile(daemon.source).expect("daemon compiles unmodified");
                let mut module = sb_ir::lower(&prog, daemon.name);
                sb_ir::optimize(&mut module, sb_ir::OptLevel::PreInstrument);
                let mut m = sb_vm::Machine::uninstrumented(&module);
                m.run("main", &[n]).ret()
            })
            .collect();

        for mode in [CheckMode::Full, CheckMode::StoreOnly] {
            let engine = Engine::new()
                .check_mode(mode)
                .machine_config(MachineConfig::default());
            let program = engine
                .compile(daemon.source)
                .expect("daemon compiles unmodified");
            let mut instance = engine.instantiate(&program);
            // Two passes over the batch sizes: the second pass re-serves
            // each batch on the *same* instance and must reproduce the
            // first pass exactly.
            for pass in 0..2 {
                for (i, n) in (1..=3).enumerate() {
                    let r = instance.run("main", &[n]);
                    assert_eq!(
                        r.ret(),
                        expected[i],
                        "{}: batch {n} pass {pass} diverged under {mode:?} (no false \
                         positives allowed)",
                        daemon.name
                    );
                }
            }
            assert_eq!(instance.runs(), 6, "6 request batches served");
            instance.reset();
            assert_eq!(
                instance.live_entries(),
                0,
                "{}: metadata must be fully cleared after reset",
                daemon.name
            );
        }
    }
}
