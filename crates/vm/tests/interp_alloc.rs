//! Proves the interpreter's call path performs no per-call heap
//! allocation in the steady state.
//!
//! `Inst::Call` used to collect its arguments into a fresh `Vec`, clone
//! the destination-register list, and build each frame's register file
//! from scratch. The frame pool + shared argument scratch removed all of
//! it; this test pins the property with a counting global allocator: a
//! warmed-up machine re-running a call-heavy program must allocate
//! nothing at all.

use sb_vm::{ExecModule, Machine, Outcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Serializes the measuring sections: the allocation counter is global,
/// so concurrently running tests would see each other's allocations.
static MEASURE: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Runs `window` until it reports zero allocations, up to a few
/// attempts, returning the last attempt's delta.
///
/// The counter is process-global, so the measured section also sees
/// allocations from the libtest harness's own threads (result
/// bookkeeping, thread teardown) — rare, but nonzero on a loaded
/// 1-core host. Those are transient: noise can only *add* counts, so a
/// genuinely allocation-free replay reaches zero on some attempt, while
/// a real per-call allocation (the bug this suite pins) repeats on
/// every attempt and still fails.
fn min_delta_over_attempts(mut window: impl FnMut() -> u64) -> u64 {
    let mut delta = u64::MAX;
    for _ in 0..5 {
        delta = window();
        if delta == 0 {
            break;
        }
    }
    delta
}

/// Call-heavy, allocation-free program: deep recursion, wide calls,
/// varargs, indirect calls through function pointers, and allocas — every
/// shape the frame machinery must marshal — plus `memset`/`memcpy` over
/// local arrays, which copy through fixed stack chunks. No
/// printf/malloc/strings, so the program itself asks the host for
/// nothing.
const CALL_HEAVY: &str = r#"
    int add4(int a, int b, int c, int d) { return a + b + c + d; }
    int apply(int (*f)(int, int, int, int), int v) { return f(v, v, v, v); }
    int sum_varargs(int n, ...) {
        int s = 0;
        for (int i = 0; i < n; i++) s += (int)va_arg_long(i);
        return s;
    }
    int fib(int n) {
        int scratch[4];
        scratch[n & 3] = n;
        if (n < 2) return scratch[n & 3];
        return fib(n - 1) + fib(n - 2);
    }
    int main() {
        int total = 0;
        char a[64];
        char b[64];
        for (int i = 0; i < 50; i++) {
            total += add4(i, i, i, i);
            total += apply(add4, i);
            total += sum_varargs(3, i, i, i);
            memset(a, i, 64);
            memcpy(b, a, 64);
            total += b[63];
        }
        total += fib(15);
        return total > 0;
    }
"#;

#[test]
fn warm_machine_reruns_without_allocating() {
    // Locked before any setup: compilation in a concurrently-running
    // test would bump the shared counter mid-measurement.
    let _guard = MEASURE.lock().expect("no poisoned measurements");
    let prog = sb_cir::compile(CALL_HEAVY).expect("compiles");
    let mut module = sb_ir::lower(&prog, "alloc_test");
    sb_ir::optimize(&mut module, sb_ir::OptLevel::PreInstrument);
    sb_ir::verify(&module).expect("verifies");

    let mut machine = Machine::uninstrumented(&module);
    // Warmup: grows the frame pool to the program's peak depth, the
    // argument scratch to its widest call, and maps every stack page.
    let warm = machine.run("main", &[]);
    assert!(
        matches!(warm.outcome, Outcome::Finished { ret: 1 }),
        "{:?}",
        warm.outcome
    );

    // Interior allocas observe a fresh frame each run; fuel is already
    // budgeted per machine, not per run, so re-running is pure replay.
    let mut calls = 0;
    let delta = min_delta_over_attempts(|| {
        let before = allocs();
        let again = machine.run("main", &[]);
        let delta = allocs() - before;
        assert!(
            matches!(again.outcome, Outcome::Finished { ret: 1 }),
            "{:?}",
            again.outcome
        );
        calls = again.stats.calls;
        delta
    });
    assert_eq!(
        delta, 0,
        "warm interpreter must not allocate per call: {delta} allocations \
         across {calls} calls"
    );
    assert!(
        calls > 200,
        "program must be call-heavy, executed only {calls} calls"
    );
}

/// The pre-decoded execution lane shares the frame pool and
/// scratch buffers with the tree-walk reference, and its flat-op dispatch
/// adds no per-step state of its own — so a warmed machine replaying
/// the same program through `run_predecoded` must also allocate
/// nothing. Lowering the `ExecModule` itself allocates (that is the
/// decode cost `Program` caching amortizes); it happens once, before
/// the measured window.
#[test]
fn warm_predecoded_lane_reruns_without_allocating() {
    let _guard = MEASURE.lock().expect("no poisoned measurements");
    let prog = sb_cir::compile(CALL_HEAVY).expect("compiles");
    let mut module = sb_ir::lower(&prog, "alloc_test_exec");
    sb_ir::optimize(&mut module, sb_ir::OptLevel::PreInstrument);
    sb_ir::verify(&module).expect("verifies");
    let exec = ExecModule::lower(&module);

    let mut machine = Machine::uninstrumented(&module);
    machine.attach_exec(&exec);
    let warm = machine.run_predecoded("main", &[]);
    assert!(
        matches!(warm.outcome, Outcome::Finished { ret: 1 }),
        "{:?}",
        warm.outcome
    );

    let mut calls = 0;
    let delta = min_delta_over_attempts(|| {
        let before = allocs();
        let again = machine.run_predecoded("main", &[]);
        let delta = allocs() - before;
        assert!(
            matches!(again.outcome, Outcome::Finished { ret: 1 }),
            "{:?}",
            again.outcome
        );
        calls = again.stats.calls;
        delta
    });
    assert_eq!(
        delta, 0,
        "warm pre-decoded lane must not allocate per call: {delta} allocations \
         across {calls} calls"
    );
    assert!(
        calls > 200,
        "program must be call-heavy, executed only {calls} calls"
    );
}

#[test]
fn deeper_recursion_only_grows_pools() {
    let _guard = MEASURE.lock().expect("no poisoned measurements");
    // Per-call allocation would scale with the call count; pool growth
    // scales with peak depth. Distinguish the two: after warming at a
    // given depth, running *the same depth* again allocates zero even
    // though it executes thousands more calls.
    let src = r#"
        int down(int n) { if (n == 0) return 0; return down(n - 1) + 1; }
        int main(int n) {
            int total = 0;
            for (int i = 0; i < 40; i++) total += down(n);
            return total;
        }
    "#;
    let prog = sb_cir::compile(src).expect("compiles");
    let mut module = sb_ir::lower(&prog, "depth_test");
    sb_ir::optimize(&mut module, sb_ir::OptLevel::PreInstrument);

    let mut machine = Machine::uninstrumented(&module);
    let depth = 300i64;
    machine.run("main", &[depth]);
    let mut calls = 0;
    let delta = min_delta_over_attempts(|| {
        let before = allocs();
        let r = machine.run("main", &[depth]);
        let delta = allocs() - before;
        assert_eq!(r.ret(), Some(40 * depth));
        calls = r.stats.calls;
        delta
    });
    assert!(calls > 10_000, "calls: {calls}");
    assert_eq!(
        delta, 0,
        "{delta} allocations for {calls} calls at warmed depth"
    );
}
