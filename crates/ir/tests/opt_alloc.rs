//! Pins that the optimizer's per-round passes do not allocate per
//! instruction.
//!
//! Every optimizer round re-runs copy propagation, dead-code elimination
//! and, after instrumentation, redundant-check elimination over the whole
//! function. Allocating per instruction in any of them (a fresh `Vec` of
//! defined registers, a cloned set per block, a `HashMap` rebuilt per
//! def) makes compile cost scale with the allocator, not with the work.
//! This test counts host allocations with a global allocator and
//! compares a function 16 times longer than another: the difference must
//! stay a small constant.

use sb_ir::{optimize_with_stats, Block, Function, Inst, OptLevel, RegId, RegKind, RtFn, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with its caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// never touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees for `new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One block of `n` × (`p = gep p + 4`, `check p`, `check p`), then
/// `ret`. Registers: `p`, base, bound. Each repeat check is redundant.
fn chain(n: usize) -> sb_ir::Module {
    let (p, base, bound) = (RegId(0), RegId(1), RegId(2));
    let check = || Inst::Rt {
        dsts: vec![],
        rt: RtFn::SbCheck { is_store: false },
        args: vec![
            Value::Reg(p),
            Value::Reg(base),
            Value::Reg(bound),
            Value::Const(4),
        ],
    };
    let mut insts = Vec::with_capacity(3 * n + 1);
    for _ in 0..n {
        insts.push(Inst::Gep {
            dst: p,
            base: Value::Reg(p),
            index: Value::Const(1),
            scale: 4,
            offset: 0,
            field_size: None,
        });
        insts.push(check());
        insts.push(check());
    }
    insts.push(Inst::Ret { vals: vec![] });
    sb_ir::Module {
        name: "chain".into(),
        globals: vec![],
        funcs: vec![Function {
            name: "f".into(),
            params: vec![p, base, bound],
            param_kinds: vec![RegKind::Ptr, RegKind::Int, RegKind::Int],
            ret_kinds: vec![],
            reg_kinds: vec![RegKind::Ptr, RegKind::Int, RegKind::Int],
            blocks: vec![Block { insts }],
            vararg: false,
            defined: true,
        }],
    }
}

/// Allocations made by one post-instrument optimization of `chain(n)`,
/// the smallest of a few attempts.
///
/// The counter is process-global, so a measured window can also see an
/// allocation of the test harness's own threads. Noise only adds counts,
/// so the minimum over attempts is the optimizer's own figure.
fn optimize_allocs(n: usize) -> u64 {
    let module = chain(n);
    (0..5)
        .map(|_| {
            let mut m = module.clone();
            let before = ALLOC_CALLS.load(Ordering::Relaxed);
            let stats = optimize_with_stats(&mut m, OptLevel::PostInstrument);
            let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
            assert_eq!(stats.checks_eliminated, n, "every repeat check goes");
            assert_eq!(m.funcs[0].blocks[0].insts.len(), 2 * n + 1);
            sb_ir::verify(&m).expect("verifies");
            delta
        })
        .min()
        .expect("attempts")
}

#[test]
fn optimizer_allocations_do_not_scale_with_function_length() {
    let small = optimize_allocs(256);
    let large = optimize_allocs(4096);
    assert!(
        large <= small + 32,
        "optimizing 16× the instructions took {large} allocations vs {small}"
    );
}
