//! Proves evidence telemetry is allocation-free in the steady state.
//!
//! The evidence ring is preallocated at instance construction
//! (`EVIDENCE_CAPACITY` records) and recording a
//! violation under the Hardened policy only writes into it — so a
//! warmed instance replaying an overflow-heavy program must ask the
//! host allocator for nothing, evidence emission included. Draining
//! returns a fresh `Vec` and is therefore done outside the measured
//! window (that is the caller's explicit export step, not the hot
//! path). Under Strict the ring is empty, so a whole `fleet::observe`
//! request — drain and memory digest included — is pinned at zero too.
//! A separate count of 4 MiB-and-larger allocations pins that a fresh
//! shadow-space instance takes its page frames from the process-wide
//! pool instead of allocating them.

use softbound::{fleet, CheckMode, Engine, Facility, Instance, ViolationPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Serializes the measuring sections: the allocation counter is global,
/// so concurrently running tests would see each other's allocations.
static MEASURE: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Allocations of at least one shadow page frame (4 MiB).
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
const LARGE: usize = 4 << 20;

fn count(layout: Layout) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    if layout.size() >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        unsafe { System.alloc_zeroed(layout) }
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
/// attempts, returning the last attempt's delta. The counter is
/// process-global, so the measured section also sees transient
/// allocations from the libtest harness's own threads; noise can only
/// *add* counts, so a genuinely allocation-free replay reaches zero on
/// some attempt, while a real per-record allocation repeats every time.
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

/// Overflow-heavy, allocation-free probe: a guarded stack buffer is
/// overrun through explicit per-access checks (no printf, no malloc, no
/// string builtins — the program itself asks the host for nothing).
/// With `n = 64`, indices `i & 31` hit 16..31 twice: 32 clamped stores,
/// 32 evidence records per run — well inside the default ring capacity.
const PROBE: &str = r#"
    int main(int n) {
        char buf[16];
        int sum = 0;
        for (int i = 0; i < n; i = i + 1) buf[i & 31] = (char)i;
        for (int i = 0; i < 16; i = i + 1) sum = sum + buf[i];
        return sum > 0;
    }
"#;

#[test]
fn warm_hardened_instance_records_evidence_without_allocating() {
    // Locked before any setup: compilation in a concurrently-running
    // test would bump the shared counter mid-measurement.
    let _guard = MEASURE.lock().expect("no poisoned measurements");
    let engine = Engine::new().policy(ViolationPolicy::Hardened);
    let program = engine.compile(PROBE).expect("compiles");
    let mut instance = engine.instantiate(&program);

    // Warmup: maps the stack pages, grows the frame pool, and exercises
    // the full clamp + record path once.
    let warm = instance.run("main", &[64]);
    assert_eq!(warm.ret(), Some(1), "{:?}", warm.outcome);
    assert_eq!(instance.evidence_len(), 32, "32 clamped stores per run");
    let drained = instance.drain_evidence();
    assert_eq!(drained.len(), 32);

    let mut evidence_len = 0;
    let delta = min_delta_over_attempts(|| {
        let before = allocs();
        let again = instance.run("main", &[64]);
        let delta = allocs() - before;
        assert_eq!(again.ret(), Some(1), "{:?}", again.outcome);
        evidence_len = instance.evidence_len();
        delta
    });
    assert_eq!(
        evidence_len, 32,
        "every replay must re-record the full evidence stream"
    );
    assert_eq!(instance.evidence_overflow(), 0);
    assert_eq!(
        delta, 0,
        "warm hardened run must not allocate while emitting evidence: \
         {delta} allocations for {evidence_len} records"
    );
}

/// Like [`PROBE`], but it also stores pointers into a guarded array so
/// every iteration writes shadow-space metadata — the traffic that
/// would expose the directory allocating chunks, or a page commit
/// allocating a frame, on the warm path.
const SHARED_PROBE: &str = r#"
    int main(int n) {
        char buf[16];
        char* slots[8];
        int sum = 0;
        for (int i = 0; i < n; i = i + 1) slots[i & 7] = buf + (i & 15);
        for (int i = 0; i < 8; i = i + 1) sum = sum + (slots[i] != 0);
        for (int i = 0; i < n; i = i + 1) buf[i & 31] = (char)i;
        return sum > 0;
    }
"#;

#[test]
fn warm_shared_facility_run_allocates_nothing() {
    // The paged shadow allocates a directory chunk on the first page
    // commit in its span and keeps it across reset, and reset pools its
    // page frames instead of freeing them, so a warmed instance —
    // metadata stores, clamped overflows, and reset churn included —
    // must ask the host allocator for nothing.
    let _guard = MEASURE.lock().expect("no poisoned measurements");
    let engine = Engine::new()
        .facility(Facility::ShadowShared)
        .policy(ViolationPolicy::Hardened);
    let program = engine.compile(SHARED_PROBE).expect("compiles");
    let mut instance = engine.instantiate(&program);

    // Warmup: commits shadow pages (materializing their directory
    // chunks), maps stack pages, and fills the frame pools.
    let warm = instance.run("main", &[64]);
    assert_eq!(warm.ret(), Some(1), "{:?}", warm.outcome);
    instance.drain_evidence();

    let delta = min_delta_over_attempts(|| {
        let before = allocs();
        instance.reset();
        let again = instance.run("main", &[64]);
        let delta = allocs() - before;
        assert_eq!(again.ret(), Some(1), "{:?}", again.outcome);
        delta
    });
    assert_eq!(
        delta, 0,
        "warm shared-facility replay (reset included) must not touch \
         the host allocator: {delta} allocations"
    );
}

#[test]
fn fresh_instance_takes_its_shadow_frames_from_the_pool() {
    // Reset hands an instance's scrubbed page frames to the process-wide
    // pool, and a page commit on any instance takes one from there: a
    // fresh instance running after another one's reset must allocate no
    // 4 MiB frame. Every test here holds `MEASURE`, so no other instance
    // drains the pool in between.
    let _guard = MEASURE.lock().expect("no poisoned measurements");
    let engine = Engine::new()
        .facility(Facility::ShadowShared)
        .policy(ViolationPolicy::Hardened);
    let program = engine.compile(SHARED_PROBE).expect("compiles");
    let mut first = engine.instantiate(&program);
    let r = first.run("main", &[64]);
    assert_eq!(r.ret(), Some(1), "{:?}", r.outcome);
    first.reset();

    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    let mut fresh = engine.instantiate(&program);
    let r = fresh.run("main", &[64]);
    let large = LARGE_ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(r.ret(), Some(1), "{:?}", r.outcome);
    assert!(
        fresh.metadata_reservation_bytes() >= LARGE,
        "the probe commits a shadow page"
    );
    assert_eq!(
        large, 0,
        "a fresh instance allocated {large} page frames instead of taking \
         them from the pool"
    );
}

#[test]
fn warm_fleet_observe_allocates_nothing() {
    // `fleet::observe` is what a pool worker does per request: reset,
    // run, memory digest, evidence drain. Under Strict the drain returns
    // an empty `Vec` and the digest folds over the page table in place,
    // so a warmed store-only shared-facility instance serving the mixed
    // handler must ask the host allocator for nothing — trapping
    // requests included.
    let _guard = MEASURE.lock().expect("no poisoned measurements");
    let engine = Engine::new()
        .check_mode(CheckMode::StoreOnly)
        .facility(Facility::ShadowShared);
    let program = engine
        .compile(sb_workloads::MIXED_HANDLER)
        .expect("compiles");
    let mut instance = engine.instantiate(&program);
    // Lengths above 16 overflow the handler's buffer and must trap.
    let requests = [0, 7, 16, 40];
    let serve = |instance: &mut Instance<'_>| {
        requests
            .iter()
            .map(|&n| fleet::observe(instance, "main", n))
            .filter(|o| o.outcome.is_spatial_violation())
            .count()
    };
    assert_eq!(serve(&mut instance), 1, "warm-up: one trapping request");

    let delta = min_delta_over_attempts(|| {
        let before = allocs();
        let traps = serve(&mut instance);
        let delta = allocs() - before;
        assert_eq!(traps, 1);
        delta
    });
    assert_eq!(
        delta, 0,
        "warm fleet::observe (reset, run, digest, drain) must not touch \
         the host allocator: {delta} allocations"
    );
}
