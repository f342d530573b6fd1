//! Pins that the frontend does not copy what it already owns.
//!
//! The parser hands each consumed token over by value, so an identifier
//! is copied once, by the lexer, into the AST that owns it. Compound
//! types share their payloads, so the checker's copy of a variable's
//! type into each use allocates nothing, however deep the type. Both
//! tests count host allocations with a global allocator and compare two
//! sources that differ only in the property under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Serializes the measuring sections: the counters are global, so
/// concurrently running tests would see each other's allocations.
static MEASURE: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with its caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counters
// never touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees for `new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The `(calls, bytes)` that `f` allocates, the smallest of a few
/// attempts. The counters are process-global, so a measured window can
/// also see an allocation of the test harness's own threads; noise only
/// adds, so the minimum is the measured code's own figure.
fn allocations<T>(f: impl Fn() -> T) -> (u64, u64) {
    let _guard = MEASURE.lock().expect("no poisoned measurements");
    (0..5)
        .map(|_| {
            let (calls, bytes) = (
                ALLOC_CALLS.load(Ordering::Relaxed),
                ALLOC_BYTES.load(Ordering::Relaxed),
            );
            drop(f());
            (
                ALLOC_CALLS.load(Ordering::Relaxed) - calls,
                ALLOC_BYTES.load(Ordering::Relaxed) - bytes,
            )
        })
        .min()
        .expect("attempts")
}

/// Occurrences of the identifier in [`one_identifier`]'s function.
const OCCURRENCES: usize = 257;

/// A function whose parameter `name` is read 256 times.
fn one_identifier(name: &str) -> String {
    let mut src = format!("long f(long {name}) {{ return {name}");
    for _ in 1..OCCURRENCES - 1 {
        src.push_str(&format!(" + {name}"));
    }
    src.push_str("; }");
    src
}

#[test]
fn parse_copies_each_identifier_once() {
    let long_name = "x".repeat(1024);
    let short = one_identifier("x");
    let long = one_identifier(&long_name);
    let parse = |src: &str| sb_cir::parse(src).expect("parses");
    let (_, short_bytes) = allocations(|| parse(&short));
    let (_, long_bytes) = allocations(|| parse(&long));
    let per_copy = (OCCURRENCES * (long_name.len() - 1)) as f64;
    let copies = (long_bytes - short_bytes) as f64 / per_copy;
    assert!(
        copies <= 1.0,
        "a 1 KiB identifier cost {copies:.2} copies per occurrence"
    );
}

/// A function that assigns local `q` of type `ty` 256 times.
fn assignments(ty: &str) -> String {
    let mut src = format!("void f() {{ {ty} p; {ty} q; ");
    for _ in 0..256 {
        src.push_str("q = p; ");
    }
    src.push('}');
    src
}

#[test]
fn check_allocates_nothing_per_copy_of_a_deep_type() {
    let count_check = |ty: &str| {
        let unit = sb_cir::parse(&assignments(ty)).expect("parses");
        allocations(|| sb_cir::check(&unit).expect("checks")).0
    };
    let flat = count_check("long");
    let deep = count_check("long**********");
    assert!(
        deep * 100 <= flat * 105,
        "assigning a `long**********` took {deep} allocations, a `long` {flat}"
    );
}
