//! Pins that lowering does not allocate in proportion to an object's
//! element count.
//!
//! Whether a stack object holds pointers is one bit per object. Host
//! memory in proportion to the element count would let a module of
//! sixteen `char* a[33554432]` locals, each within the guest memory
//! limit, exhaust the host at compile time. This test counts the bytes
//! the host allocator hands out while one module with an 8 MiB pointer
//! array global and an 8 MiB pointer array local is lowered.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with its caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// never touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees for `new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn lowering_a_huge_pointer_array_allocates_no_per_slot_list() {
    // 2^20 pointers each: 8 MiB of guest memory per object.
    let src = r#"
        char* g[1048576];
        int main() {
            char* a[1048576];
            a[0] = g[0];
            return a[0] == 0;
        }
    "#;
    let prog = sb_cir::compile(src).expect("compiles");
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let module = sb_ir::lower(&prog, "huge");
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(module.globals[0].size, 8 << 20);
    assert!(bytes < 1 << 20, "lowering allocated {bytes} bytes");
}
