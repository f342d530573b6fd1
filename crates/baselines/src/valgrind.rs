//! A Valgrind/Memcheck-style baseline: heap addressability checking with
//! redzones under dynamic binary instrumentation.
//!
//! Memcheck tracks an addressability bitmap for *heap* memory: allocations
//! are surrounded by redzones and freed blocks stay unaddressable, so heap
//! overflows and use-after-free are caught. Its well-known blind spots —
//! the ones Table 4 shows — are intra-frame **stack** overflows and
//! **global** array overflows (no redzones there), plus all sub-object
//! overflows. Costs model DBI: a large fixed per-memory-access penalty
//! (Memcheck typically slows programs 10–30×).
//!
//! Memcheck intercepts every memory access and needs no recompilation,
//! so the baseline instruments with Mudflap's dereference pass
//! ([`instrument_object_scheme`](crate::object_table::instrument_object_scheme)
//! with [`ObjectScheme::Mudflap`](crate::object_table::ObjectScheme::Mudflap)): a
//! [`RtFn::DerefCheck`] before each load and store, which this runtime
//! answers from its addressability map.

use std::collections::BTreeMap;

use sb_ir::RtFn;
use sb_vm::{RtCtx, RtVals, RuntimeHooks, Trap, HEAP_BASE, STACK_BASE};

/// Synthetic address of the addressability bitmap (for the cache model).
pub const VBITS_BASE: u64 = 0x0000_1E00_0000_0000;

/// Per-access DBI + bitmap-check cost in x86-equivalent instructions.
pub const DBI_CHECK_COST: u64 = 22;

/// Redzone padding the heap puts around every block under this runtime
/// ([`RuntimeHooks::REDZONE`]).
pub const REDZONE: u64 = 16;

/// The Memcheck-like runtime: a live-heap-block map standing in for the
/// addressability bitmap.
#[derive(Debug, Default)]
pub struct ValgrindRuntime {
    live: BTreeMap<u64, u64>, // addr -> size
}

impl ValgrindRuntime {
    /// Creates the runtime.
    pub fn new() -> Self {
        Self::default()
    }

    fn heap_check(
        &mut self,
        ptr: u64,
        len: u64,
        is_store: bool,
        ctx: &mut RtCtx,
    ) -> Result<(), Trap> {
        ctx.cost += DBI_CHECK_COST;
        ctx.touch(VBITS_BASE + ptr / 8);
        if !(HEAP_BASE..STACK_BASE).contains(&ptr) {
            // Stack and globals are addressable wholesale: Memcheck's
            // blind spot for array overflows there (Table 4: go, compress).
            return Ok(());
        }
        match self.live.range(..=ptr).next_back() {
            Some((&base, &size)) if ptr >= base && ptr + len <= base + size => Ok(()),
            _ => Err(Trap::SpatialViolation {
                scheme: "valgrind",
                addr: ptr,
                write: is_store,
            }),
        }
    }
}

impl RuntimeHooks for ValgrindRuntime {
    const REDZONE: u64 = REDZONE;

    fn rt_call(&mut self, rt: RtFn, args: &[i64], ctx: &mut RtCtx) -> Result<RtVals, Trap> {
        match rt {
            RtFn::DerefCheck { is_store } => {
                self.heap_check(args[0] as u64, args[1] as u64, is_store, ctx)?;
                Ok([0, 0])
            }
            other => panic!("valgrind runtime received foreign rt call {other:?}"),
        }
    }

    fn on_malloc(&mut self, addr: u64, size: u64, ctx: &mut RtCtx) {
        self.live.insert(addr, size.max(1));
        ctx.cost += 20; // redzone painting + bitmap updates
    }

    fn on_free(&mut self, addr: u64, _size: u64, _ptr_hint: bool, ctx: &mut RtCtx) {
        self.live.remove(&addr);
        ctx.cost += 15;
    }

    /// Memcheck sees a libc call's accesses like any other: one
    /// addressability check per buffer, by address alone.
    fn check_builtin_range(
        &mut self,
        ptr: u64,
        len: u64,
        write: bool,
        _bounds: Option<(u64, u64)>,
        ctx: &mut RtCtx,
    ) -> Result<u64, Trap> {
        self.heap_check(ptr, len, write, ctx)?;
        Ok(len)
    }

    fn reset(&mut self) {
        self.live.clear();
    }
}

#[cfg(test)]
mod tests {
    use crate::Scheme;

    fn run_vg(src: &str) -> sb_vm::RunResult {
        Scheme::Valgrind.run(src, "main", &[]).expect("compiles")
    }

    #[test]
    fn safe_heap_program_passes() {
        let r = run_vg(
            r#"
            int main() {
                int* p = (int*)malloc(10 * sizeof(int));
                for (int i = 0; i < 10; i++) p[i] = i;
                int s = 0;
                for (int i = 0; i < 10; i++) s += p[i];
                free(p);
                return s == 45;
            }"#,
        );
        assert_eq!(r.ret(), Some(1), "{:?}", r.outcome);
    }

    #[test]
    fn heap_overflow_detected() {
        let r = run_vg(
            r#"
            int main() {
                char* p = (char*)malloc(8);
                p[8] = 'x'; // lands in the redzone
                return 0;
            }"#,
        );
        assert!(r.outcome.is_spatial_violation(), "{:?}", r.outcome);
    }

    #[test]
    fn heap_read_overflow_detected() {
        let r = run_vg(
            r#"
            int main() {
                char* p = (char*)malloc(8);
                return p[9];
            }"#,
        );
        assert!(r.outcome.is_spatial_violation(), "{:?}", r.outcome);
    }

    #[test]
    fn use_after_free_detected() {
        let r = run_vg(
            r#"
            int main() {
                char* p = (char*)malloc(8);
                free(p);
                p[0] = 1;
                return 0;
            }"#,
        );
        assert!(r.outcome.is_spatial_violation(), "{:?}", r.outcome);
    }

    #[test]
    fn stack_overflow_missed() {
        // Memcheck's blind spot: intra-frame stack smash goes unnoticed
        // (this is why Table 4 shows Valgrind missing the `go` bug).
        let r = run_vg(
            r#"
            int main() {
                char buf[8];
                long canary[1];
                canary[0] = 7;
                long* p = (long*)buf;
                p[1] = 99; // overflows buf into canary
                return (int)canary[0];
            }"#,
        );
        assert_eq!(
            r.ret(),
            Some(99),
            "stack overflow silently corrupts: {:?}",
            r.outcome
        );
    }

    #[test]
    fn global_overflow_missed() {
        let r = run_vg(
            r#"
            char buf[8];
            char victim[8];
            int main() {
                for (int i = 0; i < 12; i++) buf[i] = 'X';
                return victim[0] == 'X';
            }"#,
        );
        assert_eq!(
            r.ret(),
            Some(1),
            "global overflow silently corrupts: {:?}",
            r.outcome
        );
    }

    #[test]
    fn libc_heap_overflow_detected_via_wrapper() {
        let r = run_vg(
            r#"
            int main() {
                char* p = (char*)malloc(8);
                strcpy(p, "overflow..."); // 12 bytes into 8
                return 0;
            }"#,
        );
        assert!(r.outcome.is_spatial_violation(), "{:?}", r.outcome);
    }
}
