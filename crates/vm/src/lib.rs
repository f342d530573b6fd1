//! # sb-vm — the execution substrate of the SoftBound reproduction
//!
//! A simulated 64-bit machine that executes `sb-ir` modules: byte-accurate
//! paged [memory](mem) with global/heap/stack segments, a heap allocator
//! with optional redzones, an [interpreter](interp) with an x86-style
//! instruction-count [cost model](COST_MODEL) and an optional Core 2 L1
//! cache model, and the [`RuntimeHooks`] interface through which safety
//! runtimes (SoftBound and the baselines) supply semantics and cost for
//! instrumentation-inserted runtime calls.
//!
//! Frames spill return tokens and saved frame pointers into simulated
//! memory, and `setjmp` writes live jump tokens — so the buffer-overflow
//! attacks of the paper's Table 3 genuinely divert control when no
//! protection is installed.
//!
//! # Examples
//!
//! ```
//! use sb_vm::{run_source, Outcome};
//!
//! let result = run_source("int main() { return 6 * 7; }", "main", &[]);
//! assert!(matches!(result.outcome, Outcome::Finished { ret: 42 }));
//! ```

pub mod exec;
pub mod interp;
pub mod mem;
pub mod rt;

pub use exec::{global_layout, global_layout_into, ExecCallee, ExecFunc, ExecModule, Op, PoolRef};
pub use interp::{is_code_addr, run_source, Machine, MachineConfig, RunResult};
pub use mem::{
    decode_fn_addr, fn_addr, Heap, HeapBlock, Mem, MemFault, FN_BASE, GLOBAL_BASE, HEAP_BASE,
    PAGE_SIZE, STACK_BASE,
};
pub use rt::{
    AccessSink, BuiltinViolation, CacheConfig, CacheSim, CacheStats, CostModel, ExecStats,
    NoRuntime, NoopSink, Outcome, RtCtx, RtVals, RuntimeHooks, ScratchSink, Trap,
    ViolationDisposition, COST_MODEL,
};
