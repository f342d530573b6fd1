//! # softbound — the paper's primary contribution
//!
//! A reproduction of *SoftBound: Highly Compatible and Complete Spatial
//! Memory Safety for C* (Nagarakatte, Zhao, Martin, Zdancewic; PLDI 2009).
//!
//! SoftBound associates `(base, bound)` metadata with every pointer, kept
//! in a **disjoint metadata space** keyed by the *location* of each
//! pointer in memory. Because the metadata is disjoint, program stores —
//! even through wildly cast pointers — cannot corrupt it, which yields
//! complete spatial safety with **no source changes and no memory-layout
//! changes**. This crate provides:
//!
//! * the session-oriented [`Engine`] → [`Program`] → [`Instance`] API
//!   (module [`engine`]): compile once, instantiate a persistent
//!   monomorphized machine, and serve back-to-back runs that reuse the
//!   metadata facility instead of rebuilding it;
//! * [`instrument`] — the compile-time [transformation](transform) over
//!   `sb-ir` modules (checks, metadata propagation, `_sb_` function
//!   renaming, bound shrinking, wrappers, global-metadata constructor);
//! * the two [metadata facilities](metadata) of §5.1 — the tag-less
//!   shadow space (one paged map with a private directory, recycling
//!   its page frames through a process-wide pool) and the open-hash
//!   table —
//!   with the paper's instruction costs;
//! * the [runtime](mod@runtime) that plugs into the `sb-vm` machine and
//!   clears stale metadata on `free` and on frame exit;
//! * a unified [`SoftBoundError`] covering every fallible pipeline
//!   stage, including verifier failures that used to panic.
//!
//! # Examples
//!
//! Catching the paper's §2.1 motivating sub-object overflow, then
//! serving a second request on the same instance:
//!
//! ```
//! use softbound::Engine;
//!
//! let src = r#"
//!     struct node { char str[8]; void (*func)(void); };
//!     void noop(void) { }
//!     int main() {
//!         struct node n;
//!         n.func = noop;
//!         char* ptr = n.str;
//!         strcpy(ptr, "overflow...");  // silently clobbers n.func in plain C
//!         return 0;
//!     }
//! "#;
//! let engine = Engine::new();
//! let program = engine.compile(src)?;
//! let mut instance = engine.instantiate(&program);
//!
//! let result = instance.run("main", &[]);
//! assert!(result.outcome.is_spatial_violation());
//!
//! // The instance resets itself between runs: the verdict (and every
//! // observable) is identical on the next request, and an explicit
//! // reset leaves zero metadata behind.
//! let again = instance.run("main", &[]);
//! assert!(again.outcome.is_spatial_violation());
//! instance.reset();
//! assert_eq!(instance.live_entries(), 0);
//! # Ok::<(), softbound::SoftBoundError>(())
//! ```
//!
//! [`Engine::run_once`] serves one-shot callers; anything that runs more
//! than once should hold an engine and an instance.

pub mod config;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod metadata;
pub mod policy;
pub mod runtime;
pub mod transform;

pub use config::{CheckMode, Facility, SoftBoundConfig};
pub use engine::{front_half, Engine, Instance, Program};
pub use error::SoftBoundError;
pub use metadata::{HashTableFacility, Meta, MetadataFacility, ShadowHashMapFacility, ShadowPages};
pub use policy::{EvidenceRecord, EvidenceRing, PolicyAction, ViolationPolicy, EVIDENCE_CAPACITY};
pub use runtime::SoftBoundRuntime;
pub use transform::{instrument, instrument_flavored, Flavor, GLOBALS_INIT_PREFIX, SB_PREFIX};
