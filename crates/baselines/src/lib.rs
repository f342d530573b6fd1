//! # sb-baselines — comparator schemes from the paper's Background (§2)
//!
//! Implementations of the related approaches the paper compares SoftBound
//! against, each reproducing that scheme's *detection envelope* and cost
//! profile:
//!
//! * [`object_table`] — Jones-Kelly and Mudflap-style object-based
//!   checking over a real [splay tree](splay) (compatible but incomplete:
//!   no sub-object overflows; Table 1/Table 4): its own pass and runtime;
//! * [`valgrind`] — Memcheck-style heap addressability with redzones
//!   under a DBI cost model (misses stack/global overflows; Table 4):
//!   its runtime, instrumented by Mudflap's dereference pass;
//! * [`fatptr`] — SafeC/CCured-SEQ inline fat pointers, with the
//!   memory-layout incompatibility made executable (§2.2, Table 1): the
//!   24-byte layout and the runtime;
//! * [`mscc`] — MSCC-style disjoint metadata without wild-cast support
//!   and without sub-object bounds (§6.5): the runtime;
//! * [`scheme`] — a unified [`Scheme`] driver for the
//!   experiment harnesses.
//!
//! The two pointer-based baselines have no pass of their own: they are
//! the [`Flavor::Mscc`](softbound::Flavor::Mscc) and
//! [`Flavor::Fat`](softbound::Flavor::Fat) flavors of SoftBound's
//! transformation, [`softbound::instrument_flavored`].

pub mod fatptr;
pub mod mscc;
pub mod object_table;
pub mod scheme;
pub mod splay;
pub mod valgrind;

pub use fatptr::{compile_fat, compile_fat_protected, instrument_fat, FatPtrRuntime};
pub use mscc::{instrument_mscc, MsccRuntime};
pub use object_table::{instrument_object_scheme, ObjectScheme, ObjectTableRuntime};
pub use scheme::Scheme;
pub use splay::SplayTree;
pub use valgrind::{ValgrindRuntime, REDZONE};
