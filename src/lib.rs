//! # softbound-repro — facade crate
//!
//! Re-exports every crate of the SoftBound (PLDI 2009) reproduction
//! workspace under one roof, so examples and integration tests can say
//! `use softbound_repro::...`. See `README.md` for the tour and its
//! "Workspace layout" section for the crate inventory.

pub use sb_baselines as baselines;
pub use sb_bench as bench;
pub use sb_cir as cir;
pub use sb_formal as formal;
pub use sb_ir as ir;
pub use sb_vm as vm;
pub use sb_workloads as workloads;
pub use softbound as core;
