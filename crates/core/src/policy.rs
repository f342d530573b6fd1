//! Violation policies and structured evidence telemetry.
//!
//! The paper treats every spatial violation as a hard trap (`check()`
//! calls `abort()`, §3.1). A deployed fleet needs the response to a
//! violation to be *first-class*: CUP (PAPERS.md) argues for a
//! repair-and-continue posture in user-space protection, and CGuard
//! frames abort-vs-report as a policy knob layered over unchanged
//! bounds machinery. This module supplies that knob:
//!
//! * [`ViolationPolicy`] — trap ([`Strict`](ViolationPolicy::Strict)),
//!   repair ([`Hardened`](ViolationPolicy::Hardened)), or observe
//!   ([`Monitor`](ViolationPolicy::Monitor)). The *checks* are identical
//!   under every policy; only the response differs, so safe executions
//!   are bit-identical across policies.
//! * [`EvidenceRecord`] — one structured forensic record per non-Strict
//!   violation: dynamic instruction index, pointer, normalized faulting
//!   byte, access size, bounds, direction, and the
//!   [`PolicyAction`] taken.
//! * [`EvidenceRing`] — a preallocated per-instance ring buffer the
//!   runtime records into without host allocation on the warm path,
//!   drained via `Instance::drain_evidence()` and aggregated per-worker
//!   by the fleet.
//!
//! Two responses the policy deliberately does **not** soften:
//! function-pointer checks (`SbFnCheck`) and the wrapped `va_arg_*`
//! builtins' index checks (in the VM, which owns the frame's vararg
//! count) trap under every policy — there is no meaningful "clamped"
//! control transfer or vararg slot, and continuing past either would
//! turn a detected hijack into undefined behaviour.

pub use sb_vm::first_oob_byte;

/// How the runtime responds when a bounds check fails (the checks
/// themselves are identical under every policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViolationPolicy {
    /// Trap on the first violation — the paper's `abort()` and the
    /// default. The hot check path is unchanged, so Strict pays nothing
    /// for the policy seam existing.
    #[default]
    Strict,
    /// Repair and continue: clamp the offending access to the object's
    /// bounds (truncated write / zero-filled read), record an
    /// [`EvidenceRecord`], and keep executing. The deployment posture
    /// CUP argues for: no corruption beyond the object, no downtime.
    Hardened,
    /// Record an [`EvidenceRecord`] and perform the access anyway —
    /// pure telemetry, behaviour identical to an unprotected run. This
    /// subsumes the ad-hoc "detect but don't block loads" reading of
    /// store-only mode: store-only narrows *which* accesses are
    /// checked at instrumentation time, Monitor narrows *what happens*
    /// on a failed check at run time.
    Monitor,
}

impl ViolationPolicy {
    /// Short label for reports (`"strict"`, `"hardened"`, `"monitor"`).
    pub fn label(self) -> &'static str {
        match self {
            ViolationPolicy::Strict => "strict",
            ViolationPolicy::Hardened => "hardened",
            ViolationPolicy::Monitor => "monitor",
        }
    }
}

/// What a non-Strict policy did about one violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Hardened: the store was truncated to the object's bounds.
    ClampedWrite,
    /// Hardened: the load read in-bounds bytes and zero-filled the rest.
    ZeroedRead,
    /// Monitor: the access was performed unchanged.
    Observed,
}

/// One structured violation record — the forensic unit a fleet drains
/// and aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvidenceRecord {
    /// Dynamic instruction index at the violating check (the trap-PC
    /// convention the differential suites pin across lanes).
    pub pc: u64,
    /// The pointer value the access used.
    pub ptr: u64,
    /// The *first out-of-bounds byte* of the access, normalized to the
    /// PR 8 wrapper-trap convention: `ptr` itself when the access
    /// starts outside `[base, bound)`, else `bound`. Explicit-check
    /// traps report the raw `ptr` in their `Trap`; evidence records
    /// normalize so wrapper and explicit violations agree.
    pub fault_addr: u64,
    /// Access size in bytes (for wrapper violations, the builtin's
    /// whole intended range).
    pub size: u64,
    /// Lower bound of the object's metadata.
    pub base: u64,
    /// One past the object's last valid byte.
    pub bound: u64,
    /// True if the access was a store.
    pub write: bool,
    /// What the policy did about it.
    pub action: PolicyAction,
}

/// Records each non-Strict instance's evidence ring holds between
/// drains, preallocated at instantiation. Strict instances never record
/// evidence, and their ring holds none.
pub const EVIDENCE_CAPACITY: usize = 256;

/// A fixed-capacity ring of [`EvidenceRecord`]s, preallocated at
/// construction so recording on the warm path never touches the host
/// allocator. When full, the oldest record is overwritten and
/// [`overflow`](EvidenceRing::overflow) counts the loss — a fleet that
/// sees a non-zero overflow knows its drain cadence (or capacity) is
/// too small for its violation rate.
#[derive(Debug)]
pub struct EvidenceRing {
    buf: Vec<EvidenceRecord>,
    cap: usize,
    /// Overwrite cursor, meaningful once `buf.len() == cap`: the index
    /// of the oldest record (and the next slot to overwrite).
    next: usize,
    overflow: u64,
}

impl EvidenceRing {
    /// Creates a ring holding at most `capacity` records. Capacity 0 is
    /// legal: every record is dropped and counted as overflow.
    pub fn new(capacity: usize) -> Self {
        EvidenceRing {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            next: 0,
            overflow: 0,
        }
    }

    /// Appends a record, overwriting the oldest (and ticking the
    /// overflow counter) when the ring is full. Never allocates.
    pub fn record(&mut self, r: EvidenceRecord) {
        if self.cap == 0 {
            self.overflow += 1;
        } else if self.buf.len() < self.cap {
            self.buf.push(r);
        } else {
            self.buf[self.next] = r;
            self.next = (self.next + 1) % self.cap;
            self.overflow += 1;
        }
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records overwritten (or dropped, for capacity 0) since the last
    /// [`reset`](EvidenceRing::reset) — survives
    /// [`drain`](EvidenceRing::drain) so the loss stays visible.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Removes and returns all held records, oldest first. The ring's
    /// buffer (and its overflow counter) stay in place for reuse.
    pub fn drain(&mut self) -> Vec<EvidenceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.cap && self.cap > 0 {
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        self.buf.clear();
        self.next = 0;
        out
    }

    /// Clears records *and* the overflow counter, keeping the
    /// preallocated buffer — called from the runtime's `reset()` so a
    /// reused instance starts each run with an empty ring.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.overflow = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pc: u64) -> EvidenceRecord {
        EvidenceRecord {
            pc,
            ptr: 0x1000 + pc,
            fault_addr: 0x1000 + pc,
            size: 1,
            base: 0x1000,
            bound: 0x1010,
            write: false,
            action: PolicyAction::Observed,
        }
    }

    #[test]
    fn ring_drains_in_order_and_counts_overflow() {
        let mut ring = EvidenceRing::new(3);
        for pc in 0..5 {
            ring.record(rec(pc));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.overflow(), 2, "two oldest records were overwritten");
        let drained: Vec<u64> = ring.drain().iter().map(|r| r.pc).collect();
        assert_eq!(drained, vec![2, 3, 4], "oldest-first, newest retained");
        assert!(ring.is_empty());
        assert_eq!(ring.overflow(), 2, "drain keeps the loss visible");
        ring.reset();
        assert_eq!(ring.overflow(), 0);
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut ring = EvidenceRing::new(8);
        ring.record(rec(0));
        ring.record(rec(1));
        assert_eq!(ring.overflow(), 0);
        assert_eq!(ring.drain().len(), 2);
        // Reusable after a drain.
        ring.record(rec(2));
        assert_eq!(ring.drain()[0].pc, 2);
    }

    #[test]
    fn zero_capacity_ring_drops_and_counts() {
        let mut ring = EvidenceRing::new(0);
        ring.record(rec(0));
        assert!(ring.is_empty());
        assert_eq!(ring.overflow(), 1);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn first_oob_byte_matches_the_wrapper_convention() {
        // Starts in bounds, runs past: the first bad byte is `bound`.
        assert_eq!(first_oob_byte(0x100c, 0x1000, 0x1010), 0x1010);
        // Starts below base: the pointer itself.
        assert_eq!(first_oob_byte(0xfff, 0x1000, 0x1010), 0xfff);
        // Starts at/after bound: the pointer itself.
        assert_eq!(first_oob_byte(0x1010, 0x1000, 0x1010), 0x1010);
        assert_eq!(first_oob_byte(0x2000, 0x1000, 0x1010), 0x2000);
        // NULL bounds (forged pointer): the pointer.
        assert_eq!(first_oob_byte(0x1234, 0, 0), 0x1234);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(ViolationPolicy::default(), ViolationPolicy::Strict);
        assert_eq!(ViolationPolicy::Strict.label(), "strict");
        assert_eq!(ViolationPolicy::Hardened.label(), "hardened");
        assert_eq!(ViolationPolicy::Monitor.label(), "monitor");
    }
}
