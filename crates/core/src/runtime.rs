//! The SoftBound runtime: dereference checks, metadata propagation
//! helpers, and the §5.2 lifecycle behaviours (metadata clearing on free
//! and frame exit), implemented over a pluggable [`MetadataFacility`] and
//! exposed to the VM as [`RuntimeHooks`].
//!
//! The runtime is *generic* over its facility, so a machine built with a
//! concrete instantiation (`SoftBoundRuntime<ShadowPages>`) statically
//! dispatches — and typically inlines — every metadata access.

use crate::config::SoftBoundConfig;
use crate::metadata::{
    HashTableFacility, Meta, MetadataFacility, ShadowHashMapFacility, ShadowPages,
};
use crate::policy::{
    first_oob_byte, EvidenceRecord, EvidenceRing, PolicyAction, ViolationPolicy, EVIDENCE_CAPACITY,
};
use sb_ir::{AllocaInfo, RtFn};
use sb_vm::{out_of_bounds, RtCtx, RtVals, RuntimeHooks, Trap};

/// Cost of the bounds check itself (two compares + branch, §3.1).
pub const CHECK_COST: u64 = 3;

/// The SoftBound runtime, specialized on its metadata facility `F`.
pub struct SoftBoundRuntime<F: MetadataFacility> {
    facility: F,
    policy: ViolationPolicy,
    evidence: EvidenceRing,
    /// Violations would-have-fired (always 0 on safe programs).
    pub violation_count: u64,
}

impl SoftBoundRuntime<ShadowPages> {
    /// Runtime over the paged shadow space (the default facility): a
    /// private directory per instance, page frames recycled through a
    /// process-wide pool.
    pub fn new_paged(cfg: &SoftBoundConfig) -> Self {
        SoftBoundRuntime::with_facility(ShadowPages::new(), cfg)
    }
}

impl SoftBoundRuntime<ShadowHashMapFacility> {
    /// Runtime over the HashMap shadow oracle — the differential
    /// suites' reference; no engine facility builds it.
    pub fn new_shadow_hashmap(cfg: &SoftBoundConfig) -> Self {
        SoftBoundRuntime::with_facility(ShadowHashMapFacility::new(), cfg)
    }
}

impl SoftBoundRuntime<HashTableFacility> {
    /// Runtime over the open-hashing table (2^20 buckets).
    pub fn new_hash(cfg: &SoftBoundConfig) -> Self {
        SoftBoundRuntime::with_facility(HashTableFacility::default(), cfg)
    }
}

impl<F: MetadataFacility> SoftBoundRuntime<F> {
    /// Builds the runtime around an explicit facility instance. The
    /// evidence ring is preallocated here (at [`EVIDENCE_CAPACITY`]
    /// records), so recording on the warm path never allocates.
    pub fn with_facility(facility: F, cfg: &SoftBoundConfig) -> Self {
        SoftBoundRuntime {
            facility,
            policy: cfg.policy,
            evidence: EvidenceRing::new(if cfg.policy == ViolationPolicy::Strict {
                0
            } else {
                EVIDENCE_CAPACITY
            }),
            violation_count: 0,
        }
    }

    /// The installed facility (for facility-specific statistics).
    pub fn facility(&self) -> &F {
        &self.facility
    }

    /// The violation policy this runtime enforces.
    pub fn policy(&self) -> ViolationPolicy {
        self.policy
    }

    /// Evidence records currently held in the ring.
    pub fn evidence_len(&self) -> usize {
        self.evidence.len()
    }

    /// Evidence records lost to ring overflow since the last reset.
    pub fn evidence_overflow(&self) -> u64 {
        self.evidence.overflow()
    }

    /// Removes and returns all held evidence records, oldest first.
    pub fn drain_evidence(&mut self) -> Vec<EvidenceRecord> {
        self.evidence.drain()
    }

    /// Live metadata entries (memory-overhead statistics).
    pub fn live_entries(&self) -> usize {
        self.facility.live_entries()
    }

    /// Host memory the facility owns
    /// ([`MetadataFacility::reservation_bytes`]).
    pub fn reservation_bytes(&self) -> usize {
        self.facility.reservation_bytes()
    }

    /// Decides a violation an explicit check or a libc wrapper found: the
    /// one place the policy picks an action. Under Strict it returns
    /// `None` and the caller traps. Otherwise it counts the violation,
    /// records evidence of the `size`-byte access at `ptr` against
    /// `[base, bound)`, and returns the action taken: Hardened clamps
    /// (truncated write, zero-filled read), Monitor observes. Out of
    /// line: the safe-path check never reaches it.
    #[cold]
    fn absorb(
        &mut self,
        ptr: u64,
        size: u64,
        (base, bound): (u64, u64),
        write: bool,
        pc: u64,
    ) -> Option<PolicyAction> {
        let action = match self.policy {
            ViolationPolicy::Strict => return None,
            ViolationPolicy::Hardened if write => PolicyAction::ClampedWrite,
            ViolationPolicy::Hardened => PolicyAction::ZeroedRead,
            ViolationPolicy::Monitor => PolicyAction::Observed,
        };
        self.violation_count += 1;
        self.evidence.record(EvidenceRecord {
            pc,
            ptr,
            fault_addr: first_oob_byte(ptr, base, bound),
            size,
            base,
            bound,
            write,
            action,
        });
        Some(action)
    }

    #[inline]
    fn check(
        &mut self,
        ptr: u64,
        base: u64,
        bound: u64,
        size: u64,
        write: bool,
        ctx: &mut RtCtx,
    ) -> Result<(), Trap> {
        if base == 0 || out_of_bounds(ptr, size, base, bound).is_some() {
            let Some(action) = self.absorb(ptr, size, (base, bound), write, ctx.pc) else {
                // Strict counts a trapping check; a trapping wrapper
                // (`check_builtin_range`) stays uncounted.
                self.violation_count += 1;
                return Err(Trap::SpatialViolation {
                    scheme: "softbound",
                    addr: ptr,
                    write,
                });
            };
            if action != PolicyAction::Observed {
                // The machine clamps the guarded access to these bounds.
                ctx.repair = Some((base, bound));
            }
        }
        Ok(())
    }
}

impl<F: MetadataFacility> RuntimeHooks for SoftBoundRuntime<F> {
    #[inline]
    fn rt_call(&mut self, rt: RtFn, args: &[i64], ctx: &mut RtCtx) -> Result<RtVals, Trap> {
        match rt {
            RtFn::SbCheck { is_store } => {
                ctx.cost += CHECK_COST;
                self.check(
                    args[0] as u64,
                    args[1] as u64,
                    args[2] as u64,
                    args[3] as u64,
                    is_store,
                    ctx,
                )?;
                Ok([0, 0])
            }
            RtFn::SbMetaLoad => {
                let m = self.facility.load(args[0] as u64, ctx);
                Ok([m.base as i64, m.bound as i64])
            }
            RtFn::SbMetaStore => {
                let m = Meta {
                    base: args[1] as u64,
                    bound: args[2] as u64,
                };
                self.facility.store(args[0] as u64, m, ctx);
                Ok([0, 0])
            }
            RtFn::SbFnCheck => {
                ctx.cost += CHECK_COST;
                let (ptr, base, bound) = (args[0] as u64, args[1] as u64, args[2] as u64);
                // Function pointers are encoded base == bound == ptr (§5.2):
                // a zero-sized "object" no data pointer can carry. This
                // check traps under *every* policy: there is no meaningful
                // "clamped" control transfer, and continuing past a failed
                // fn-ptr check would turn a detected hijack into UB.
                if ptr != 0 && base == ptr && bound == ptr {
                    Ok([0, 0])
                } else {
                    self.violation_count += 1;
                    Err(Trap::SpatialViolation {
                        scheme: "softbound",
                        addr: ptr,
                        write: false,
                    })
                }
            }
            other => panic!("softbound runtime received foreign rt call {other:?}"),
        }
    }

    fn on_free(&mut self, addr: u64, size: u64, ptr_hint: bool, ctx: &mut RtCtx) {
        // §5.2 "memory reuse and stale metadata": clear metadata for freed
        // blocks whose static type suggests they held pointers.
        if ptr_hint {
            self.facility.clear_range(addr, size, ctx);
        }
    }

    /// The same §5.2 clear for a dead frame, on a return or a `longjmp`
    /// unwind: a later frame reusing the stack sees NULL bounds in every
    /// stack slot that held a pointer.
    fn on_frame_exit(&mut self, allocas: &[(u64, &AllocaInfo)], ctx: &mut RtCtx) {
        for &(addr, info) in allocas {
            if info.holds_ptrs {
                self.facility.clear_range(addr, info.size, ctx);
            }
        }
    }

    /// §5.2 `memcpy` handling: the metadata of every pointer slot in the
    /// copied bytes moves with them.
    fn on_memcpy(&mut self, dst: u64, src: u64, len: u64, ctx: &mut RtCtx) {
        self.facility.copy_range(dst, src, len, ctx);
    }

    /// The §5.2 libc-wrapper check of one buffer, before the builtin
    /// touches it. Out of bounds, Strict traps `"softbound-wrapper"` at
    /// the first out-of-bounds byte without touching the violation
    /// counter (the differential suites pin that counter to the explicit
    /// checks). Hardened and Monitor count the violation and record
    /// evidence with the whole buffer as the access size; Hardened then
    /// lets the builtin touch only the in-bounds prefix (none when the
    /// buffer starts outside), Monitor all of it.
    fn check_builtin_range(
        &mut self,
        ptr: u64,
        len: u64,
        write: bool,
        bounds: Option<(u64, u64)>,
        ctx: &mut RtCtx,
    ) -> Result<u64, Trap> {
        let Some((base, bound)) = bounds else {
            return Ok(len);
        };
        let Some(fault) = out_of_bounds(ptr, len, base, bound) else {
            return Ok(len);
        };
        match self.absorb(ptr, len, (base, bound), write, ctx.pc) {
            None => Err(Trap::SpatialViolation {
                scheme: "softbound-wrapper",
                addr: fault,
                write,
            }),
            Some(PolicyAction::Observed) => Ok(len),
            Some(_) => Ok(fault - ptr),
        }
    }

    /// Clears all metadata and counters while keeping the facility's
    /// expensive allocations (shadow directory chunks, hash buckets)
    /// alive — what lets an [`Instance`](crate::Instance) serve
    /// back-to-back runs without rebuilding its facility. The paged
    /// shadow returns its page frames to the process-wide pool.
    fn reset(&mut self) {
        self.facility.reset();
        self.violation_count = 0;
        self.evidence.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paged() -> SoftBoundRuntime<ShadowPages> {
        SoftBoundRuntime::new_paged(&SoftBoundConfig::default())
    }

    fn call<F: MetadataFacility>(
        rt: &mut SoftBoundRuntime<F>,
        f: RtFn,
        args: &[i64],
    ) -> Result<RtVals, Trap> {
        let mut ctx = RtCtx::default();
        rt.rt_call(f, args, &mut ctx)
    }

    #[test]
    fn in_bounds_check_passes() {
        let mut rt = paged();
        assert!(call(
            &mut rt,
            RtFn::SbCheck { is_store: false },
            &[0x1000, 0x1000, 0x1040, 8]
        )
        .is_ok());
        assert!(call(
            &mut rt,
            RtFn::SbCheck { is_store: true },
            &[0x1038, 0x1000, 0x1040, 8]
        )
        .is_ok());
    }

    #[test]
    fn out_of_bounds_check_aborts() {
        let mut rt = paged();
        // One byte past the end.
        let e = call(
            &mut rt,
            RtFn::SbCheck { is_store: true },
            &[0x1039, 0x1000, 0x1040, 8],
        );
        assert!(matches!(
            e,
            Err(Trap::SpatialViolation {
                scheme: "softbound",
                ..
            })
        ));
        // Below base.
        assert!(call(
            &mut rt,
            RtFn::SbCheck { is_store: false },
            &[0xfff, 0x1000, 0x1040, 1]
        )
        .is_err());
        // NULL bounds (int-to-pointer cast, §5.2).
        assert!(call(
            &mut rt,
            RtFn::SbCheck { is_store: false },
            &[0x1000, 0, 0, 1]
        )
        .is_err());
        assert_eq!(rt.violation_count, 3);
    }

    #[test]
    fn check_rejects_wraparound_past_zero() {
        // Regression: `ptr.wrapping_add(size) > bound` wraps past zero
        // for u64::MAX-adjacent pointers and used to pass the check.
        let mut rt = paged();
        // ptr near u64::MAX with a size that wraps the sum to a tiny
        // value below any plausible bound.
        assert!(call(
            &mut rt,
            RtFn::SbCheck { is_store: true },
            &[u64::MAX.wrapping_sub(4) as i64, 0x1000, 0x1040, 8]
        )
        .is_err());
        // ptr exactly u64::MAX.
        assert!(call(
            &mut rt,
            RtFn::SbCheck { is_store: false },
            &[u64::MAX as i64, 0x1000, 0x1040, 1]
        )
        .is_err());
        // Huge size on a legitimate pointer: base <= ptr but ptr + size
        // wraps to below bound.
        assert!(call(
            &mut rt,
            RtFn::SbCheck { is_store: true },
            &[0x1000, 0x1000, 0x1040, u64::MAX as i64]
        )
        .is_err());
        assert_eq!(rt.violation_count, 3);
        // A maximal object reaching the top of the address space still
        // accepts its last byte (no false positive from the fix).
        let top = u64::MAX;
        assert!(call(
            &mut rt,
            RtFn::SbCheck { is_store: false },
            &[(top - 8) as i64, (top - 64) as i64, top as i64, 8]
        )
        .is_ok());
    }

    #[test]
    fn access_size_matters() {
        // The paper's example: char* cast to int* at the last byte.
        let mut rt = paged();
        assert!(call(
            &mut rt,
            RtFn::SbCheck { is_store: false },
            &[0x103f, 0x1000, 0x1040, 1]
        )
        .is_ok());
        assert!(call(
            &mut rt,
            RtFn::SbCheck { is_store: false },
            &[0x103f, 0x1000, 0x1040, 4]
        )
        .is_err());
    }

    #[test]
    fn metadata_roundtrip_through_rt() {
        fn roundtrip<F: MetadataFacility>(mut rt: SoftBoundRuntime<F>) {
            call(&mut rt, RtFn::SbMetaStore, &[0x7000, 0x5000, 0x5100]).expect("store ok");
            let v = call(&mut rt, RtFn::SbMetaLoad, &[0x7000]).expect("load ok");
            assert_eq!(v, [0x5000, 0x5100]);
            let missing = call(&mut rt, RtFn::SbMetaLoad, &[0x7008]).expect("load ok");
            assert_eq!(missing, [0, 0], "unknown slots have NULL bounds");
        }
        let cfg = SoftBoundConfig::default();
        roundtrip(SoftBoundRuntime::new_paged(&cfg));
        roundtrip(SoftBoundRuntime::new_shadow_hashmap(&cfg));
        roundtrip(SoftBoundRuntime::new_hash(&cfg));
    }

    #[test]
    fn fn_check_accepts_only_zero_sized_encoding() {
        let mut rt = paged();
        let f = 0x4000_0000_0000i64;
        assert!(call(&mut rt, RtFn::SbFnCheck, &[f, f, f]).is_ok());
        // Data pointer flowing into an indirect call: bound != ptr.
        assert!(call(&mut rt, RtFn::SbFnCheck, &[0x1000, 0x1000, 0x1040]).is_err());
        // Forged integer: NULL bounds.
        assert!(call(&mut rt, RtFn::SbFnCheck, &[f, 0, 0]).is_err());
    }

    #[test]
    fn free_clears_metadata_with_hint() {
        let mut rt = paged();
        call(&mut rt, RtFn::SbMetaStore, &[0x9000, 1, 2]).expect("store");
        call(&mut rt, RtFn::SbMetaStore, &[0x9008, 3, 4]).expect("store");
        let mut ctx = RtCtx::default();
        rt.on_free(0x9000, 16, true, &mut ctx);
        assert_eq!(rt.live_entries(), 0);
        // Without the hint, metadata stays (heuristic skips scalar blocks).
        call(&mut rt, RtFn::SbMetaStore, &[0x9000, 1, 2]).expect("store");
        rt.on_free(0x9000, 16, false, &mut ctx);
        assert_eq!(rt.live_entries(), 1);
    }

    #[test]
    fn frame_exit_clears_only_the_allocas_that_hold_pointers() {
        let mut rt = paged();
        for addr in [0x9000, 0x9008, 0x9010, 0x9018] {
            call(&mut rt, RtFn::SbMetaStore, &[addr, 1, 2]).expect("store");
        }
        let alloca = |holds_ptrs| AllocaInfo {
            name: String::new(),
            size: 16,
            align: 8,
            holds_ptrs,
        };
        let (ptrs, bytes) = (alloca(true), alloca(false));
        rt.on_frame_exit(&[(0x9000, &ptrs), (0x9010, &bytes)], &mut RtCtx::default());
        let meta = |rt: &mut SoftBoundRuntime<ShadowPages>, addr| {
            call(rt, RtFn::SbMetaLoad, &[addr]).expect("load")
        };
        assert_eq!(meta(&mut rt, 0x9000), [0, 0]);
        assert_eq!(meta(&mut rt, 0x9008), [0, 0]);
        assert_eq!(meta(&mut rt, 0x9010), [1, 2]);
        assert_eq!(meta(&mut rt, 0x9018), [1, 2]);
    }

    #[test]
    fn hardened_check_absorbs_orders_repair_and_records_evidence() {
        let mut rt = SoftBoundRuntime::new_paged(&SoftBoundConfig::hardened());
        let mut ctx = RtCtx {
            pc: 42,
            ..RtCtx::default()
        };
        // An 8-byte store straddling the bound: absorbed, repair ordered.
        assert!(rt
            .rt_call(
                RtFn::SbCheck { is_store: true },
                &[0x1039, 0x1000, 0x1040, 8],
                &mut ctx
            )
            .is_ok());
        assert_eq!(ctx.repair, Some((0x1000, 0x1040)));
        assert_eq!(rt.violation_count, 1);
        let ev = rt.drain_evidence();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].pc, 42);
        assert_eq!(ev[0].ptr, 0x1039);
        assert_eq!(ev[0].fault_addr, 0x1040, "starts in bounds: fault at bound");
        assert_eq!(ev[0].size, 8);
        assert_eq!((ev[0].base, ev[0].bound), (0x1000, 0x1040));
        assert!(ev[0].write);
        assert_eq!(ev[0].action, PolicyAction::ClampedWrite);
        // A safe check afterwards: no repair, no evidence.
        ctx.repair = None;
        assert!(rt
            .rt_call(
                RtFn::SbCheck { is_store: false },
                &[0x1000, 0x1000, 0x1040, 8],
                &mut ctx
            )
            .is_ok());
        assert_eq!(ctx.repair, None);
        assert_eq!(rt.evidence_len(), 0);
    }

    #[test]
    fn monitor_check_observes_without_repair() {
        let mut rt = SoftBoundRuntime::new_paged(&SoftBoundConfig::monitor());
        let mut ctx = RtCtx::default();
        // Below-base load: absorbed, no repair (access proceeds as-is).
        assert!(rt
            .rt_call(
                RtFn::SbCheck { is_store: false },
                &[0xfff, 0x1000, 0x1040, 1],
                &mut ctx
            )
            .is_ok());
        assert_eq!(ctx.repair, None);
        let ev = rt.drain_evidence();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].fault_addr, 0xfff, "starts below base: fault at ptr");
        assert_eq!(ev[0].action, PolicyAction::Observed);
        assert!(!ev[0].write);
    }

    #[test]
    fn fn_checks_trap_under_every_policy() {
        for cfg in [SoftBoundConfig::hardened(), SoftBoundConfig::monitor()] {
            let mut rt = SoftBoundRuntime::new_paged(&cfg);
            let mut ctx = RtCtx::default();
            assert!(rt
                .rt_call(RtFn::SbFnCheck, &[0x1000, 0x1000, 0x1040], &mut ctx)
                .is_err());
            assert_eq!(ctx.repair, None);
        }
    }

    #[test]
    fn builtin_violation_disposition_follows_policy() {
        // A 0x20-byte write at 0x1030 into [0x1000, 0x1040).
        let check = |rt: &mut SoftBoundRuntime<ShadowPages>| {
            let mut ctx = RtCtx {
                pc: 7,
                ..RtCtx::default()
            };
            rt.check_builtin_range(0x1030, 0x20, true, Some((0x1000, 0x1040)), &mut ctx)
        };
        let mut strict = SoftBoundRuntime::new_paged(&SoftBoundConfig::default());
        assert_eq!(
            check(&mut strict),
            Err(Trap::SpatialViolation {
                scheme: "softbound-wrapper",
                addr: 0x1040,
                write: true
            })
        );
        assert_eq!(
            strict.violation_count, 0,
            "Strict wrapper counters unchanged"
        );

        let mut hardened = SoftBoundRuntime::new_paged(&SoftBoundConfig::hardened());
        assert_eq!(check(&mut hardened), Ok(0x10), "in-bounds prefix");
        let ev = hardened.drain_evidence();
        assert_eq!(ev[0].fault_addr, 0x1040, "in-bounds start clamps at bound");
        assert_eq!(ev[0].size, 0x20);
        assert_eq!(ev[0].pc, 7);
        assert_eq!(ev[0].action, PolicyAction::ClampedWrite);
        assert_eq!(hardened.violation_count, 1);

        let mut monitor = SoftBoundRuntime::new_paged(&SoftBoundConfig::monitor());
        assert_eq!(check(&mut monitor), Ok(0x20), "the whole buffer");
        assert_eq!(monitor.drain_evidence()[0].action, PolicyAction::Observed);
    }

    #[test]
    fn reset_clears_the_evidence_ring() {
        let mut rt = SoftBoundRuntime::new_paged(&SoftBoundConfig::hardened());
        let mut ctx = RtCtx::default();
        rt.rt_call(
            RtFn::SbCheck { is_store: true },
            &[0x2000, 0, 0, 1],
            &mut ctx,
        )
        .expect("hardened absorbs");
        assert_eq!(rt.evidence_len(), 1);
        rt.reset();
        assert_eq!(rt.evidence_len(), 0);
        assert_eq!(rt.evidence_overflow(), 0);
        assert_eq!(rt.violation_count, 0);
    }

    #[test]
    fn memcpy_meta_copies() {
        let mut rt = SoftBoundRuntime::new_hash(&SoftBoundConfig::default());
        call(&mut rt, RtFn::SbMetaStore, &[0x2000, 0x10, 0x20]).expect("store");
        rt.on_memcpy(0x3000, 0x2000, 8, &mut RtCtx::default());
        assert_eq!(
            call(&mut rt, RtFn::SbMetaLoad, &[0x3000]).expect("load"),
            [0x10, 0x20]
        );
    }
}
