//! Configuration of the SoftBound transformation and runtime.

use crate::policy::ViolationPolicy;

/// Which dereferences are checked (§1, §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Check every load and store: complete spatial-violation detection
    /// (79% average overhead in the paper with the shadow space).
    #[default]
    Full,
    /// Check stores only; metadata is still fully propagated. Sufficient
    /// to stop essentially all security attacks (Table 3) at 32% average
    /// overhead.
    StoreOnly,
}

/// Which metadata organization backs the disjoint metadata space (§5.1).
///
/// The paper evaluates exactly two: a tag-less shadow space and a hash
/// table. (The HashMap-backed shadow simulation in
/// [`metadata`](crate::metadata) is a differential-testing oracle, not
/// an engine facility.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Facility {
    /// The tag-less shadow space as a two-level paged direct map; ~5
    /// instructions per access, O(1) host-side, no collisions by
    /// construction. The 256 MiB directory is the process-wide
    /// [`SharedShadowReservation`](crate::SharedShadowReservation),
    /// allocated once per process; each instance overlays it with
    /// copy-on-first-touch chunks, so a fleet pays it once.
    #[default]
    ShadowShared,
    /// Open-hashing table; ~9 instructions plus probes.
    HashTable,
}

/// Which interpreter lane an `Instance` drives.
///
/// Both lanes execute the same instrumented module with identical
/// observable behaviour — traps, output, dynamic counters, cycles,
/// final memory (pinned by `tests/machine_differential.rs`). The lane
/// only selects *how* the module is dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lane {
    /// Flat pre-decoded ops with pre-resolved operands and fused
    /// check+access superinstructions — the production lane. The
    /// lowering is cached on `Program`, so instances pay the decode
    /// cost once per compilation.
    #[default]
    Predecoded,
    /// The original tree-walk interpreter — the differential oracle,
    /// and the only lane available without a `Program` (instances built
    /// directly over a module).
    TreeWalk,
}

/// SoftBound configuration.
#[derive(Debug, Clone)]
pub struct SoftBoundConfig {
    /// Checking mode.
    pub mode: CheckMode,
    /// Metadata organization.
    pub facility: Facility,
    /// log2 of hash-table buckets (ignored for the shadow space).
    pub hash_log2_buckets: u32,
    /// Use the §5.2 type heuristic to skip metadata copies for memcpy
    /// calls whose operands cannot contain pointers.
    pub memcpy_heuristic: bool,
    /// Clear metadata of freed heap blocks whose static type suggests
    /// pointers (§5.2 "memory reuse and stale metadata").
    pub clear_on_free: bool,
    /// Clear metadata of pointer-bearing stack slots on function return
    /// (§5.2).
    pub clear_on_return: bool,
    /// Insert function-pointer checks at indirect calls (§5.2).
    pub check_fn_ptrs: bool,
    /// How the runtime responds to a failed check: trap (the paper's
    /// behaviour, the default), repair-and-continue, or observe-only.
    /// Non-Strict policies disable redundant-check elimination so every
    /// retained check guards exactly the access it precedes.
    pub policy: ViolationPolicy,
    /// Capacity (in records) of the per-instance evidence ring buffer,
    /// preallocated at instantiation. Ignored under
    /// [`ViolationPolicy::Strict`], which never records evidence.
    pub evidence_capacity: usize,
}

impl Default for SoftBoundConfig {
    fn default() -> Self {
        SoftBoundConfig {
            mode: CheckMode::Full,
            facility: Facility::ShadowShared,
            hash_log2_buckets: 20,
            memcpy_heuristic: true,
            clear_on_free: true,
            clear_on_return: true,
            check_fn_ptrs: true,
            policy: ViolationPolicy::Strict,
            evidence_capacity: 256,
        }
    }
}

impl SoftBoundConfig {
    /// Full checking over the shadow space (the paper's headline config).
    pub fn full_shadow() -> Self {
        Self::default()
    }

    /// Full checking over the hash table.
    pub fn full_hash() -> Self {
        SoftBoundConfig {
            facility: Facility::HashTable,
            ..Self::default()
        }
    }

    /// Store-only checking over the shadow space (the production config).
    pub fn store_only_shadow() -> Self {
        SoftBoundConfig {
            mode: CheckMode::StoreOnly,
            ..Self::default()
        }
    }

    /// Store-only checking over the hash table.
    pub fn store_only_hash() -> Self {
        SoftBoundConfig {
            mode: CheckMode::StoreOnly,
            facility: Facility::HashTable,
            ..Self::default()
        }
    }

    /// Full checking with the repair-and-continue
    /// [`Hardened`](ViolationPolicy::Hardened) policy.
    pub fn hardened() -> Self {
        SoftBoundConfig {
            policy: ViolationPolicy::Hardened,
            ..Self::default()
        }
    }

    /// Full checking with the observe-only
    /// [`Monitor`](ViolationPolicy::Monitor) policy.
    pub fn monitor() -> Self {
        SoftBoundConfig {
            policy: ViolationPolicy::Monitor,
            ..Self::default()
        }
    }

    /// A short label like `"ShadowSpace-Complete"`, matching Figure 2's
    /// legend. Non-Strict policies append their name
    /// (`"ShadowSpace-Complete-Hardened"`).
    pub fn label(&self) -> String {
        let fac = match self.facility {
            Facility::ShadowShared => "ShadowSpace",
            Facility::HashTable => "HashTable",
        };
        let mode = match self.mode {
            CheckMode::Full => "Complete",
            CheckMode::StoreOnly => "Stores",
        };
        match self.policy {
            ViolationPolicy::Strict => format!("{fac}-{mode}"),
            ViolationPolicy::Hardened => format!("{fac}-{mode}-Hardened"),
            ViolationPolicy::Monitor => format!("{fac}-{mode}-Monitor"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure2_legend() {
        assert_eq!(
            SoftBoundConfig::full_shadow().label(),
            "ShadowSpace-Complete"
        );
        assert_eq!(SoftBoundConfig::full_hash().label(), "HashTable-Complete");
        assert_eq!(
            SoftBoundConfig::store_only_shadow().label(),
            "ShadowSpace-Stores"
        );
        assert_eq!(
            SoftBoundConfig::store_only_hash().label(),
            "HashTable-Stores"
        );
    }

    #[test]
    fn default_is_full_paged_shadow() {
        let c = SoftBoundConfig::default();
        assert_eq!(c.mode, CheckMode::Full);
        assert_eq!(c.facility, Facility::ShadowShared);
        assert!(c.clear_on_free && c.clear_on_return && c.check_fn_ptrs);
        assert_eq!(c.policy, ViolationPolicy::Strict);
        assert_eq!(c.evidence_capacity, 256);
    }

    #[test]
    fn non_strict_policies_show_in_the_label() {
        assert_eq!(
            SoftBoundConfig::hardened().label(),
            "ShadowSpace-Complete-Hardened"
        );
        assert_eq!(
            SoftBoundConfig::monitor().label(),
            "ShadowSpace-Complete-Monitor"
        );
    }
}
