//! Configuration of the SoftBound transformation and runtime: the two
//! axes the paper's evaluation varies — checking mode (§6.3) and
//! metadata organization (§5.1) — plus the violation policy.
//!
//! The §5.2 mechanisms are part of the scheme, not switches: the memcpy
//! type heuristic, metadata clearing on `free` and on frame exit (return
//! or `longjmp`), and function-pointer checks are always on.

use crate::policy::ViolationPolicy;
use sb_ir::OptLevel;

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
    /// The tag-less shadow space as a two-level paged direct map
    /// ([`ShadowPages`](crate::ShadowPages)); ~5 instructions per
    /// access, O(1) host-side, no collisions by construction. Each
    /// instance owns its directory; the instances of a process share
    /// only a bounded pool of scrubbed page frames.
    #[default]
    ShadowShared,
    /// Open-hashing table with 2^20 buckets; ~9 instructions plus
    /// probes.
    HashTable,
}

/// SoftBound configuration: the options a caller varies.
#[derive(Debug, Clone, Default)]
pub struct SoftBoundConfig {
    /// Checking mode.
    pub mode: CheckMode,
    /// Metadata organization.
    pub facility: Facility,
    /// How the runtime responds to a failed check: trap (the paper's
    /// behaviour, the default), repair-and-continue, or observe-only.
    /// Non-Strict policies disable redundant-check elimination so every
    /// retained check guards exactly the access it precedes.
    pub policy: ViolationPolicy,
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

    /// The post-instrument optimizer level this configuration compiles
    /// with. Strict keeps the paper pipeline (redundant-check
    /// elimination); the repair and observe policies retain every check,
    /// so a clamp applies to exactly the access its own check guards.
    pub fn post_instrument_level(&self) -> OptLevel {
        if self.policy == ViolationPolicy::Strict {
            OptLevel::PostInstrument
        } else {
            OptLevel::PostInstrumentAllChecks
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
        assert_eq!(c.policy, ViolationPolicy::Strict);
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
