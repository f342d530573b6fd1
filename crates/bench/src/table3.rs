//! Table 3: the Wilander attack suite versus SoftBound's two checking
//! modes. An attack counts as *detected* when the run aborts with a
//! spatial violation before control is diverted; it counts as *succeeded*
//! when the attacker payload gains control (hijacked return/frame/jmp_buf
//! or a corrupted function pointer being called).

use sb_baselines::Scheme;
use sb_vm::Outcome;
use sb_workloads::attacks::{self, Attack};
use softbound::{Engine, SoftBoundConfig};

/// One Table 3 row.
#[derive(Debug, Clone)]
pub struct Row {
    /// The attack.
    pub attack: Attack,
    /// Did the attack take control on the unprotected machine?
    pub succeeded_unprotected: bool,
    /// Detected with full checking?
    pub detected_full: bool,
    /// Detected with store-only checking?
    pub detected_store_only: bool,
}

fn attack_succeeded(outcome: &Outcome) -> bool {
    matches!(
        outcome,
        Outcome::Hijacked { .. } | Outcome::Exited { code: 66 }
    )
}

/// Runs all 18 attacks under {unprotected, full, store-only}.
pub fn run() -> Vec<Row> {
    let full = Engine::new().softbound_config(SoftBoundConfig::full_shadow());
    let store = Engine::new().softbound_config(SoftBoundConfig::store_only_shadow());
    attacks::all()
        .into_iter()
        .map(|attack| {
            let plain = Scheme::Uninstrumented
                .run(attack.source, "main", &[])
                .expect("compiles");
            let f = full.run_once(attack.source, "main", &[]).expect("compiles");
            let s = store
                .run_once(attack.source, "main", &[])
                .expect("compiles");
            Row {
                attack,
                succeeded_unprotected: attack_succeeded(&plain.outcome),
                detected_full: f.outcome.is_spatial_violation(),
                detected_store_only: s.outcome.is_spatial_violation(),
            }
        })
        .collect()
}

/// Renders Table 3.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 3: Wilander attack suite — SoftBound detection\n\n");
    out.push_str(&format!(
        "{:<44}{:>6}{:>7}\n",
        "Attack and target", "Full", "Store"
    ));
    let mut group = "";
    for r in rows {
        let g = match (r.attack.technique, r.attack.location) {
            (attacks::Technique::Direct, attacks::Location::Stack) => {
                "Buffer overflow on stack all the way to the target"
            }
            (attacks::Technique::Direct, attacks::Location::HeapBssData) => {
                "Buffer overflow on heap/BSS/data all the way to the target"
            }
            (attacks::Technique::PointerRedirect, attacks::Location::Stack) => {
                "Buffer overflow of a pointer on stack, then pointing to target"
            }
            (attacks::Technique::PointerRedirect, attacks::Location::HeapBssData) => {
                "Buffer overflow of pointer on heap/BSS, then pointing to target"
            }
        };
        if g != group {
            out.push_str(&format!("\n{g}\n"));
            group = g;
        }
        out.push_str(&format!(
            "  {:<42}{:>6}{:>7}\n",
            r.attack.target.label(),
            if r.detected_full { "yes" } else { "NO" },
            if r.detected_store_only { "yes" } else { "NO" },
        ));
    }
    let all_work = rows.iter().all(|r| r.succeeded_unprotected);
    out.push_str(&format!(
        "\n(all {} attacks take control when unprotected: {})\n",
        rows.len(),
        if all_work {
            "confirmed"
        } else {
            "NOT CONFIRMED"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper() {
        let rows = run();
        assert_eq!(rows.len(), 18);
        for r in &rows {
            assert!(r.succeeded_unprotected, "attack {} is inert", r.attack.id);
            assert!(
                r.detected_full,
                "attack {} missed by full checking",
                r.attack.id
            );
            assert!(
                r.detected_store_only,
                "attack {} missed by store-only",
                r.attack.id
            );
        }
    }
}
