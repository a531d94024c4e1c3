//! Digests of simulated outcomes, and the pinned values they must
//! match.
//!
//! A run's digest covers what the simulation decided — the simulated
//! end time, the per-VM and system ledgers, the fault counters and the
//! audit verdict — and nothing the host clock or the engine's own
//! diagnostics contribute (`events_dispatched`, `profile`, the
//! auditor's event count). A performance change must leave every digest
//! unchanged; a change that alters results bumps
//! `paratick::cache::ENGINE_VERSION`, and the pins below are keyed by
//! that version, so the stale pins stop matching.

use paratick::RunMetrics;
use paratick_sim::{StableHasher, ToJson};

/// Pinned pass digests: `<engine version> <workload set> <variant>
/// <digest>` per line. Regenerate with `paratick-perfbench pin`.
const PINS: &str = include_str!("../pins.txt");

/// Digest of one run's simulated outcome (16 hex digits).
pub fn run_digest(m: &RunMetrics) -> String {
    let mut h = StableHasher::new();
    h.write_u64(m.duration.as_nanos());
    h.write_str(&m.per_vm.to_json().to_string_compact());
    h.write_str(&m.system.to_json().to_string_compact());
    h.write_str(&m.faults.to_json().to_string_compact());
    h.write_u64(m.audit.total_violations);
    h.write_str(&m.audit.violations.to_json().to_string_compact());
    h.finish_hex()[..16].to_string()
}

/// Digest of a whole pass: the run digests in canonical order.
pub fn pass_digest(run_digests: &[String]) -> String {
    let mut h = StableHasher::new();
    h.write_len(run_digests.len());
    for d in run_digests {
        h.write_str(d);
    }
    h.finish_hex()[..16].to_string()
}

/// The pinned pass digest for `set` (`grid` or `table1`) and input
/// variant under the current engine version, if one is pinned.
pub fn pinned(set: &str, variant: u64) -> Option<&'static str> {
    let version = paratick::cache::ENGINE_VERSION;
    PINS.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [v, s, var, d] if *v == version && *s == set && var.parse() == Ok(variant) => Some(*d),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratick::prelude::*;
    use paratick_vmm::ExitReason;

    fn tiny_run() -> RunMetrics {
        let profile = paratick_workloads::parsec::profile("swaptions").unwrap();
        let s = Scenario::new(HostConfig::small(2))
            .vm(
                VmConfig::with_vcpus(1).mode(TickMode::DynticksIdle),
                paratick_workloads::parsec::workload(profile, 1, 0.01),
            )
            .seed(7);
        Engine::run(s).unwrap()
    }

    #[test]
    fn digest_ignores_wall_and_profile_fields() {
        let m = tiny_run();
        let d = run_digest(&m);
        let mut n = m.clone();
        n.profile.wall_nanos += 12_345;
        n.profile.wall_timed_kinds = !n.profile.wall_timed_kinds;
        n.profile.queue_depth_high_water += 1;
        for k in &mut n.profile.per_kind {
            k.count += 1;
            k.wall_nanos += 99;
        }
        n.events_dispatched += 1000;
        n.audit.events_checked += 1;
        assert_eq!(run_digest(&n), d);
    }

    #[test]
    fn digest_changes_when_any_exit_count_changes() {
        let m = tiny_run();
        let d = run_digest(&m);
        for reason in ExitReason::ALL {
            let mut n = m.clone();
            n.system.exits.record(reason);
            assert_ne!(run_digest(&n), d, "system {reason}");
            let mut n = m.clone();
            n.per_vm[0].exits.record(reason);
            assert_ne!(run_digest(&n), d, "per-vm {reason}");
        }
        let mut n = m.clone();
        n.audit.total_violations += 1;
        assert_ne!(run_digest(&n), d, "audit verdict");
    }

    #[test]
    fn pass_digest_is_order_sensitive() {
        let a = vec!["aa".to_string(), "bb".to_string()];
        let b = vec!["bb".to_string(), "aa".to_string()];
        assert_ne!(pass_digest(&a), pass_digest(&b));
        assert_eq!(pass_digest(&a), pass_digest(&a.clone()));
    }
}
