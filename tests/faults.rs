//! Fault-injection campaigns: the engine must survive deterministic
//! timer-path faults in every tick mode without panicking, degrade
//! through the documented ladder (TSC-deadline → LAPIC oneshot,
//! paratick → dynticks-idle), and keep the invariant auditor clean.

use paratick::prelude::*;
use paratick_suite::{idle_vms, tiny_parsec};
use paratick_vmm::CollectSink;

const MODES: [TickMode; 4] = [
    TickMode::Periodic,
    TickMode::DynticksIdle,
    TickMode::FullDynticks,
    TickMode::Paratick,
];

/// The issue's acceptance campaign: lost timer IRQs plus preemption
/// storms, seeded, over a real workload.
fn campaign() -> FaultConfig {
    FaultConfig::off()
        .with(FaultKind::LostTimerIrq, 2_000.0)
        .with(FaultKind::PreemptionStorm, 100.0)
}

/// Lost IRQs + preemption storms: every tick mode completes the
/// workload (no panic, no deadlock) and the auditor stays clean — the
/// watchdog re-delivery path keeps the timer lifecycle consistent.
#[test]
fn lost_irq_storm_campaign_survives_all_modes() {
    for mode in MODES {
        let s = tiny_parsec("swaptions", 2, mode, 42).faults(campaign());
        let m = Engine::run(s).unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert!(
            m.per_vm[0].finished_at.is_some(),
            "{mode}: workload did not finish under faults"
        );
        assert!(
            m.audit.is_clean(),
            "{mode}: audit violations under faults: {:?}",
            m.audit.violations
        );
        assert!(
            m.faults.total_injected() > 0,
            "{mode}: campaign injected nothing"
        );
    }
}

/// An idle periodic guest keeps a deadline armed at all times, so a
/// high lost-IRQ rate must drive the full degradation ladder: watchdog
/// re-deliveries first, then the LAPIC-oneshot fallback once a vCPU
/// crosses the fault threshold — all visible in the event stream.
#[test]
fn lost_irqs_demote_to_lapic_oneshot() {
    let s = idle_vms(1, 2, TickMode::Periodic, 2)
        .faults(FaultConfig::off().with(FaultKind::LostTimerIrq, 500.0));
    let mut e = Engine::new(s).unwrap();
    let (sink, events) = CollectSink::new();
    e.attach_sink(Box::new(sink));
    let m = e.run_to_completion().unwrap();

    assert!(m.audit.is_clean(), "{:?}", m.audit.violations);
    assert!(
        m.faults.injected[FaultKind::LostTimerIrq.index()] > 0,
        "no lost IRQs injected"
    );
    assert!(
        m.faults.watchdog_recoveries > 0,
        "watchdog never re-delivered a lost deadline: {:?}",
        m.faults
    );
    assert!(
        m.faults.oneshot_fallbacks > 0,
        "no vCPU fell back to the LAPIC oneshot backend: {:?}",
        m.faults
    );

    let events = events.borrow();
    let has = |k: EventKind| events.iter().any(|(_, ev)| ev.kind() == k);
    assert!(has(EventKind::FaultInjected), "FaultInjected not emitted");
    assert!(
        has(EventKind::WatchdogRecovery),
        "WatchdogRecovery not emitted"
    );
    assert!(has(EventKind::TimerFallback), "TimerFallback not emitted");

    // The demoted vCPU keeps ticking: LAPIC-oneshot programming shows
    // up as ApicTimerWrite exits.
    assert!(
        m.system.exits.get(ExitReason::ApicTimerWrite) > 0,
        "no LAPIC oneshot programming after the fallback"
    );
}

/// Transient hypercall failures within the retry budget: paratick
/// retries with backoff, eventually declares, and never degrades.
#[test]
fn hypercall_retry_recovers_within_budget() {
    // Defaults: first 2 attempts fail, 4 attempts allowed.
    let s = tiny_parsec("swaptions", 2, TickMode::Paratick, 7)
        .faults(FaultConfig::off().with(FaultKind::HypercallFail, 1.0));
    let m = Engine::run(s).unwrap();
    assert!(m.audit.is_clean(), "{:?}", m.audit.violations);
    assert!(m.faults.hypercall_retries > 0, "no retries: {:?}", m.faults);
    assert_eq!(
        m.faults.paravirt_fallbacks, 0,
        "degraded despite a sufficient retry budget"
    );
    // The declaration eventually lands: paratick still injects virtual
    // ticks instead of taking timer exits.
    assert!(m.system.virtual_ticks > 0, "paratick never engaged");
}

/// Hypercall failures past the retry budget: the guest falls back to
/// dynticks-idle and still completes (graceful, not wedged).
#[test]
fn hypercall_exhaustion_falls_back_to_dynticks() {
    let mut faults = FaultConfig::off().with(FaultKind::HypercallFail, 1.0);
    faults.hypercall_fail_first = 10; // beyond the 4-attempt budget
    let s = tiny_parsec("swaptions", 2, TickMode::Paratick, 7).faults(faults);
    let m = Engine::run(s).unwrap();
    assert!(m.audit.is_clean(), "{:?}", m.audit.violations);
    assert!(
        m.faults.paravirt_fallbacks > 0,
        "no dynticks fallback: {:?}",
        m.faults
    );
    assert!(m.per_vm[0].finished_at.is_some(), "fallback run wedged");
    assert_eq!(
        m.system.virtual_ticks, 0,
        "virtual ticks after a dynticks fallback"
    );
}

/// TSC drift, coalesced IRQs and exit-cost spikes: the soft fault
/// kinds perturb timing without breaking any invariant.
#[test]
fn soft_faults_stay_audit_clean() {
    for mode in MODES {
        let s = tiny_parsec("canneal", 2, mode, 11).faults(
            FaultConfig::off()
                .with(FaultKind::TscDrift, 500.0)
                .with(FaultKind::CoalescedTimerIrq, 500.0)
                .with(FaultKind::ExitCostSpike, 100.0),
        );
        let m = Engine::run(s).unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert!(
            m.per_vm[0].finished_at.is_some(),
            "{mode}: did not finish under soft faults"
        );
        assert!(
            m.audit.is_clean(),
            "{mode}: audit violations: {:?}",
            m.audit.violations
        );
    }
}

/// Fault-free baseline: the always-on auditor reports zero violations
/// and zero fault activity in every mode.
#[test]
fn fault_free_baselines_are_audit_clean() {
    for mode in MODES {
        let m = Engine::run(tiny_parsec("swaptions", 2, mode, 5)).unwrap();
        assert!(
            m.audit.is_clean(),
            "{mode}: clean run has violations: {:?}",
            m.audit.violations
        );
        assert!(m.audit.events_checked > 0, "{mode}: auditor saw nothing");
        assert_eq!(m.faults.total_injected(), 0);
        assert_eq!(m.faults.watchdog_recoveries, 0);
        assert_eq!(m.faults.oneshot_fallbacks, 0);
    }
}

/// Enabling a fault campaign must not perturb the fault-free stream:
/// the fault plan draws from its own forked rng, so a zero-rate config
/// is byte-identical to no config at all.
#[test]
fn zero_rate_faults_do_not_perturb_runs() {
    let plain = Engine::run(tiny_parsec("swaptions", 2, TickMode::Paratick, 9)).unwrap();
    let zeroed = Engine::run(
        tiny_parsec("swaptions", 2, TickMode::Paratick, 9).faults(FaultConfig::off()),
    )
    .unwrap();
    assert_eq!(plain.total_exits(), zeroed.total_exits());
    assert_eq!(plain.events_dispatched, zeroed.events_dispatched);
    assert_eq!(plain.execution_time(), zeroed.execution_time());
}

/// A zero-pCPU host is a configuration error, not a panic.
#[test]
fn zero_pcpu_host_is_a_config_error() {
    let s = Scenario::new(HostConfig::small(0)).vm(
        VmConfig::with_vcpus(1),
        paratick_workloads::VmWorkload::idle("x"),
    );
    match Engine::run(s) {
        Err(SimError::Config(msg)) => assert!(msg.contains("zero pCPUs"), "{msg}"),
        other => panic!("expected Config error, got {other:?}"),
    }
}

/// A NUMA wakeup penalty that cannot scale a latency is a configuration
/// error at assembly, not a panic at the first cross-socket wakeup.
#[test]
fn bad_numa_penalty_is_a_config_error() {
    for penalty in [-1.0, f64::NAN, f64::INFINITY] {
        let mut host = HostConfig::small(2);
        host.cost.numa_penalty = penalty;
        let s = Scenario::new(host).vm(
            VmConfig::with_vcpus(1),
            paratick_workloads::VmWorkload::idle("x"),
        );
        match Engine::run(s) {
            Err(SimError::Config(msg)) => assert!(msg.contains("NUMA"), "{msg}"),
            other => panic!("penalty {penalty}: expected Config error, got {other:?}"),
        }
    }
}
