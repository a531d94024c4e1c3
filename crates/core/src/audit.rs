//! Runtime invariant auditing over the engine's structured event stream.
//!
//! The [`InvariantAuditor`] is an always-on, cheap observer the engine
//! feeds every [`SimEvent`] it emits. It checks the conservation laws
//! the simulation's credibility rests on — and that fault injection is
//! specifically designed to stress:
//!
//! * **Per-vCPU virtual time is monotonic** — a vCPU's events never go
//!   backwards in simulated time (each vCPU is pinned to one pCPU whose
//!   accounting frontier only advances).
//! * **Timer lifecycle** — a timer fires or is cancelled only while
//!   armed; a lost-IRQ fault may only drop an armed timer. Every
//!   programmed timer is therefore accounted for: it fires, is
//!   cancelled, or is explicitly lost to an injected fault.
//! * **vCPU run-state machine** — dispatch requires a runnable vCPU,
//!   preemption and idle entry require a running one, idle exit a
//!   halted one.
//! * **One vCPU per pCPU** — running spans never overlap on a pCPU,
//!   and a vCPU is preempted or idles only on the pCPU it occupies.
//! * **Injection context** — interrupt injection only happens into a
//!   running vCPU (injection rides a VM entry).
//! * **Cycle conservation** (at finalize) — every pCPU's ledger sums
//!   exactly to its accounting frontier: busy + idle + overhead equals
//!   wall time.
//!
//! Violations are *reported*, not panicked on: they land in the
//! [`AuditReport`] inside `RunMetrics`, rendered by `report::
//! audit_summary` and the `inspect` binary. A clean fault-free run must
//! produce zero violations; a faulted run must too — faults are modeled
//! events (`FaultInjected`), not accounting leaks.

use paratick_sim::SimTime;
use paratick_vmm::{FaultKind, PCpu, PcpuId, SimEvent, VcpuId};

/// Cap on individually-recorded violations; past it only the total
/// counter grows (a broken run would otherwise balloon the report).
const MAX_RECORDED: usize = 32;

/// One invariant violation, timestamped in simulated nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditViolation {
    pub at_ns: u64,
    /// Short invariant code, e.g. `timer-lifecycle`, `conservation`.
    pub invariant: String,
    pub detail: String,
}

/// The auditor's end-of-run verdict, embedded in `RunMetrics`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Events the auditor observed.
    pub events_checked: u64,
    /// All violations, including those past the recording cap.
    pub total_violations: u64,
    /// The first [`MAX_RECORDED`] violations, in event order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }
}

impl paratick_sim::ToJson for AuditViolation {
    fn to_json(&self) -> paratick_sim::Json {
        paratick_sim::Json::obj(vec![
            ("at_ns", self.at_ns.to_json()),
            ("invariant", self.invariant.to_json()),
            ("detail", self.detail.to_json()),
        ])
    }
}

impl paratick_sim::FromJson for AuditViolation {
    fn from_json(v: &paratick_sim::Json) -> Result<Self, paratick_sim::JsonError> {
        Ok(AuditViolation {
            at_ns: paratick_sim::json::field(v, "at_ns")?,
            invariant: paratick_sim::json::field(v, "invariant")?,
            detail: paratick_sim::json::field(v, "detail")?,
        })
    }
}

impl paratick_sim::ToJson for AuditReport {
    fn to_json(&self) -> paratick_sim::Json {
        paratick_sim::Json::obj(vec![
            ("events_checked", self.events_checked.to_json()),
            ("total_violations", self.total_violations.to_json()),
            ("violations", self.violations.to_json()),
        ])
    }
}

impl paratick_sim::FromJson for AuditReport {
    fn from_json(v: &paratick_sim::Json) -> Result<Self, paratick_sim::JsonError> {
        Ok(AuditReport {
            events_checked: paratick_sim::json::field(v, "events_checked")?,
            total_violations: paratick_sim::json::field(v, "total_violations")?,
            violations: paratick_sim::json::field(v, "violations")?,
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum RunState {
    #[default]
    Runnable,
    Running,
    Halted,
}

#[derive(Default)]
struct VcpuAudit {
    state: RunState,
    timer_armed: bool,
    last_event_ns: u64,
}

impl VcpuAudit {
    fn transition(
        &mut self,
        report: &mut AuditReport,
        t: SimTime,
        vcpu: VcpuId,
        expect: RunState,
        to: RunState,
        what: &str,
    ) {
        if self.state != expect {
            let state = self.state;
            report.violate(
                t,
                "vcpu-state",
                format!("{vcpu}: {what} while {state:?} (expected {expect:?})"),
            );
        }
        self.state = to;
    }

    fn expect_armed(&self, report: &mut AuditReport, t: SimTime, vcpu: VcpuId, what: &str) {
        if !self.timer_armed {
            report.violate(
                t,
                "timer-lifecycle",
                format!("{vcpu}: {what} unarmed timer"),
            );
        }
    }
}

impl AuditReport {
    fn violate(&mut self, t: SimTime, invariant: &'static str, detail: String) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(AuditViolation {
                at_ns: t.as_nanos(),
                invariant: invariant.to_string(),
                detail,
            });
        }
    }
}

/// The slot for id `i`, growing `v` with defaults on first sight of it.
fn slot<T: Default>(v: &mut Vec<T>, i: u32) -> &mut T {
    let i = i as usize;
    if i >= v.len() {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// `vcpu` leaves `pcpu`'s running span, which it must be occupying. On a
/// mismatch the recorded occupant stays: the stream never took it off.
fn leave(
    occupant: &mut Option<VcpuId>,
    report: &mut AuditReport,
    t: SimTime,
    vcpu: VcpuId,
    pcpu: PcpuId,
) {
    match *occupant {
        Some(v) if v == vcpu => *occupant = None,
        Some(other) => report.violate(
            t,
            "pcpu-exclusive",
            format!("{vcpu} left pcpu{} still running {other}", pcpu.0),
        ),
        None => report.violate(
            t,
            "pcpu-exclusive",
            format!("{vcpu} left pcpu{} while not running there", pcpu.0),
        ),
    }
}

/// Streaming invariant checker; see the module docs for the catalog.
///
/// State is dense-indexed: per-vCPU state by `[vm][vcpu]`, occupancy by
/// pCPU. Both grow the first time an id is seen, so any ids work without
/// up-front sizing.
#[derive(Default)]
pub struct InvariantAuditor {
    vcpus: Vec<Vec<VcpuAudit>>,
    /// Which vCPU occupies each pCPU's running span, if any.
    occupant: Vec<Option<VcpuId>>,
    report: AuditReport,
}

impl InvariantAuditor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one event. Call in emission order.
    pub fn on_event(&mut self, t: SimTime, ev: &SimEvent) {
        use RunState::{Halted, Runnable, Running};
        let report = &mut self.report;
        report.events_checked += 1;
        // Every checked invariant concerns a vCPU.
        let Some(vcpu) = ev.vcpu() else { return };
        let va = slot(slot(&mut self.vcpus, vcpu.vm), vcpu.vcpu);
        let now = t.as_nanos();
        if now < va.last_event_ns {
            let last = va.last_event_ns;
            report.violate(
                t,
                "time-monotonic",
                format!("{vcpu}: event at {now}ns after one at {last}ns"),
            );
        } else {
            va.last_event_ns = now;
        }
        match *ev {
            SimEvent::Dispatch { pcpu, .. } => {
                va.transition(report, t, vcpu, Runnable, Running, "dispatch");
                if let Some(prev) = slot(&mut self.occupant, pcpu.0).replace(vcpu) {
                    report.violate(
                        t,
                        "pcpu-exclusive",
                        format!("{vcpu} dispatched on pcpu{} still running {prev}", pcpu.0),
                    );
                }
            }
            SimEvent::Preempt { pcpu, .. } => {
                va.transition(report, t, vcpu, Running, Runnable, "preempt");
                leave(slot(&mut self.occupant, pcpu.0), report, t, vcpu, pcpu);
            }
            SimEvent::IdleEnter { pcpu, .. } => {
                va.transition(report, t, vcpu, Running, Halted, "idle enter");
                leave(slot(&mut self.occupant, pcpu.0), report, t, vcpu, pcpu);
            }
            SimEvent::IdleExit { .. } => {
                va.transition(report, t, vcpu, Halted, Runnable, "wake");
            }
            SimEvent::VmExit { .. } if va.state != Running => {
                report.violate(
                    t,
                    "exit-context",
                    format!("{vcpu}: VM exit while not running"),
                );
            }
            SimEvent::Inject { .. } if va.state != Running => {
                report.violate(
                    t,
                    "inject-context",
                    format!("{vcpu}: injection while not running"),
                );
            }
            // Re-programming over an armed timer is legal (replace).
            SimEvent::TimerProgram { .. } => va.timer_armed = true,
            SimEvent::TimerCancel { .. } => {
                va.expect_armed(report, t, vcpu, "cancel of");
                va.timer_armed = false;
            }
            SimEvent::TimerFire { .. } => {
                va.expect_armed(report, t, vcpu, "fire of");
                va.timer_armed = false;
            }
            SimEvent::FaultInjected { kind, .. } => match kind {
                FaultKind::LostTimerIrq => {
                    va.expect_armed(report, t, vcpu, "lost-IRQ fault on");
                    va.timer_armed = false;
                }
                FaultKind::CoalescedTimerIrq => {
                    va.expect_armed(report, t, vcpu, "coalesce fault on");
                }
                _ => {}
            },
            // Watchdog recovery re-delivers a timer that was already
            // accounted as lost; the remaining kinds carry no state.
            SimEvent::VmExit { .. }
            | SimEvent::Inject { .. }
            | SimEvent::WatchdogRecovery { .. }
            | SimEvent::TimerFallback { .. }
            | SimEvent::ParavirtFallback { .. }
            | SimEvent::HypercallFailed { .. }
            | SimEvent::Hypercall { .. }
            | SimEvent::HaltPoll { .. }
            | SimEvent::BootSwitch { .. }
            | SimEvent::HostTick { .. }
            | SimEvent::WorkloadDone { .. } => {}
        }
    }

    /// End-of-run checks (cycle conservation) and report extraction.
    /// The engine calls this after flushing all accounting.
    pub fn finalize(mut self, pcpus: &[PCpu], end: SimTime) -> AuditReport {
        for p in pcpus {
            let total = p.ledger().total().as_nanos();
            let frontier = p.frontier().as_nanos();
            if total != frontier {
                self.report.violate(
                    end,
                    "conservation",
                    format!(
                        "pcpu{}: ledger sums to {total}ns but frontier is {frontier}ns",
                        p.id.0
                    ),
                );
            }
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratick_sim::propcheck::prelude::*;
    use paratick_vmm::ExitReason;

    fn v(n: u32) -> VcpuId {
        VcpuId::new(0, n)
    }

    fn dispatch(a: &mut InvariantAuditor, t: u64, vcpu: u32, pcpu: u32) {
        a.on_event(
            SimTime::from_nanos(t),
            &SimEvent::Dispatch {
                vcpu: v(vcpu),
                pcpu: PcpuId(pcpu),
                run_queue: 0,
            },
        );
    }

    #[test]
    fn clean_lifecycle_has_no_violations() {
        let mut a = InvariantAuditor::new();
        dispatch(&mut a, 0, 0, 0);
        a.on_event(
            SimTime::from_nanos(10),
            &SimEvent::TimerProgram {
                vcpu: v(0),
                deadline: SimTime::from_micros(5),
            },
        );
        a.on_event(
            SimTime::from_nanos(20),
            &SimEvent::VmExit {
                vcpu: v(0),
                reason: ExitReason::MsrWriteTscDeadline,
                pollution_ns: 0,
            },
        );
        a.on_event(SimTime::from_micros(5), &SimEvent::TimerFire { vcpu: v(0) });
        a.on_event(
            SimTime::from_micros(6),
            &SimEvent::IdleEnter {
                vcpu: v(0),
                pcpu: PcpuId(0),
            },
        );
        a.on_event(
            SimTime::from_micros(9),
            &SimEvent::IdleExit {
                vcpu: v(0),
                pcpu: PcpuId(0),
                idle_ns: 3_000,
            },
        );
        let r = a.finalize(&[], SimTime::from_micros(10));
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.events_checked, 6);
    }

    #[test]
    fn fire_without_arm_is_caught() {
        let mut a = InvariantAuditor::new();
        a.on_event(SimTime::ZERO, &SimEvent::TimerFire { vcpu: v(0) });
        let r = a.finalize(&[], SimTime::ZERO);
        assert_eq!(r.total_violations, 1);
        assert_eq!(r.violations[0].invariant, "timer-lifecycle");
    }

    #[test]
    fn lost_fault_accounts_for_armed_timer() {
        let mut a = InvariantAuditor::new();
        a.on_event(
            SimTime::ZERO,
            &SimEvent::TimerProgram {
                vcpu: v(0),
                deadline: SimTime::from_micros(1),
            },
        );
        a.on_event(
            SimTime::from_nanos(500),
            &SimEvent::FaultInjected {
                kind: FaultKind::LostTimerIrq,
                vcpu: Some(v(0)),
            },
        );
        // The fire never happens; the loss accounted for the timer. A
        // subsequent cancel would now be a violation:
        a.on_event(
            SimTime::from_micros(2),
            &SimEvent::TimerCancel { vcpu: v(0) },
        );
        let r = a.finalize(&[], SimTime::from_micros(3));
        assert_eq!(r.total_violations, 1);
        assert_eq!(r.violations[0].invariant, "timer-lifecycle");
    }

    #[test]
    fn double_dispatch_on_pcpu_is_caught() {
        let mut a = InvariantAuditor::new();
        dispatch(&mut a, 0, 0, 0);
        dispatch(&mut a, 10, 1, 0);
        let r = a.finalize(&[], SimTime::from_nanos(20));
        assert!(r.violations.iter().any(|x| x.invariant == "pcpu-exclusive"));
    }

    #[test]
    fn leaving_a_pcpu_held_by_another_vcpu_is_caught() {
        for leave in [
            SimEvent::Preempt {
                vcpu: v(1),
                pcpu: PcpuId(0),
                run_queue: 0,
            },
            SimEvent::IdleEnter {
                vcpu: v(1),
                pcpu: PcpuId(0),
            },
        ] {
            let mut a = InvariantAuditor::new();
            dispatch(&mut a, 0, 0, 0);
            dispatch(&mut a, 0, 1, 1);
            a.on_event(SimTime::from_nanos(10), &leave);
            // vcpu0 still holds pcpu0, so its own preemption is clean.
            a.on_event(
                SimTime::from_nanos(20),
                &SimEvent::Preempt {
                    vcpu: v(0),
                    pcpu: PcpuId(0),
                    run_queue: 0,
                },
            );
            let r = a.finalize(&[], SimTime::from_nanos(30));
            assert_eq!(r.total_violations, 1, "{leave:?}: {:?}", r.violations);
            assert_eq!(r.violations[0].invariant, "pcpu-exclusive");
            assert_eq!(
                r.violations[0].detail,
                "vm0:vcpu1 left pcpu0 still running vm0:vcpu0"
            );
        }
    }

    #[test]
    fn leaving_an_empty_pcpu_is_caught() {
        let mut a = InvariantAuditor::new();
        dispatch(&mut a, 0, 0, 0);
        a.on_event(
            SimTime::from_nanos(10),
            &SimEvent::IdleEnter {
                vcpu: v(0),
                pcpu: PcpuId(5),
            },
        );
        let r = a.finalize(&[], SimTime::from_nanos(20));
        assert_eq!(r.total_violations, 1, "{:?}", r.violations);
        assert_eq!(
            r.violations[0].detail,
            "vm0:vcpu0 left pcpu5 while not running there"
        );
    }

    #[test]
    fn backwards_vcpu_time_is_caught() {
        let mut a = InvariantAuditor::new();
        dispatch(&mut a, 1_000, 0, 0);
        a.on_event(
            SimTime::from_nanos(500),
            &SimEvent::VmExit {
                vcpu: v(0),
                reason: ExitReason::Hlt,
                pollution_ns: 0,
            },
        );
        let r = a.finalize(&[], SimTime::from_micros(1));
        assert!(r.violations.iter().any(|x| x.invariant == "time-monotonic"));
    }

    #[test]
    fn conservation_gap_is_reported_not_panicked() {
        use paratick_sim::{Freq, SimDuration};
        use paratick_vmm::CycleCategory;
        let mut clean = PCpu::new(PcpuId(0), 0, Freq::ghz(2));
        clean.account(CycleCategory::Idle, SimDuration::from_micros(5));
        let r = InvariantAuditor::new().finalize(&[clean], SimTime::from_micros(5));
        assert!(r.is_clean());
        // A ledger/frontier mismatch cannot be built through the public
        // PCpu API (account* keeps them in lockstep) — which is the
        // invariant itself; the report stays clean here.
    }

    #[test]
    fn violations_capped_but_counted() {
        let mut a = InvariantAuditor::new();
        for i in 0..100 {
            a.on_event(SimTime::from_nanos(i), &SimEvent::TimerFire { vcpu: v(0) });
        }
        let r = a.finalize(&[], SimTime::from_micros(1));
        assert_eq!(r.total_violations, 100);
        assert_eq!(r.violations.len(), 32);
        assert!(!r.is_clean());
    }

    #[test]
    fn inject_outside_running_is_caught() {
        let mut a = InvariantAuditor::new();
        a.on_event(
            SimTime::ZERO,
            &SimEvent::Inject {
                vcpu: v(0),
                virtual_tick: true,
            },
        );
        let r = a.finalize(&[], SimTime::from_nanos(1));
        assert!(r.violations.iter().any(|x| x.invariant == "inject-context"));
    }

    /// Replace the number after each `vm`/`vcpu`/`pcpu` tag in a detail
    /// string with `#`, so reports over different labellings compare.
    fn mask_ids(detail: &str) -> String {
        let mut out = String::with_capacity(detail.len());
        let mut rest = detail;
        while let Some(c) = rest.chars().next() {
            if let Some(tag) = ["vcpu", "pcpu", "vm"]
                .into_iter()
                .find(|t| rest.starts_with(t))
            {
                out.push_str(tag);
                rest = &rest[tag.len()..];
                let digits =
                    rest.len() - rest.trim_start_matches(|d: char| d.is_ascii_digit()).len();
                if digits > 0 {
                    out.push('#');
                    rest = &rest[digits..];
                }
            } else {
                out.push(c);
                rest = &rest[c.len_utf8()..];
            }
        }
        out
    }

    #[test]
    fn mask_ids_hides_only_ids() {
        assert_eq!(
            mask_ids("vm7:vcpu63 dispatched on pcpu127 still running vm0:vcpu1"),
            "vm#:vcpu# dispatched on pcpu# still running vm#:vcpu#"
        );
        assert_eq!(
            mask_ids("vm1:vcpu2: event at 40ns after one at 52ns"),
            "vm#:vcpu#: event at 40ns after one at 52ns"
        );
    }

    /// One generated stream step: (event kind, vm, vcpu, pcpu, time step).
    type Step = (u8, usize, usize, usize, u64);

    /// Feed `steps` with dense indices mapped through the label tables.
    fn audit_stream(steps: &[Step], vms: &[u32], vcpus: &[u32], pcpus: &[u32]) -> AuditReport {
        let mut a = InvariantAuditor::new();
        let mut now = 0u64;
        for &(kind, vm, vcpu, pcpu, step) in steps {
            // Steps below 2 move time backwards.
            now = (now + step).saturating_sub(2);
            let vcpu = VcpuId::new(vms[vm], vcpus[vcpu]);
            let pcpu = PcpuId(pcpus[pcpu]);
            let ev = match kind {
                0 => SimEvent::Dispatch {
                    vcpu,
                    pcpu,
                    run_queue: 0,
                },
                1 => SimEvent::Preempt {
                    vcpu,
                    pcpu,
                    run_queue: 0,
                },
                2 => SimEvent::IdleEnter { vcpu, pcpu },
                3 => SimEvent::IdleExit {
                    vcpu,
                    pcpu,
                    idle_ns: 0,
                },
                4 => SimEvent::TimerProgram {
                    vcpu,
                    deadline: SimTime::from_nanos(now + 100),
                },
                5 => SimEvent::TimerFire { vcpu },
                6 => SimEvent::TimerCancel { vcpu },
                7 => SimEvent::Inject {
                    vcpu,
                    virtual_tick: false,
                },
                8 => SimEvent::FaultInjected {
                    kind: FaultKind::LostTimerIrq,
                    vcpu: Some(vcpu),
                },
                _ => SimEvent::VmExit {
                    vcpu,
                    reason: ExitReason::Hlt,
                    pollution_ns: 0,
                },
            };
            a.on_event(SimTime::from_nanos(now), &ev);
        }
        a.finalize(&[], SimTime::from_nanos(now))
    }

    propcheck! {
        /// Relabelling ids cannot change the verdict: a stream over
        /// sparse, large ids reports exactly what the same stream over
        /// dense ids from 0 does, up to the ids named in the details.
        /// Catches cross-talk between state slots and grow-on-demand
        /// bugs without a second auditor implementation.
        fn prop_verdict_is_invariant_under_relabelling(
            steps in collection::vec((0u8..10, 0usize..2, 0usize..3, 0usize..3, 0u64..12), 1..200)
        ) {
            let dense = audit_stream(&steps, &[0, 1], &[0, 1, 2], &[0, 1, 2]);
            let sparse = audit_stream(&steps, &[7, 2], &[63, 0, 17], &[127, 3, 64]);
            prop_assert_eq!(dense.events_checked, sparse.events_checked);
            prop_assert_eq!(dense.total_violations, sparse.total_violations);
            let masked = |r: &AuditReport| -> Vec<(u64, String, String)> {
                r.violations
                    .iter()
                    .map(|v| (v.at_ns, v.invariant.clone(), mask_ids(&v.detail)))
                    .collect()
            };
            prop_assert_eq!(masked(&dense), masked(&sparse));
        }
    }
}
