//! The full-system discrete-event engine.
//!
//! This is the "machine" the experiments run on: it wires the timer
//! hardware, the KVM-like hypervisor and the guest kernels together and
//! advances them with a single event queue. The design follows the
//! event-scheduling worldview:
//!
//! * Every physical CPU has a local **accounting frontier** (its own
//!   clock). All costs — exit handling, interrupt handlers, wakeups —
//!   advance the frontier and are attributed to a cycle category, so the
//!   ledger conserves time exactly.
//! * A running vCPU has one scheduled *stop event* (segment end).
//!   Anything that perturbs the run (host tick, timer expiry, I/O
//!   completion) interrupts the guest mid-segment: the partial span is
//!   accounted, the stale stop event is invalidated by a generation
//!   counter, the perturbation is handled (with its VM-exit costs), and
//!   the segment resumes.
//! * Every **VM entry** runs the host-side paratick hook (Figure 2 of
//!   the paper) and then drains pending LAPIC vectors through the
//!   guest's interrupt handlers — which is precisely where the three
//!   tick strategies diverge and where their `TSC_DEADLINE` writes turn
//!   into VM exits.
//!
//! The engine is deterministic: same scenario + same seed ⇒ identical
//! metrics, bit for bit. That extends to fault injection: the fault
//! plan draws from its own rng stream (forked from the seed with a
//! fixed salt), so a fault campaign replays exactly and enabling it
//! does not perturb the fault-free stream.
//!
//! Failures surface as values, not panics: `Engine::run` returns
//! `Result<RunMetrics, SimError>`, and an always-on [`crate::audit::
//! InvariantAuditor`] watches the structured event stream for broken
//! conservation laws, reporting them in the metrics.

use crate::audit::InvariantAuditor;
use crate::config::{RunUntil, Scenario};
use crate::metrics::{EngineProfile, KindProfile, RunMetrics, VmMetrics};
use crate::obs::{self, TraceSink};
use paratick_guest::{
    kernel::SoftTimer, BarrierOutcome, GuestBarrier, GuestCondvar, GuestKernel, GuestMutex,
    LockOutcome, ThreadId, TickMode, TimerAction, VirtualTickOutcome,
};
use paratick_hw::{BlockDevice, DeadlineWriteEffect, IoRequest, Vector};
use paratick_sim::{EventQueue, Freq, SimDuration, SimRng, SimTime};
use paratick_vmm::ple::Ple;
use paratick_vmm::{
    hypercall, CostModel, CycleCategory, EventSink, ExitReason, FaultKind, FaultPlan,
    FaultStats, HaltPoll, HostScheduler, Hypercall, InjectDecision, KvmVcpu, PCpu, ParatickHost,
    PcpuId, PollOutcome, RetryPolicy, SchedDecision, SimError, SimEvent, SystemStats, TimerBackend,
    VcpuId, VcpuRunState,
};
use paratick_workloads::{Action, ThreadModel};
use std::collections::VecDeque;
use std::time::Instant;

/// Engine events.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// The running vCPU reaches the end of its current compute segment.
    VcpuStop { vm: u32, vcpu: u32, gen: u64 },
    /// The guest's armed `TSC_DEADLINE` expires.
    GuestTimer { vm: u32, vcpu: u32, gen: u64 },
    /// The host scheduler tick on a busy pCPU.
    HostTick { pcpu: u32, gen: u64 },
    /// A block-device request completes.
    IoDone { vm: u32, thread: u32 },
    /// Cross-vCPU kick: deliver a pending reschedule IPI to a running
    /// vCPU (full-dynticks tick restart path).
    Kick { vm: u32, vcpu: u32 },
    /// §4.1 rate adaptation: the preemption-timer cadence that injects
    /// virtual ticks at the guest rate when host ticks cannot carry it.
    AdaptTick { vm: u32, vcpu: u32, gen: u64 },
    /// §5.2.1 boot: high-resolution timers arrived; switch this vCPU
    /// from the boot-time periodic tick to its configured mode.
    BootSwitch { vm: u32, vcpu: u32 },
    /// Next arrival of the seeded fault campaign for one fault kind.
    Fault { kind: FaultKind },
    /// Soft-lockup watchdog deadline after a lost timer expiration: if
    /// the guest has not recovered by itself, re-deliver the interrupt.
    WatchdogCheck { vm: u32, vcpu: u32, gen: u64 },
    /// Backoff expiry for a failed declare-tick-freq hypercall.
    HypercallRetry { vm: u32, vcpu: u32 },
}

impl Ev {
    /// Number of `Ev` variants (per-kind self-profiling arrays).
    const KIND_COUNT: usize = 10;

    const KIND_NAMES: [&'static str; Self::KIND_COUNT] = [
        "vcpu_stop",
        "guest_timer",
        "host_tick",
        "io_done",
        "kick",
        "adapt_tick",
        "boot_switch",
        "fault",
        "watchdog_check",
        "hypercall_retry",
    ];

    fn kind_index(&self) -> usize {
        match self {
            Ev::VcpuStop { .. } => 0,
            Ev::GuestTimer { .. } => 1,
            Ev::HostTick { .. } => 2,
            Ev::IoDone { .. } => 3,
            Ev::Kick { .. } => 4,
            Ev::AdaptTick { .. } => 5,
            Ev::BootSwitch { .. } => 6,
            Ev::Fault { .. } => 7,
            Ev::WatchdogCheck { .. } => 8,
            Ev::HypercallRetry { .. } => 9,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadStatus {
    Ready,
    Running,
    BlockedLock,
    BlockedBarrier,
    BlockedCond,
    BlockedIo,
    Sleeping,
    Done,
}

struct ThreadState {
    model: Box<dyn ThreadModel>,
    status: ThreadStatus,
    /// Remaining compute in the current segment.
    seg_remaining: SimDuration,
    /// After a condvar wakeup, the lock the thread must re-acquire
    /// before it may continue (pthread_cond_wait semantics).
    reacquire: Option<u32>,
}

/// Engine-side per-vCPU control block.
#[derive(Clone, Debug, Default)]
struct VcpuCtl {
    stop_gen: u64,
    timer_gen: u64,
    /// Outstanding post-exit pollution (guest slowdown) to charge.
    pollution: SimDuration,
    /// First-dispatch boot work done (tick armed / paratick declared).
    activated: bool,
    /// This vCPU needs §4.1 rate adaptation (guest HZ not carried by
    /// the host tick rate).
    rate_adapt: bool,
    adapt_gen: u64,
    /// Generation counter cancelling stale soft-lockup watchdog checks
    /// (the guest re-arming its timer stands the watchdog down).
    watchdog_gen: u64,
    /// Expiry of a timer interrupt the fault layer dropped; cleared on
    /// guest re-arm or watchdog re-delivery.
    lost_expiry: Option<SimTime>,
    /// Declare-tick-freq attempts made (1-based; drives retry/backoff).
    hypercall_attempts: u32,
    /// A hypercall retry backoff expired while the vCPU was off-CPU;
    /// retry the declaration at the next dispatch.
    declare_retry_due: bool,
}

struct VmState {
    name: String,
    mode: TickMode,
    vcpus: Vec<KvmVcpu>,
    ctl: Vec<VcpuCtl>,
    kernel: GuestKernel,
    threads: Vec<ThreadState>,
    locks: Vec<GuestMutex>,
    barriers: Vec<GuestBarrier>,
    condvars: Vec<GuestCondvar>,
    device: BlockDevice,
    halt_poll: Vec<HaltPoll>,
    /// Threads whose I/O completed; drained by the BLOCK_IO handler.
    io_ready: VecDeque<u32>,
    live_threads: usize,
    finished_at: Option<SimTime>,
    /// Next instant the background RCU-callback generator fires.
    next_rcu_at: SimTime,
    /// Distribution of vCPU idle-period lengths (the paper's `T_idle`).
    t_idle_hist: paratick_sim::Histogram,
    /// §5.2.1 staged boot: when high-resolution timers come up
    /// (SimTime::ZERO = immediate boot).
    hres_at: SimTime,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PcpuMode {
    Idle,
    Guest { vm: u32, vcpu: u32 },
}

/// The run's constant costs as durations, converted once from the
/// [`CostModel`] in `Engine::new` instead of once per event. Every value
/// comes from the model's own `*_duration` method, so each is still
/// defined in one place.
#[derive(Clone, Debug, PartialEq)]
struct CostTable {
    cpu_freq: Freq,
    direct: [SimDuration; ExitReason::COUNT],
    indirect: [SimDuration; ExitReason::COUNT],
    injection: SimDuration,
    host_tick: SimDuration,
    guest_tick_handler: SimDuration,
    guest_irq_overhead: SimDuration,
    idle_entry: SimDuration,
    ctx_switch: SimDuration,
    futex_fast: SimDuration,
    spin_before_block: SimDuration,
    /// PLE exits one spin-before-block episode triggers.
    spin_ple_exits: u64,
    io_submit: SimDuration,
    io_irq: SimDuration,
    context_tracking: SimDuration,
    wakeup_local: SimDuration,
    wakeup_cross_socket: SimDuration,
}

impl CostTable {
    fn new(cost: &CostModel, ple: Ple) -> CostTable {
        let spin_before_block = cost.spin_before_block_duration();
        CostTable {
            cpu_freq: cost.cpu_freq,
            direct: ExitReason::ALL.map(|r| cost.direct_duration(r)),
            indirect: ExitReason::ALL.map(|r| cost.indirect_duration(r)),
            injection: cost.injection_duration(),
            host_tick: cost.host_tick_duration(),
            guest_tick_handler: cost.guest_tick_handler_duration(),
            guest_irq_overhead: cost.guest_irq_overhead_duration(),
            idle_entry: cost.idle_entry_duration(),
            ctx_switch: cost.ctx_switch_duration(),
            futex_fast: cost.futex_fast_duration(),
            spin_before_block,
            spin_ple_exits: ple
                .exits_for_spin(cost.cpu_freq.duration_to_cycles(spin_before_block).get()),
            io_submit: cost.io_submit_duration(),
            io_irq: cost.io_irq_duration(),
            context_tracking: cost.context_tracking_duration(),
            wakeup_local: cost.wakeup_latency_for(false),
            wakeup_cross_socket: cost.wakeup_latency_for(true),
        }
    }

    fn wakeup_latency(&self, cross_socket: bool) -> SimDuration {
        if cross_socket {
            self.wakeup_cross_socket
        } else {
            self.wakeup_local
        }
    }
}

/// The assembled system simulator.
pub struct Engine {
    queue: EventQueue<Ev>,
    cost: CostTable,
    paratick_host: ParatickHost,
    rate_adapt_enabled: bool,
    /// Background RCU-callback generation (off for calibration probes
    /// via PARATICK_NO_RCU=1).
    rcu_background: bool,
    halt_poll_enabled: bool,
    apicv: bool,
    host_hz_period: SimDuration,
    host_tick_freq: paratick_sim::Freq,
    pcpus: Vec<PCpu>,
    pcpu_mode: Vec<PcpuMode>,
    host_tick_gen: Vec<u64>,
    host_tick_on: Vec<bool>,
    slice_start: Vec<SimTime>,
    sched: HostScheduler,
    vms: Vec<VmState>,
    rng: SimRng,
    /// Deterministic fault schedule (its own rng stream; see module
    /// docs). All rates zero ⇒ no `Ev::Fault` events are ever queued.
    fault_plan: FaultPlan,
    fault_stats: FaultStats,
    /// Bounded backoff for failed declare-tick-freq hypercalls.
    retry: RetryPolicy,
    /// Exit-cost spike fault window: exits before this instant cost
    /// `spike_mult` times their calibrated price.
    spike_until: SimTime,
    spike_mult: f64,
    /// Always-on invariant auditor fed from the event stream; its
    /// verdict lands in `RunMetrics::audit`.
    audit: InvariantAuditor,
    /// First simulation error; the main loop stops once it is set.
    error: Option<SimError>,
    /// Last instant a non-fault event was dispatched — recurring fault
    /// arrivals alone must not mask a wedged workload.
    last_progress: SimTime,
    /// Attached observability sinks; every emitted event also feeds the
    /// auditor.
    sinks: Vec<Box<dyn EventSink>>,
    /// `PARATICK_PROF=1`: wall-time each event kind individually.
    prof_wall: bool,
    prof_counts: [u64; Ev::KIND_COUNT],
    prof_wall_ns: [u64; Ev::KIND_COUNT],
    wall: std::time::Duration,
    run_until: RunUntil,
    now: SimTime,
}

impl Engine {
    pub fn new(mut scenario: Scenario) -> Result<Engine, SimError> {
        // Validate before computing affinities: placement divides by the
        // pCPU count.
        if scenario.host.num_pcpus() == 0 {
            return Err(SimError::Config("host with zero pCPUs".into()));
        }
        // Affinities need the full scenario; compute them before the
        // workloads are moved out.
        let affinities: Vec<Vec<u32>> = (0..scenario.vms.len())
            .map(|vm| {
                (0..scenario.vms[vm].0.vcpus)
                    .map(|v| scenario.affinity(vm, v))
                    .collect()
            })
            .collect();
        let vm_descs = std::mem::take(&mut scenario.vms);
        let host = &scenario.host;
        let n_pcpus = host.num_pcpus() as usize;
        let cost = host.cost.clone();
        if !(cost.numa_penalty.is_finite() && cost.numa_penalty >= 0.0) {
            return Err(SimError::Config(format!(
                "bad NUMA wakeup penalty {}",
                cost.numa_penalty
            )));
        }
        let ple = if host.ple {
            Ple::kvm_default()
        } else {
            Ple::disabled()
        };
        let pcpus: Vec<PCpu> = (0..n_pcpus)
            .map(|i| PCpu::new(PcpuId(i as u32), host.socket_of(i as u32), cost.cpu_freq))
            .collect();
        let rng = SimRng::new(scenario.seed);
        // `PARATICK_FAULTS` overrides the scenario's fault config (the
        // CI smoke run and ad-hoc campaigns use it).
        let env = crate::config::EnvConfig::get()
            .map_err(|e| SimError::Config(e.to_string()))?;
        let fault_cfg = match &env.faults {
            Some(f) => f.clone(),
            None => host.faults.clone(),
        };
        let retry = fault_cfg.retry_policy();
        // Fork the fault stream from a *fresh* copy of the seed so the
        // engine's own rng stream is identical with faults on or off.
        let fault_rng = SimRng::new(scenario.seed).fork(FaultPlan::RNG_SALT);
        let fault_plan = FaultPlan::new(fault_cfg, fault_rng);

        let mut vms = Vec::new();
        for (vm_idx, (cfg, workload)) in vm_descs.into_iter().enumerate() {
            let nv = cfg.vcpus as usize;
            if nv == 0 {
                return Err(SimError::Config(format!("vm{vm_idx} with zero vCPUs")));
            }
            let vcpus: Vec<KvmVcpu> = (0..cfg.vcpus)
                .map(|v| {
                    KvmVcpu::new(
                        VcpuId::new(vm_idx as u32, v),
                        PcpuId(affinities[vm_idx][v as usize]),
                        cost.cpu_freq,
                        SimTime::ZERO,
                    )
                })
                .collect();
            let hres_at = SimTime::ZERO + cfg.hres_boot_delay;
            let mut kernel = GuestKernel::with_boot(
                nv,
                workload.threads.len(),
                cfg.guest_hz,
                cfg.tick_mode,
                hres_at,
            );
            if cfg.paratick_naive_idle_exit {
                for cl in &mut kernel.cpus {
                    if let paratick_guest::TickSched::Paratick(p) = &mut cl.tick {
                        p.naive_idle_exit = true;
                    }
                }
            }
            let num_locks = workload.num_locks.max(1);
            let num_barriers = workload.num_barriers;
            let name = workload.name.clone();
            let threads: Vec<ThreadState> = workload
                .threads
                .into_iter()
                .map(|model| ThreadState {
                    model,
                    status: ThreadStatus::Ready,
                    seg_remaining: SimDuration::ZERO,
                    reacquire: None,
                })
                .collect();
            let live = threads.len();
            let hp = if host.halt_poll {
                HaltPoll::kvm_default()
            } else {
                HaltPoll::disabled()
            };
            vms.push(VmState {
                name,
                mode: cfg.tick_mode,
                vcpus,
                ctl: vec![VcpuCtl::default(); nv],
                kernel,
                threads,
                locks: (0..num_locks).map(|_| GuestMutex::new()).collect(),
                barriers: (0..num_barriers)
                    .map(|_| GuestBarrier::new(live.max(1)))
                    .collect(),
                condvars: Vec::new(), // grown on first use
                
                device: BlockDevice::new(cfg.device),
                halt_poll: vec![hp; nv],
                io_ready: VecDeque::new(),
                live_threads: live,
                finished_at: if live == 0 { Some(SimTime::ZERO) } else { None },
                next_rcu_at: SimTime::from_millis(30),
                t_idle_hist: paratick_sim::Histogram::new(),
                hres_at,
            });
        }

        Ok(Engine {
            queue: EventQueue::with_capacity(1024),
            paratick_host: ParatickHost::new(host.paratick_host),
            rate_adapt_enabled: host.paratick_rate_adapt,
            rcu_background: !env.no_rcu,
            halt_poll_enabled: host.halt_poll,
            apicv: host.apicv,
            host_hz_period: host.host_hz.period(),
            host_tick_freq: host.host_hz,
            pcpu_mode: vec![PcpuMode::Idle; n_pcpus],
            host_tick_gen: vec![0; n_pcpus],
            host_tick_on: vec![false; n_pcpus],
            slice_start: vec![SimTime::ZERO; n_pcpus],
            sched: HostScheduler::new(n_pcpus, host.slice),
            pcpus,
            vms,
            rng,
            fault_plan,
            fault_stats: FaultStats::default(),
            retry,
            spike_until: SimTime::ZERO,
            spike_mult: 1.0,
            audit: InvariantAuditor::new(),
            error: None,
            last_progress: SimTime::ZERO,
            cost: CostTable::new(&cost, ple),
            sinks: obs::sinks_from_env(n_pcpus),
            prof_wall: obs::prof_wall_enabled(),
            prof_counts: [0; Ev::KIND_COUNT],
            prof_wall_ns: [0; Ev::KIND_COUNT],
            wall: std::time::Duration::ZERO,
            run_until: scenario.run_until,
            now: SimTime::ZERO,
        })
    }

    /// Attach an observability sink; it receives every structured event
    /// of the run in dispatch order.
    pub fn attach_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Run the scenario to completion and produce metrics.
    pub fn run(scenario: Scenario) -> Result<RunMetrics, SimError> {
        Engine::new(scenario)?.run_to_completion()
    }

    /// Drive the assembled engine (with whatever sinks are attached) to
    /// completion.
    pub fn run_to_completion(mut self) -> Result<RunMetrics, SimError> {
        let t0 = Instant::now();
        self.start();
        self.main_loop();
        self.wall = t0.elapsed();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        Ok(self.finalize())
    }

    /// Run with an event trace of the last `capacity` records; returns
    /// the metrics and the rendered trace (post-mortem debugging).
    ///
    /// Implemented as a [`TraceSink`] over the structured event stream.
    pub fn run_traced(scenario: Scenario, capacity: usize) -> Result<(RunMetrics, String), SimError> {
        let mut e = Engine::new(scenario)?;
        let (sink, buf) = TraceSink::new(capacity);
        e.attach_sink(Box::new(sink));
        let metrics = e.run_to_completion()?;
        let dump = buf.borrow().dump();
        Ok((metrics, dump))
    }

    /// Feed an event to the invariant auditor and fan it out to the
    /// attached sinks. Always called — the auditor is not optional.
    #[inline]
    fn emit(&mut self, t: SimTime, ev: SimEvent) {
        self.audit.on_event(t, &ev);
        for s in &mut self.sinks {
            s.on_event(t, &ev);
        }
    }

    /// Record the first simulation error; the main loop stops at the
    /// next event boundary (handlers unwind by early return).
    fn fail(&mut self, e: SimError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Absorb a fallible vCPU state transition: `true` on success,
    /// `false` (with the error recorded) when it was illegal.
    fn check(&mut self, r: Result<(), SimError>) -> bool {
        match r {
            Ok(()) => true,
            Err(e) => {
                self.fail(e);
                false
            }
        }
    }

    // ----------------------------------------------------------------
    // Bootstrap & main loop
    // ----------------------------------------------------------------

    fn start(&mut self) {
        // Place threads on their home vCPUs and make every vCPU
        // runnable; idle vCPUs take their boot path (arm the first tick
        // or declare paratick) and halt.
        for vm in 0..self.vms.len() {
            let nt = self.vms[vm].threads.len();
            for t in 0..nt {
                let cpu = self.vms[vm].kernel.sched.prev_cpu(ThreadId(t as u32));
                self.vms[vm].kernel.sched.enqueue_on(ThreadId(t as u32), cpu);
            }
            for v in 0..self.vms[vm].vcpus.len() {
                let p = self.vms[vm].vcpus[v].affinity;
                self.sched.enqueue(VcpuId::new(vm as u32, v as u32), p);
            }
        }
        for p in 0..self.pcpus.len() {
            self.try_dispatch(PcpuId(p as u32));
        }
        // Seeded fault campaign: one self-rescheduling arrival per
        // enabled kind (hypercall failures apply at the call site).
        for kind in FaultKind::ALL {
            if let Some(dt) = self.fault_plan.next_arrival(kind) {
                self.queue.push(SimTime::ZERO + dt, Ev::Fault { kind });
            }
        }
    }

    fn main_loop(&mut self) {
        let horizon = match self.run_until {
            RunUntil::Time(t) => Some(t),
            RunUntil::AllWorkloadsDone => None,
        };
        loop {
            if self.error.is_some() {
                return;
            }
            if let Some(h) = horizon {
                match self.queue.peek_time() {
                    Some(t) if t < h => {}
                    _ => {
                        self.now = h.max(self.now);
                        return;
                    }
                }
            } else if self.vms.iter().all(|vm| vm.finished_at.is_some()) {
                return;
            }
            let Some((t, ev)) = self.queue.pop() else {
                if horizon.is_none() && !self.vms.iter().all(|v| v.finished_at.is_some()) {
                    let report = self.deadlock_report();
                    self.fail(SimError::Deadlock { report });
                }
                return;
            };
            self.now = t;
            if !matches!(ev, Ev::Fault { .. }) {
                self.last_progress = t;
            }
            let kind = ev.kind_index();
            self.prof_counts[kind] += 1;
            if self.prof_wall {
                let h0 = Instant::now();
                self.handle(t, ev);
                self.prof_wall_ns[kind] += h0.elapsed().as_nanos() as u64;
            } else {
                self.handle(t, ev);
            }
        }
    }

    fn deadlock_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (vi, vm) in self.vms.iter().enumerate() {
            if vm.finished_at.is_some() {
                continue;
            }
            let _ = writeln!(out, "vm{vi} '{}': {} live threads", vm.name, vm.live_threads);
            for (ti, t) in vm.threads.iter().enumerate() {
                if t.status != ThreadStatus::Done {
                    let _ = writeln!(
                        out,
                        "  t{ti}: {:?} seg_remaining={}",
                        t.status, t.seg_remaining
                    );
                }
            }
            for (ci, v) in vm.vcpus.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  vcpu{ci}: {:?} guest_idle={} rq.current={:?} rq.waiting={} pending_irq={} armed={:?}",
                    v.state(),
                    vm.kernel.is_idle(ci),
                    vm.kernel.sched.rq(ci).current(),
                    vm.kernel.sched.rq(ci).waiting(),
                    v.lapic.pending_count(),
                    v.armed_timer_expiry(),
                );
            }
            for (li, l) in vm.locks.iter().enumerate() {
                if l.is_locked() || l.waiters() > 0 {
                    let _ = writeln!(
                        out,
                        "  lock{li}: holder={:?} waiters={}",
                        l.holder(),
                        l.waiters()
                    );
                }
            }
            for (bi, b) in vm.barriers.iter().enumerate() {
                if b.waiting() > 0 {
                    let _ = writeln!(out, "  barrier{bi}: waiting={}", b.waiting());
                }
            }
            for (ci, c) in vm.condvars.iter().enumerate() {
                if c.waiters() > 0 {
                    let _ = writeln!(out, "  condvar{ci}: waiters={}", c.waiters());
                }
            }
        }
        out
    }

    fn handle(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::VcpuStop { vm, vcpu, gen } => self.on_vcpu_stop(vm as usize, vcpu as usize, gen, t),
            Ev::GuestTimer { vm, vcpu, gen } => {
                self.on_guest_timer(vm as usize, vcpu as usize, gen, t)
            }
            Ev::HostTick { pcpu, gen } => self.on_host_tick(PcpuId(pcpu), gen, t),
            Ev::IoDone { vm, thread } => self.on_io_done(vm as usize, thread, t),
            Ev::Kick { vm, vcpu } => self.on_kick(vm as usize, vcpu as usize, t),
            Ev::AdaptTick { vm, vcpu, gen } => {
                self.on_adapt_tick(vm as usize, vcpu as usize, gen, t)
            }
            Ev::BootSwitch { vm, vcpu } => self.on_boot_switch(vm as usize, vcpu as usize, t),
            Ev::Fault { kind } => self.on_fault(kind, t),
            Ev::WatchdogCheck { vm, vcpu, gen } => {
                self.on_watchdog_check(vm as usize, vcpu as usize, gen, t)
            }
            Ev::HypercallRetry { vm, vcpu } => {
                self.on_hypercall_retry(vm as usize, vcpu as usize, t)
            }
        }
    }

    // ----------------------------------------------------------------
    // Fault injection (deterministic, seeded campaign)
    // ----------------------------------------------------------------

    /// One arrival of the fault campaign. Always reschedules the next
    /// arrival first so the cadence survives skipped injections (no
    /// eligible target at this instant).
    fn on_fault(&mut self, kind: FaultKind, t: SimTime) {
        if let Some(dt) = self.fault_plan.next_arrival(kind) {
            self.queue.push(t + dt, Ev::Fault { kind });
        }
        // Recurring fault arrivals keep the queue non-empty forever, so
        // they must not mask a wedged workload that the drained-queue
        // check would have caught: no real progress for 30 simulated
        // seconds is a deadlock.
        if matches!(self.run_until, RunUntil::AllWorkloadsDone)
            && t.saturating_since(self.last_progress) > SimDuration::from_millis(30_000)
        {
            let report = self.deadlock_report();
            self.fail(SimError::Deadlock { report });
            return;
        }
        match kind {
            FaultKind::TscDrift => self.inject_tsc_drift(t),
            FaultKind::LostTimerIrq => self.inject_lost_timer(t),
            FaultKind::CoalescedTimerIrq => self.inject_coalesced_timer(t),
            FaultKind::ExitCostSpike => self.inject_exit_cost_spike(t),
            FaultKind::PreemptionStorm => self.inject_preemption_storm(t),
            FaultKind::HypercallFail => {} // applied at the hypercall site
        }
    }

    /// vCPUs whose TSC-deadline timer is armed — the only timers the
    /// fault layer may drop or delay. Demoted (LAPIC-oneshot) vCPUs are
    /// immune: that is what makes the fallback a recovery.
    fn timer_fault_targets(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (vi, vm) in self.vms.iter().enumerate() {
            for (ci, v) in vm.vcpus.iter().enumerate() {
                if v.timer_backend == TimerBackend::TscDeadline && v.deadline.is_armed() {
                    out.push((vi, ci));
                }
            }
        }
        out
    }

    /// Silently drop an armed deadline expiration and start the
    /// soft-lockup watchdog that will re-deliver it if the guest does
    /// not recover on its own.
    fn inject_lost_timer(&mut self, t: SimTime) {
        let targets = self.timer_fault_targets();
        if targets.is_empty() {
            return;
        }
        let (vm, vcpu) = targets[self.fault_plan.pick_index(targets.len())];
        let Some(expiry) = self.vms[vm].vcpus[vcpu].deadline.expiry() else {
            return;
        };
        self.vms[vm].vcpus[vcpu].deadline.expire();
        self.vms[vm].ctl[vcpu].timer_gen += 1; // cancel the queued expiry
        self.vms[vm].vcpus[vcpu].timer_fault_score += 1;
        self.fault_stats.record(FaultKind::LostTimerIrq);
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let at = t.max(self.pcpus[p.0 as usize].frontier());
        let ev = SimEvent::FaultInjected {
            kind: FaultKind::LostTimerIrq,
            vcpu: Some(self.vms[vm].vcpus[vcpu].id),
        };
        self.emit(at, ev);
        self.vms[vm].ctl[vcpu].lost_expiry = Some(expiry);
        self.vms[vm].ctl[vcpu].watchdog_gen += 1;
        let gen = self.vms[vm].ctl[vcpu].watchdog_gen;
        let timeout = SimDuration::from_micros(self.fault_plan.config().watchdog_timeout_us.max(1));
        self.queue.push(
            (expiry.max(t) + timeout).max(self.now),
            Ev::WatchdogCheck {
                vm: vm as u32,
                vcpu: vcpu as u32,
                gen,
            },
        );
    }

    /// Deliver an armed deadline late: the host coalesced the backing
    /// hrtimer. No guest exit — the deadline register still holds the
    /// guest's value; only the delivery slips.
    fn inject_coalesced_timer(&mut self, t: SimTime) {
        let targets = self.timer_fault_targets();
        if targets.is_empty() {
            return;
        }
        let (vm, vcpu) = targets[self.fault_plan.pick_index(targets.len())];
        let Some(expiry) = self.vms[vm].vcpus[vcpu].deadline.expiry() else {
            return;
        };
        let delay = self.fault_plan.coalesce_delay();
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let at = t.max(self.pcpus[p.0 as usize].frontier());
        // Strictly in the future so the re-arm can never immediate-fire.
        let when = (expiry + delay).max(at + SimDuration::from_nanos(1));
        let tsc = self.vms[vm].vcpus[vcpu].guest_tsc;
        self.vms[vm].ctl[vcpu].timer_gen += 1;
        let gen = self.vms[vm].ctl[vcpu].timer_gen;
        match self.vms[vm].vcpus[vcpu].deadline.arm_at(&tsc, at, when) {
            DeadlineWriteEffect::Armed(actual) => {
                self.queue.push(
                    actual.max(self.now),
                    Ev::GuestTimer {
                        vm: vm as u32,
                        vcpu: vcpu as u32,
                        gen,
                    },
                );
            }
            _ => {
                // `when` is strictly future, so this cannot happen; if
                // the model ever disagrees, deliver directly.
                self.vms[vm].vcpus[vcpu].lapic.request(Vector::LOCAL_TIMER);
            }
        }
        self.fault_stats.record(FaultKind::CoalescedTimerIrq);
        let ev = SimEvent::FaultInjected {
            kind: FaultKind::CoalescedTimerIrq,
            vcpu: Some(self.vms[vm].vcpus[vcpu].id),
        };
        self.emit(at, ev);
    }

    /// Drift one vCPU's guest TSC by a bounded random offset.
    fn inject_tsc_drift(&mut self, t: SimTime) {
        let n: usize = self.vms.iter().map(|v| v.vcpus.len()).sum();
        if n == 0 {
            return;
        }
        let mut pick = self.fault_plan.pick_index(n);
        let mut target = None;
        'outer: for vi in 0..self.vms.len() {
            for ci in 0..self.vms[vi].vcpus.len() {
                if pick == 0 {
                    target = Some((vi, ci));
                    break 'outer;
                }
                pick -= 1;
            }
        }
        let Some((vm, vcpu)) = target else { return };
        let drift = self.fault_plan.drift_ns();
        self.vms[vm].vcpus[vcpu].guest_tsc.apply_drift_ns(drift);
        self.fault_stats.record(FaultKind::TscDrift);
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let at = t.max(self.pcpus[p.0 as usize].frontier());
        let ev = SimEvent::FaultInjected {
            kind: FaultKind::TscDrift,
            vcpu: Some(self.vms[vm].vcpus[vcpu].id),
        };
        self.emit(at, ev);
    }

    /// Open an exit-cost spike window: every exit taken before it closes
    /// costs a multiple of its calibrated price.
    fn inject_exit_cost_spike(&mut self, t: SimTime) {
        self.spike_mult = self.fault_plan.config().spike_mult.max(1.0);
        let window = SimDuration::from_micros(self.fault_plan.config().spike_window_us.max(1));
        self.spike_until = t + window;
        self.fault_stats.record(FaultKind::ExitCostSpike);
        let ev = SimEvent::FaultInjected {
            kind: FaultKind::ExitCostSpike,
            vcpu: None,
        };
        self.emit(t, ev);
    }

    /// A burst of host activity repeatedly interrupts one busy pCPU,
    /// stealing guest time (ksoftirqd storm, migration threads).
    fn inject_preemption_storm(&mut self, t: SimTime) {
        let busy: Vec<usize> = (0..self.pcpus.len())
            .filter(|&i| matches!(self.pcpu_mode[i], PcpuMode::Guest { .. }))
            .collect();
        if busy.is_empty() {
            return;
        }
        let i = busy[self.fault_plan.pick_index(busy.len())];
        let p = PcpuId(i as u32);
        let victim = match self.pcpu_mode[i] {
            PcpuMode::Guest { vm, vcpu } => self.vms[vm as usize].vcpus[vcpu as usize].id,
            PcpuMode::Idle => return,
        };
        self.fault_stats.record(FaultKind::PreemptionStorm);
        let at = t.max(self.pcpus[i].frontier());
        let ev = SimEvent::FaultInjected {
            kind: FaultKind::PreemptionStorm,
            vcpu: Some(victim),
        };
        self.emit(at, ev);
        let bursts = self.fault_plan.config().storm_bursts.max(1);
        for _ in 0..bursts {
            if self.error.is_some() {
                return;
            }
            let steal = self.fault_plan.storm_steal();
            let tt = self.pcpus[i].frontier().max(self.now);
            let resume = self.host_touch_begin(p, tt);
            self.pcpus[i].account(CycleCategory::HostOs, steal);
            self.host_touch_end(p, resume);
        }
    }

    /// Soft-lockup watchdog deadline: the guest never re-armed after a
    /// lost expiration. Re-deliver the interrupt and, when this vCPU has
    /// been burnt `fallback_threshold` times, demote it one rung down
    /// the timer degradation ladder (TSC-deadline → LAPIC oneshot).
    fn on_watchdog_check(&mut self, vm: usize, vcpu: usize, gen: u64, t: SimTime) {
        if self.vms[vm].ctl[vcpu].watchdog_gen != gen {
            return; // the guest re-armed on its own: stand down
        }
        if self.vms[vm].ctl[vcpu].lost_expiry.take().is_none() {
            return;
        }
        self.fault_stats.watchdog_recoveries += 1;
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let at = t.max(self.pcpus[p.0 as usize].frontier());
        let id = self.vms[vm].vcpus[vcpu].id;
        let threshold = self.fault_plan.config().fallback_threshold.max(1);
        if self.vms[vm].vcpus[vcpu].timer_fault_score >= threshold
            && self.vms[vm].vcpus[vcpu].demote_timer_backend()
        {
            self.fault_stats.oneshot_fallbacks += 1;
            self.emit(at, SimEvent::TimerFallback { vcpu: id });
        }
        self.emit(at, SimEvent::WatchdogRecovery { vcpu: id });
        self.vms[vm].vcpus[vcpu].lapic.request(Vector::LOCAL_TIMER);
        match self.vms[vm].vcpus[vcpu].state() {
            VcpuRunState::Running => {
                self.interrupt_running(vm, vcpu, at);
                self.sync_exit(vm, vcpu, ExitReason::ExternalInterrupt);
                self.enter_guest(vm, vcpu);
                if self.vms[vm].vcpus[vcpu].is_running() {
                    self.resume(vm, vcpu);
                }
            }
            VcpuRunState::Halted | VcpuRunState::Runnable => {
                let resume = self.host_touch_begin(p, t);
                self.pcpus[p.0 as usize]
                    .account(CycleCategory::HostOs, self.cost.host_tick / 2);
                if self.vms[vm].vcpus[vcpu].state() == VcpuRunState::Halted {
                    self.wake_vcpu(vm, vcpu, false);
                }
                self.host_touch_end(p, resume);
            }
        }
    }

    /// Backoff expiry for a failed declare-tick-freq hypercall: retry
    /// the declaration if it is still pending and still wanted.
    fn on_hypercall_retry(&mut self, vm: usize, vcpu: usize, t: SimTime) {
        if self.vms[vm].vcpus[vcpu].declared_tick_period.is_some()
            || !matches!(
                self.vms[vm].kernel.cpus[vcpu].tick,
                paratick_guest::TickSched::Paratick(_)
            )
        {
            return; // declared meanwhile, or already degraded away
        }
        match self.vms[vm].vcpus[vcpu].state() {
            VcpuRunState::Running => {
                let p = self.vms[vm].vcpus[vcpu].affinity;
                self.interrupt_running(vm, vcpu, t.max(self.pcpus[p.0 as usize].frontier()));
                self.declare_tick_freq(vm, vcpu);
                self.enter_guest(vm, vcpu);
                if self.vms[vm].vcpus[vcpu].is_running() {
                    self.schedule_adapt_tick(vm, vcpu);
                    self.resume(vm, vcpu);
                }
            }
            VcpuRunState::Halted => {
                // Retried from first_activation at the dispatch the wake
                // triggers.
                self.vms[vm].ctl[vcpu].declare_retry_due = true;
                self.wake_vcpu(vm, vcpu, false);
            }
            VcpuRunState::Runnable => {
                self.vms[vm].ctl[vcpu].declare_retry_due = true;
            }
        }
    }

    /// §5.2.1: the hres switch instant arrived for a vCPU. If it is in
    /// guest mode, switch inline; otherwise the switch happens at its
    /// next dispatch (`perform_boot_switch` is idempotent via GuestBoot).
    fn on_boot_switch(&mut self, vm: usize, vcpu: usize, t: SimTime) {
        if self.vms[vm].vcpus[vcpu].state() != VcpuRunState::Running {
            return; // picked up on next dispatch
        }
        let p = self.vms[vm].vcpus[vcpu].affinity;
        self.interrupt_running(vm, vcpu, t.max(self.pcpus[p.0 as usize].frontier()));
        self.perform_boot_switch(vm, vcpu);
        if self.vms[vm].vcpus[vcpu].is_running() {
            self.resume(vm, vcpu);
        }
    }

    /// Run the switch if due: disable the boot-time periodic tick
    /// ("the periodic scheduler tick is disabled as soon as the switch
    /// to paratick mode is made", §5.2.1), swap the strategy, declare
    /// paratick via hypercall, and activate the new mode.
    fn perform_boot_switch(&mut self, vm: usize, vcpu: usize) {
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let now = self.pcpus[p.0 as usize].frontier();
        let Some(switch) = self.vms[vm].kernel.try_boot_switch(vcpu, now) else {
            return;
        };
        // Kill the periodic tick's armed deadline.
        self.apply_timer_action(vm, vcpu, TimerAction::Disable);
        if switch.mode == TickMode::Paratick {
            self.declare_tick_freq(vm, vcpu);
        }
        let at = self.pcpus[p.0 as usize].frontier();
        let ev = SimEvent::BootSwitch {
            vcpu: self.vms[vm].vcpus[vcpu].id,
        };
        self.emit(at, ev);
        let now = self.pcpus[p.0 as usize].frontier();
        let act = self.vms[vm].kernel.cpus[vcpu].tick.on_activate(now);
        self.apply_timer_action(vm, vcpu, act);
    }

    /// Paratick boot declaration: the guest traps into the host with its
    /// tick frequency (§4.1), which decides whether the host tick can
    /// carry it or §4.1 rate adaptation is needed.
    ///
    /// Under a `HypercallFail` fault campaign the first attempts fail
    /// transiently: the guest retries with bounded exponential backoff
    /// and, once the budget is exhausted, degrades to dynticks-idle
    /// instead of hanging boot (the paravirt rung of the ladder).
    fn declare_tick_freq(&mut self, vm: usize, vcpu: usize) {
        self.sync_exit(vm, vcpu, ExitReason::Hypercall);
        let attempt = {
            let c = &mut self.vms[vm].ctl[vcpu];
            c.hypercall_attempts += 1;
            c.hypercall_attempts
        };
        if self.fault_plan.hypercall_should_fail(attempt) {
            self.fault_stats.record(FaultKind::HypercallFail);
            let p = self.vms[vm].vcpus[vcpu].affinity;
            let at = self.pcpus[p.0 as usize].frontier();
            let id = self.vms[vm].vcpus[vcpu].id;
            self.emit(at, SimEvent::HypercallFailed { vcpu: id, attempt });
            match self.retry.backoff_after(attempt) {
                Some(backoff) => {
                    self.fault_stats.hypercall_retries += 1;
                    self.queue.push(
                        (at + backoff).max(self.now),
                        Ev::HypercallRetry {
                            vm: vm as u32,
                            vcpu: vcpu as u32,
                        },
                    );
                }
                None => {
                    // Retry budget exhausted: degrade gracefully.
                    self.fault_stats.paravirt_fallbacks += 1;
                    self.emit(at, SimEvent::ParavirtFallback { vcpu: id });
                    let act = self.vms[vm].kernel.fallback_to_dynticks(vcpu, at);
                    self.apply_timer_action(vm, vcpu, act);
                }
            }
            return;
        }
        let hz = self.vms[vm].kernel.hz;
        match hypercall::service(Hypercall::DeclareTickFreq(hz), self.host_tick_freq) {
            hypercall::HypercallResult::TickDeclared { period } => {
                self.vms[vm].vcpus[vcpu].declared_tick_period = Some(period);
            }
            hypercall::HypercallResult::NeedsRateAdaptation { period } => {
                self.vms[vm].vcpus[vcpu].declared_tick_period = Some(period);
                self.vms[vm].ctl[vcpu].rate_adapt = self.rate_adapt_enabled;
            }
        }
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let at = self.pcpus[p.0 as usize].frontier();
        let ev = SimEvent::Hypercall {
            vcpu: self.vms[vm].vcpus[vcpu].id,
            tick_hz: hz.as_hz(),
            rate_adapted: self.vms[vm].ctl[vcpu].rate_adapt,
        };
        self.emit(at, ev);
    }

    /// §4.1: the adaptation cadence fired. If the vCPU is in guest mode,
    /// a preemption-timer exit lets the host inject the virtual tick at
    /// the guest's own rate ("the host should program the guest
    /// preemption timer such that virtual ticks may be injected at the
    /// correct rate"). One exit per tick — still half of what the guest
    /// programming its own tick would cost.
    fn on_adapt_tick(&mut self, vm: usize, vcpu: usize, gen: u64, t: SimTime) {
        if self.vms[vm].ctl[vcpu].adapt_gen != gen {
            return;
        }
        if self.vms[vm].vcpus[vcpu].state() != VcpuRunState::Running {
            return; // rescheduled at the next VM entry
        }
        let p = self.vms[vm].vcpus[vcpu].affinity;
        self.interrupt_running(vm, vcpu, t.max(self.pcpus[p.0 as usize].frontier()));
        self.sync_exit(vm, vcpu, ExitReason::PreemptionTimer);
        let now = self.pcpus[p.0 as usize].frontier();
        {
            let v = &mut self.vms[vm].vcpus[vcpu];
            v.last_tick = now;
            v.lapic.request(Vector::PARATICK);
            v.record_injection(true);
        }
        let ev = SimEvent::Inject {
            vcpu: self.vms[vm].vcpus[vcpu].id,
            virtual_tick: true,
        };
        self.emit(now, ev);
        self.enter_guest(vm, vcpu);
        if self.vms[vm].vcpus[vcpu].is_running() {
            self.schedule_adapt_tick(vm, vcpu); // next beat of the cadence
            self.resume(vm, vcpu);
        }
    }

    /// (Re)arm the §4.1 adaptation cadence for a running, adapted vCPU.
    fn schedule_adapt_tick(&mut self, vm: usize, vcpu: usize) {
        if !self.vms[vm].ctl[vcpu].rate_adapt {
            return;
        }
        let Some(period) = self.vms[vm].vcpus[vcpu].declared_tick_period else {
            return;
        };
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let now = self.pcpus[p.0 as usize].frontier();
        let due = (self.vms[vm].vcpus[vcpu].last_tick + period).max(now + SimDuration::from_nanos(1));
        self.vms[vm].ctl[vcpu].adapt_gen += 1;
        let gen = self.vms[vm].ctl[vcpu].adapt_gen;
        self.queue.push(
            due.max(self.now),
            Ev::AdaptTick {
                vm: vm as u32,
                vcpu: vcpu as u32,
                gen,
            },
        );
    }

    /// Deliver a reschedule IPI to a (possibly running) vCPU: the
    /// full-dynticks "restart the tick, you are contended now" path.
    fn on_kick(&mut self, vm: usize, vcpu: usize, t: SimTime) {
        match self.vms[vm].vcpus[vcpu].state() {
            VcpuRunState::Running => {
                let p = self.vms[vm].vcpus[vcpu].affinity;
                self.interrupt_running(vm, vcpu, t.max(self.pcpus[p.0 as usize].frontier()));
                self.sync_exit(vm, vcpu, ExitReason::ExternalInterrupt);
                self.vms[vm].vcpus[vcpu].lapic.request(Vector::RESCHEDULE);
                self.enter_guest(vm, vcpu);
                if self.vms[vm].vcpus[vcpu].is_running() {
                    self.resume(vm, vcpu);
                }
            }
            VcpuRunState::Halted => {
                self.vms[vm].vcpus[vcpu].lapic.request(Vector::RESCHEDULE);
                if self.vms[vm].vcpus[vcpu].state() == VcpuRunState::Halted {
                    self.wake_vcpu(vm, vcpu, false);
                }
            }
            VcpuRunState::Runnable => {
                self.vms[vm].vcpus[vcpu].lapic.request(Vector::RESCHEDULE);
            }
        }
    }

    // ----------------------------------------------------------------
    // Host scheduler plumbing
    // ----------------------------------------------------------------

    /// Dispatch the next runnable vCPU on `p`, if the pCPU is free.
    fn try_dispatch(&mut self, p: PcpuId) {
        if self.pcpu_mode[p.0 as usize] != PcpuMode::Idle {
            return;
        }
        match self.sched.pick_next(p) {
            SchedDecision::Idle => {}
            SchedDecision::Run(id) => {
                let t = self.pcpus[p.0 as usize].frontier().max(self.now);
                self.account_gap(p, t);
                self.pcpu_mode[p.0 as usize] = PcpuMode::Guest {
                    vm: id.vm,
                    vcpu: id.vcpu,
                };
                self.slice_start[p.0 as usize] = t;
                self.enable_host_tick(p);
                let (vm, vcpu) = (id.vm as usize, id.vcpu as usize);
                let ev = SimEvent::Dispatch {
                    vcpu: self.vms[vm].vcpus[vcpu].id,
                    pcpu: p,
                    run_queue: self.sched.waiting(p) as u32,
                };
                self.emit(t, ev);
                let r = self.vms[vm].vcpus[vcpu].set_running(t);
                if !self.check(r) {
                    return;
                }
                self.first_activation(vm, vcpu);
                self.enter_guest(vm, vcpu);
                if self.vms[vm].vcpus[vcpu].is_running() {
                    self.schedule_adapt_tick(vm, vcpu);
                    self.resume(vm, vcpu);
                }
            }
        }
    }

    /// Account the unattributed gap `[frontier, t)` on an idle pCPU.
    fn account_gap(&mut self, p: PcpuId, t: SimTime) {
        let pc = &mut self.pcpus[p.0 as usize];
        if t > pc.frontier() {
            pc.account_until(CycleCategory::Idle, t);
        }
    }

    fn enable_host_tick(&mut self, p: PcpuId) {
        let i = p.0 as usize;
        if self.host_tick_on[i] {
            return;
        }
        self.host_tick_on[i] = true;
        self.host_tick_gen[i] += 1;
        let f = self.pcpus[i].frontier();
        let next = f.round_down(self.host_hz_period) + self.host_hz_period;
        let gen = self.host_tick_gen[i];
        self.queue.push(next.max(self.now), Ev::HostTick { pcpu: p.0, gen });
    }

    fn disable_host_tick(&mut self, p: PcpuId) {
        let i = p.0 as usize;
        if self.host_tick_on[i] {
            self.host_tick_on[i] = false;
            self.host_tick_gen[i] += 1;
        }
    }

    /// First-dispatch boot work. Immediate-boot guests activate their
    /// configured mode right away; staged-boot guests (§5.2.1) arm the
    /// boot-time periodic tick and schedule the hres switch. On every
    /// later dispatch, a pending switch is applied lazily.
    fn first_activation(&mut self, vm: usize, vcpu: usize) {
        if self.vms[vm].ctl[vcpu].activated {
            // A hypercall-retry backoff that expired while this vCPU
            // was off-CPU: retry the declaration now that it runs.
            if std::mem::take(&mut self.vms[vm].ctl[vcpu].declare_retry_due)
                && self.vms[vm].vcpus[vcpu].declared_tick_period.is_none()
                && matches!(
                    self.vms[vm].kernel.cpus[vcpu].tick,
                    paratick_guest::TickSched::Paratick(_)
                )
            {
                self.declare_tick_freq(vm, vcpu);
            }
            // A switch that fired while this vCPU was off-CPU applies
            // at dispatch.
            if !self.vms[vm].kernel.cpus[vcpu].boot.is_switched() {
                let p = self.vms[vm].vcpus[vcpu].affinity;
                let now = self.pcpus[p.0 as usize].frontier();
                if now >= self.vms[vm].hres_at && self.vms[vm].hres_at > SimTime::ZERO {
                    self.perform_boot_switch(vm, vcpu);
                }
            }
            return;
        }
        self.vms[vm].ctl[vcpu].activated = true;
        let hres_at = self.vms[vm].hres_at;
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let now = self.pcpus[p.0 as usize].frontier();
        if hres_at > SimTime::ZERO && now < hres_at {
            // Staged boot: periodic until hres; switch scheduled.
            let act = self.vms[vm].kernel.cpus[vcpu].tick.on_activate(now);
            self.apply_timer_action(vm, vcpu, act);
            self.queue.push(
                hres_at.max(self.now),
                Ev::BootSwitch {
                    vm: vm as u32,
                    vcpu: vcpu as u32,
                },
            );
            return;
        }
        if hres_at > SimTime::ZERO {
            // Dispatched for the first time after the switch instant.
            self.perform_boot_switch(vm, vcpu);
            return;
        }
        if self.vms[vm].mode == TickMode::Paratick {
            self.declare_tick_freq(vm, vcpu);
        }
        let now = self.pcpus[p.0 as usize].frontier();
        let act = self.vms[vm].kernel.cpus[vcpu].tick.on_activate(now);
        self.apply_timer_action(vm, vcpu, act);
    }

    // ----------------------------------------------------------------
    // VM entry / exit machinery
    // ----------------------------------------------------------------

    /// A synchronous VM exit taken by a *running* vCPU: record it,
    /// charge the direct cost on the pCPU, add the indirect cost to the
    /// vCPU's pollution debt.
    fn sync_exit(&mut self, vm: usize, vcpu: usize, reason: ExitReason) {
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let at = self.pcpus[p.0 as usize].frontier();
        self.vms[vm].vcpus[vcpu].record_exit(reason);
        let mut direct = self.cost.direct[reason.index()];
        let mut indirect = self.cost.indirect[reason.index()];
        if at < self.spike_until {
            // Inside an exit-cost spike fault window.
            direct = direct.mul_f64(self.spike_mult);
            indirect = indirect.mul_f64(self.spike_mult);
        }
        self.pcpus[p.0 as usize].account(CycleCategory::ExitHandling, direct);
        self.vms[vm].ctl[vcpu].pollution += indirect;
        let ev = SimEvent::VmExit {
            vcpu: self.vms[vm].vcpus[vcpu].id,
            reason,
            pollution_ns: self.vms[vm].ctl[vcpu].pollution.as_nanos(),
        };
        self.emit(at, ev);
    }

    /// The VM-entry sequence: paratick host hook (Figure 2), interrupt
    /// injection, guest-side interrupt handling. Loops until no vectors
    /// remain pending.
    fn enter_guest(&mut self, vm: usize, vcpu: usize) {
        for _round in 0..64 {
            let decision = {
                let v = &self.vms[vm].vcpus[vcpu];
                let now = self.pcpus[v.affinity.0 as usize].frontier();
                self.paratick_host.on_vm_entry(
                    now,
                    v.last_tick,
                    v.declared_tick_period,
                    v.lapic.is_pending(Vector::LOCAL_TIMER),
                )
            };
            let p = self.vms[vm].vcpus[vcpu].affinity;
            match decision {
                InjectDecision::PendingTimerActsAsTick => {
                    let now = self.pcpus[p.0 as usize].frontier();
                    self.vms[vm].vcpus[vcpu].last_tick = now;
                }
                InjectDecision::InjectVirtualTick => {
                    let now = self.pcpus[p.0 as usize].frontier();
                    self.pcpus[p.0 as usize]
                        .account(CycleCategory::ExitHandling, self.cost.injection);
                    let v = &mut self.vms[vm].vcpus[vcpu];
                    v.last_tick = now;
                    v.lapic.request(Vector::PARATICK);
                    v.record_injection(true);
                    let ev = SimEvent::Inject {
                        vcpu: self.vms[vm].vcpus[vcpu].id,
                        virtual_tick: true,
                    };
                    self.emit(now, ev);
                }
                InjectDecision::Nothing => {}
            }
            if !self.vms[vm].vcpus[vcpu].lapic.has_pending() {
                return;
            }
            // Injection work for the pending batch.
            self.pcpus[p.0 as usize]
                .account(CycleCategory::ExitHandling, self.cost.injection);
            if decision != InjectDecision::InjectVirtualTick {
                self.vms[vm].vcpus[vcpu].record_injection(false);
                let now = self.pcpus[p.0 as usize].frontier();
                let ev = SimEvent::Inject {
                    vcpu: self.vms[vm].vcpus[vcpu].id,
                    virtual_tick: false,
                };
                self.emit(now, ev);
            }
            self.process_pending_irqs(vm, vcpu);
            // Full dynticks: a contended run queue on a tickless busy
            // CPU restarts the tick (tick_nohz_full_kick).
            if !self.vms[vm].kernel.is_idle(vcpu)
                && self.vms[vm].kernel.sched.is_contended(vcpu)
            {
                let now = self.pcpus[p.0 as usize].frontier();
                let act = self.vms[vm].kernel.cpus[vcpu].tick.ensure_tick(now);
                self.apply_timer_action(vm, vcpu, act);
            }
            if !self.vms[vm].vcpus[vcpu].lapic.has_pending() {
                return;
            }
        }
        let id = self.vms[vm].vcpus[vcpu].id;
        self.fail(SimError::NonQuiescent { vcpu: id });
    }

    /// Drain and handle all pending LAPIC vectors in priority order.
    fn process_pending_irqs(&mut self, vm: usize, vcpu: usize) {
        while let Some(vec) = self.vms[vm].vcpus[vcpu].lapic.ack_highest() {
            let p = self.vms[vm].vcpus[vcpu].affinity;
            self.pcpus[p.0 as usize].account(
                CycleCategory::GuestOs,
                self.cost.guest_irq_overhead,
            );
            match vec {
                Vector::LOCAL_TIMER => self.handle_tick_irq(vm, vcpu),
                Vector::PARATICK => self.handle_virtual_tick(vm, vcpu),
                Vector::BLOCK_IO => self.handle_io_irq(vm, vcpu),
                Vector::RESCHEDULE => { /* the wake already enqueued the thread */ }
                other => {
                    self.fail(SimError::internal(format!("unexpected vector {other:?}")));
                    return;
                }
            }
            // End-of-interrupt: traps unless the hardware virtualizes
            // the APIC (paper-era machines do not).
            if !self.apicv {
                self.sync_exit(vm, vcpu, ExitReason::EoiWrite);
            }
        }
    }

    /// The guest's LAPIC-timer vector fired (physical tick / deferred
    /// wakeup timer).
    fn handle_tick_irq(&mut self, vm: usize, vcpu: usize) {
        let idle = self.vms[vm].kernel.is_idle(vcpu);
        let contended = self.vms[vm].kernel.sched.is_contended(vcpu);
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let now = self.pcpus[p.0 as usize].frontier();
        let out = self.vms[vm].kernel.cpus[vcpu]
            .tick
            .on_tick_irq(now, idle, contended);
        if out.run_handler {
            self.run_tick_body(vm, vcpu);
        }
        self.apply_timer_action(vm, vcpu, out.timer);
    }

    /// A host-injected virtual tick (vector 235).
    fn handle_virtual_tick(&mut self, vm: usize, vcpu: usize) {
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let now = self.pcpus[p.0 as usize].frontier();
        match self.vms[vm].kernel.cpus[vcpu].tick.on_virtual_tick(now) {
            VirtualTickOutcome::Handle => self.run_tick_body(vm, vcpu),
            VirtualTickOutcome::Reject => {}
        }
    }

    /// The guest tick handler body: jiffies / timer wheel / RCU / guest
    /// scheduler round-robin.
    fn run_tick_body(&mut self, vm: usize, vcpu: usize) {
        let p = self.vms[vm].vcpus[vcpu].affinity;
        self.pcpus[p.0 as usize].account(
            CycleCategory::GuestOs,
            self.cost.guest_tick_handler,
        );
        let now = self.pcpus[p.0 as usize].frontier();
        let fired = self.vms[vm].kernel.run_tick_body(vcpu, now);
        for soft in fired {
            match soft {
                SoftTimer::WakeThread(tid) => {
                    if self.vms[vm].threads[tid.0 as usize].status == ThreadStatus::Sleeping {
                        self.wake_thread(vm, tid, Some(vcpu));
                    }
                }
                SoftTimer::Housekeeping => {
                    self.pcpus[p.0 as usize].account(
                        CycleCategory::GuestOs,
                        self.cost.guest_irq_overhead,
                    );
                }
            }
        }
        // Guest-scheduler preemption: round-robin contended run queues
        // at tick granularity (jiffy RR).
        if !self.vms[vm].kernel.is_idle(vcpu) && self.vms[vm].kernel.sched.is_contended(vcpu) {
            let prev = self.vms[vm].kernel.sched.yield_current(vcpu);
            let Some(next) = self.vms[vm].kernel.sched.pick_next(vcpu) else {
                self.fail(SimError::internal("contended run queue had no next thread"));
                return;
            };
            self.vms[vm].threads[prev.0 as usize].status = ThreadStatus::Ready;
            self.vms[vm].threads[next.0 as usize].status = ThreadStatus::Running;
            self.pcpus[p.0 as usize]
                .account(CycleCategory::GuestOs, self.cost.ctx_switch);
        }
    }

    /// Block-device completion vector: wake every thread whose I/O is
    /// ready.
    fn handle_io_irq(&mut self, vm: usize, vcpu: usize) {
        let p = self.vms[vm].vcpus[vcpu].affinity;
        while let Some(tid) = self.vms[vm].io_ready.pop_front() {
            self.pcpus[p.0 as usize]
                .account(CycleCategory::GuestOs, self.cost.io_irq);
            self.wake_thread(vm, ThreadId(tid), Some(vcpu));
        }
    }

    /// Apply a tick-strategy timer action through whichever backend the
    /// vCPU currently sits on. On the pristine rung `Program`/`Disable`
    /// are `TSC_DEADLINE` writes; a demoted vCPU programs the LAPIC
    /// initial count instead. Each is a synchronous VM exit.
    fn apply_timer_action(&mut self, vm: usize, vcpu: usize, action: TimerAction) {
        match action {
            TimerAction::None => {}
            TimerAction::Program(when) => {
                // The guest re-arming stands down any pending
                // soft-lockup watchdog: it recovered on its own.
                self.vms[vm].ctl[vcpu].lost_expiry = None;
                self.vms[vm].ctl[vcpu].watchdog_gen += 1;
                match self.vms[vm].vcpus[vcpu].timer_backend {
                    TimerBackend::TscDeadline => self.program_deadline(vm, vcpu, when),
                    TimerBackend::LapicOneshot => self.program_oneshot(vm, vcpu, when),
                }
            }
            TimerAction::Disable => {
                let backend = self.vms[vm].vcpus[vcpu].timer_backend;
                let armed = match backend {
                    TimerBackend::TscDeadline => self.vms[vm].vcpus[vcpu].deadline.is_armed(),
                    TimerBackend::LapicOneshot => self.vms[vm].vcpus[vcpu].oneshot.is_armed(),
                };
                if !armed {
                    return; // nothing armed: the guest skips the write
                }
                let reason = match backend {
                    TimerBackend::TscDeadline => ExitReason::MsrWriteTscDeadline,
                    TimerBackend::LapicOneshot => ExitReason::ApicTimerWrite,
                };
                self.sync_exit(vm, vcpu, reason);
                let p = self.vms[vm].vcpus[vcpu].affinity;
                let now = self.pcpus[p.0 as usize].frontier();
                let ev = SimEvent::TimerCancel {
                    vcpu: self.vms[vm].vcpus[vcpu].id,
                };
                self.emit(now, ev);
                match backend {
                    TimerBackend::TscDeadline => {
                        let tsc = self.vms[vm].vcpus[vcpu].guest_tsc;
                        self.vms[vm].vcpus[vcpu].deadline.disarm(&tsc, now);
                    }
                    TimerBackend::LapicOneshot => self.vms[vm].vcpus[vcpu].oneshot.disarm(),
                }
                self.vms[vm].ctl[vcpu].timer_gen += 1;
            }
        }
    }

    /// Program the `TSC_DEADLINE` MSR (pristine timer backend).
    fn program_deadline(&mut self, vm: usize, vcpu: usize, when: SimTime) {
        self.sync_exit(vm, vcpu, ExitReason::MsrWriteTscDeadline);
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let now = self.pcpus[p.0 as usize].frontier();
        let ev = SimEvent::TimerProgram {
            vcpu: self.vms[vm].vcpus[vcpu].id,
            deadline: when,
        };
        self.emit(now, ev);
        let tsc = self.vms[vm].vcpus[vcpu].guest_tsc;
        let effect = self.vms[vm].vcpus[vcpu].deadline.arm_at(&tsc, now, when);
        self.vms[vm].ctl[vcpu].timer_gen += 1;
        let gen = self.vms[vm].ctl[vcpu].timer_gen;
        match effect {
            DeadlineWriteEffect::Armed(t) => {
                self.queue.push(
                    t.max(self.now),
                    Ev::GuestTimer {
                        vm: vm as u32,
                        vcpu: vcpu as u32,
                        gen,
                    },
                );
            }
            DeadlineWriteEffect::FiresImmediately => {
                // Already due: the interrupt raises right away (closes
                // the program/fire lifecycle for the auditor too).
                self.emit(
                    now,
                    SimEvent::TimerFire {
                        vcpu: self.vms[vm].vcpus[vcpu].id,
                    },
                );
                self.vms[vm].vcpus[vcpu].lapic.request(Vector::LOCAL_TIMER);
            }
            DeadlineWriteEffect::Disarmed => {
                self.fail(SimError::internal("deadline arm_at reported Disarmed"));
            }
        }
    }

    /// Program the LAPIC oneshot initial count (demoted backend). The
    /// divider quantizes the interval — coarser, but immune to the
    /// deadline faults that forced the demotion.
    fn program_oneshot(&mut self, vm: usize, vcpu: usize, when: SimTime) {
        self.sync_exit(vm, vcpu, ExitReason::ApicTimerWrite);
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let now = self.pcpus[p.0 as usize].frontier();
        let ev = SimEvent::TimerProgram {
            vcpu: self.vms[vm].vcpus[vcpu].id,
            deadline: when,
        };
        self.emit(now, ev);
        let actual = self.vms[vm].vcpus[vcpu].oneshot.arm_at(now, when);
        self.vms[vm].ctl[vcpu].timer_gen += 1;
        let gen = self.vms[vm].ctl[vcpu].timer_gen;
        self.queue.push(
            actual.max(self.now),
            Ev::GuestTimer {
                vm: vm as u32,
                vcpu: vcpu as u32,
                gen,
            },
        );
    }

    // ----------------------------------------------------------------
    // Running guest threads
    // ----------------------------------------------------------------

    /// Resume guest execution on a running vCPU: continue the current
    /// thread's segment, pick a new thread, or go idle.
    fn resume(&mut self, vm: usize, vcpu: usize) {
        debug_assert!(self.vms[vm].vcpus[vcpu].is_running());
        if self.vms[vm].kernel.is_idle(vcpu) {
            if self.vms[vm].kernel.sched.rq(vcpu).is_idle() {
                // Spurious wakeup: nothing to run; go straight back.
                self.guest_idle(vm, vcpu);
                return;
            }
            // Idle exit (Figure 1c / 3d).
            let p = self.vms[vm].vcpus[vcpu].affinity;
            let now = self.pcpus[p.0 as usize].frontier();
            let contended = self.vms[vm].kernel.sched.rq(vcpu).waiting() >= 2;
            let act = self.vms[vm].kernel.cpus[vcpu].tick.on_idle_exit(now, contended);
            self.apply_timer_action(vm, vcpu, act);
            self.vms[vm].kernel.set_idle(vcpu, false);
        }
        if self.vms[vm].kernel.sched.rq(vcpu).current().is_none() {
            match self.vms[vm].kernel.sched.pick_next(vcpu) {
                Some(t) => {
                    self.vms[vm].threads[t.0 as usize].status = ThreadStatus::Running;
                    let p = self.vms[vm].vcpus[vcpu].affinity;
                    self.pcpus[p.0 as usize]
                        .account(CycleCategory::GuestOs, self.cost.ctx_switch);
                }
                None => {
                    self.guest_idle(vm, vcpu);
                    return;
                }
            }
        }
        let Some(tid) = self.vms[vm].kernel.sched.rq(vcpu).current() else {
            self.fail(SimError::internal("resume without a current thread"));
            return;
        };
        if self.vms[vm].threads[tid.0 as usize].seg_remaining.is_zero() {
            self.fetch_actions(vm, vcpu);
        } else {
            self.schedule_stop(vm, vcpu);
        }
    }

    /// Schedule the stop event for the current segment (remaining work
    /// plus outstanding pollution debt).
    fn schedule_stop(&mut self, vm: usize, vcpu: usize) {
        let Some(tid) = self.vms[vm].kernel.sched.rq(vcpu).current() else {
            self.fail(SimError::internal("schedule_stop without a current thread"));
            return;
        };
        let rem = self.vms[vm].threads[tid.0 as usize].seg_remaining;
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let start = self.pcpus[p.0 as usize].frontier();
        let stop = start + self.vms[vm].ctl[vcpu].pollution + rem;
        self.vms[vm].ctl[vcpu].stop_gen += 1;
        let gen = self.vms[vm].ctl[vcpu].stop_gen;
        self.queue.push(
            stop.max(self.now),
            Ev::VcpuStop {
                vm: vm as u32,
                vcpu: vcpu as u32,
                gen,
            },
        );
    }

    /// Account a guest span `[frontier, t)` on the vCPU's pCPU: the
    /// pollution debt burns first, the rest is thread work.
    fn account_guest_span(&mut self, vm: usize, vcpu: usize, t: SimTime) {
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let start = self.pcpus[p.0 as usize].frontier();
        if t <= start {
            return;
        }
        let span = t.since(start);
        let debt = self.vms[vm].ctl[vcpu].pollution;
        let polluted = span.min_of(debt);
        let worked = span - polluted;
        self.vms[vm].ctl[vcpu].pollution = debt - polluted;
        if !polluted.is_zero() {
            self.pcpus[p.0 as usize].account(CycleCategory::Pollution, polluted);
        }
        if !worked.is_zero() {
            self.pcpus[p.0 as usize].account(CycleCategory::GuestWork, worked);
            if let Some(tid) = self.vms[vm].kernel.sched.rq(vcpu).current() {
                let ts = &mut self.vms[vm].threads[tid.0 as usize];
                ts.seg_remaining = ts.seg_remaining.saturating_sub(worked);
            }
        }
    }

    /// Something interrupts a running vCPU at `t`: account the partial
    /// segment and invalidate the pending stop event.
    fn interrupt_running(&mut self, vm: usize, vcpu: usize, t: SimTime) {
        debug_assert!(self.vms[vm].vcpus[vcpu].is_running());
        self.account_guest_span(vm, vcpu, t);
        self.vms[vm].ctl[vcpu].stop_gen += 1;
    }

    /// Pull actions from the current thread's model and execute them
    /// until the thread computes, blocks or exits.
    fn fetch_actions(&mut self, vm: usize, vcpu: usize) {
        loop {
            let Some(tid) = self.vms[vm].kernel.sched.rq(vcpu).current() else {
                self.guest_idle(vm, vcpu);
                return;
            };
            let ti = tid.0 as usize;
            // Pending condvar-wakeup lock re-acquisition comes before
            // any further program actions.
            if let Some(lock) = self.vms[vm].threads[ti].reacquire {
                let p = self.vms[vm].vcpus[vcpu].affinity;
                if self.vms[vm].locks[lock as usize].holder() == Some(tid) {
                    // Handed the lock during the wake: done.
                    self.vms[vm].threads[ti].reacquire = None;
                } else {
                    self.pcpus[p.0 as usize]
                        .account(CycleCategory::GuestOs, self.cost.futex_fast);
                    match self.vms[vm].locks[lock as usize].lock(tid) {
                        LockOutcome::Acquired => {
                            self.vms[vm].threads[ti].reacquire = None;
                        }
                        LockOutcome::Blocked => {
                            self.vms[vm].threads[ti].status = ThreadStatus::BlockedLock;
                            self.block_current(vm, vcpu);
                            return;
                        }
                    }
                }
            }
            let action = self.vms[vm].threads[ti].model.next(&mut self.rng);
            let p = self.vms[vm].vcpus[vcpu].affinity;
            // NO_HZ_FULL context tracking: every kernel entry/exit pays
            // the RCU user-context accounting tax (§2's "highly specific
            // workloads" caveat made concrete).
            if self.vms[vm].mode == TickMode::FullDynticks
                && !matches!(action, Action::Compute(_) | Action::Done)
            {
                self.pcpus[p.0 as usize].account(
                    CycleCategory::GuestOs,
                    self.cost.context_tracking,
                );
            }
            match action {
                Action::Compute(d) => {
                    self.vms[vm].threads[ti].seg_remaining = d;
                    self.schedule_stop(vm, vcpu);
                    return;
                }
                Action::Lock(id) => {
                    self.pcpus[p.0 as usize]
                        .account(CycleCategory::GuestOs, self.cost.futex_fast);
                    match self.vms[vm].locks[id as usize].lock(tid) {
                        LockOutcome::Acquired => continue,
                        LockOutcome::Blocked => {
                            // Adaptive spin, then futex-wait.
                            self.pcpus[p.0 as usize]
                                .account(CycleCategory::GuestOs, self.cost.spin_before_block);
                            for _ in 0..self.cost.spin_ple_exits {
                                self.sync_exit(vm, vcpu, ExitReason::PauseLoop);
                            }
                            self.vms[vm].threads[ti].status = ThreadStatus::BlockedLock;
                            self.block_current(vm, vcpu);
                            return;
                        }
                    }
                }
                Action::Unlock(id) => {
                    self.pcpus[p.0 as usize]
                        .account(CycleCategory::GuestOs, self.cost.futex_fast);
                    if let Some(next) = self.vms[vm].locks[id as usize].unlock(tid) {
                        self.wake_thread(vm, next, Some(vcpu));
                    }
                    continue;
                }
                Action::Barrier(id) => {
                    self.pcpus[p.0 as usize]
                        .account(CycleCategory::GuestOs, self.cost.futex_fast);
                    match self.vms[vm].barriers[id as usize].arrive(tid) {
                        BarrierOutcome::Waiting => {
                            self.vms[vm].threads[ti].status = ThreadStatus::BlockedBarrier;
                            self.block_current(vm, vcpu);
                            return;
                        }
                        BarrierOutcome::Released(woken) => {
                            for w in woken {
                                self.wake_thread(vm, w, Some(vcpu));
                            }
                            continue;
                        }
                    }
                }
                Action::CondWait { cond, lock } => {
                    self.pcpus[p.0 as usize]
                        .account(CycleCategory::GuestOs, self.cost.futex_fast);
                    let c = cond as usize;
                    if self.vms[vm].condvars.len() <= c {
                        self.vms[vm].condvars.resize_with(c + 1, GuestCondvar::new);
                    }
                    self.vms[vm].condvars[c].wait(tid);
                    self.vms[vm].threads[ti].reacquire = Some(lock);
                    self.vms[vm].threads[ti].status = ThreadStatus::BlockedCond;
                    // Atomically release the lock as part of the wait.
                    if let Some(next) = self.vms[vm].locks[lock as usize].unlock(tid) {
                        self.wake_thread(vm, next, Some(vcpu));
                    }
                    self.block_current(vm, vcpu);
                    return;
                }
                Action::CondNotify { cond, all } => {
                    self.pcpus[p.0 as usize]
                        .account(CycleCategory::GuestOs, self.cost.futex_fast);
                    let c = cond as usize;
                    if self.vms[vm].condvars.len() <= c {
                        self.vms[vm].condvars.resize_with(c + 1, GuestCondvar::new);
                    }
                    let woken: Vec<ThreadId> = if all {
                        self.vms[vm].condvars[c].notify_all()
                    } else {
                        self.vms[vm].condvars[c].notify_one().into_iter().collect()
                    };
                    for w in woken {
                        self.wake_thread(vm, w, Some(vcpu));
                    }
                    continue;
                }
                Action::Io { op, offset, bytes } => {
                    self.pcpus[p.0 as usize]
                        .account(CycleCategory::GuestOs, self.cost.io_submit);
                    self.sync_exit(vm, vcpu, ExitReason::IoKick);
                    let now = self.pcpus[p.0 as usize].frontier();
                    let done =
                        self.vms[vm]
                            .device
                            .submit(now, IoRequest { op, offset, bytes }, &mut self.rng);
                    self.queue.push(
                        done.max(self.now),
                        Ev::IoDone {
                            vm: vm as u32,
                            thread: tid.0,
                        },
                    );
                    self.vms[vm].threads[ti].status = ThreadStatus::BlockedIo;
                    self.block_current(vm, vcpu);
                    return;
                }
                Action::Sleep(d) => {
                    let now = self.pcpus[p.0 as usize].frontier();
                    self.vms[vm]
                        .kernel
                        .add_soft_timer(vcpu, now, d, SoftTimer::WakeThread(tid));
                    self.vms[vm].threads[ti].status = ThreadStatus::Sleeping;
                    self.block_current(vm, vcpu);
                    return;
                }
                Action::Done => {
                    self.vms[vm].threads[ti].status = ThreadStatus::Done;
                    self.vms[vm].live_threads -= 1;
                    if self.vms[vm].live_threads == 0 {
                        let now = self.pcpus[p.0 as usize].frontier();
                        self.vms[vm].finished_at = Some(now);
                        self.emit(now, SimEvent::WorkloadDone { vm: vm as u32 });
                    }
                    self.block_current(vm, vcpu);
                    return;
                }
            }
        }
    }

    /// The current thread left the CPU: pick another or enter idle.
    fn block_current(&mut self, vm: usize, vcpu: usize) {
        // Kernel housekeeping (dentry churn, net, cgroups) queues RCU
        // callbacks at a low background *time* rate; RCU pressure is
        // what keeps the tick on at idle entry (Figure 1b "tick
        // needed?"). ~60 ms mean inter-arrival per VM.
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let now = self.pcpus[p.0 as usize].frontier();
        if self.rcu_background && now >= self.vms[vm].next_rcu_at {
            let j = self.vms[vm].kernel.jiffies(now);
            self.vms[vm].kernel.rcu.queue_callback(vcpu, j);
            let gap = SimDuration::from_nanos(self.rng.exponential(60e6) as u64);
            self.vms[vm].next_rcu_at = now + gap;
        }
        let _ = self.vms[vm].kernel.sched.block_current(vcpu);
        match self.vms[vm].kernel.sched.pick_next(vcpu) {
            Some(next) => {
                self.vms[vm].threads[next.0 as usize].status = ThreadStatus::Running;
                let p = self.vms[vm].vcpus[vcpu].affinity;
                self.pcpus[p.0 as usize]
                    .account(CycleCategory::GuestOs, self.cost.ctx_switch);
                self.fetch_actions(vm, vcpu);
            }
            None => self.guest_idle(vm, vcpu),
        }
    }

    /// The guest idle path: newly-idle balancing, then the idle-entry
    /// tick decision and HLT.
    fn guest_idle(&mut self, vm: usize, vcpu: usize) {
        let p = self.vms[vm].vcpus[vcpu].affinity;
        // CFS newidle_balance: pull a queued thread from the busiest
        // sibling run queue instead of idling while work waits.
        if let Some(stolen) = self.vms[vm].kernel.sched.steal_for(vcpu) {
            if self.vms[vm].kernel.is_idle(vcpu) {
                let now = self.pcpus[p.0 as usize].frontier();
                let contended = self.vms[vm].kernel.sched.is_contended(vcpu);
                let act = self.vms[vm].kernel.cpus[vcpu]
                    .tick
                    .on_idle_exit(now, contended);
                self.apply_timer_action(vm, vcpu, act);
                self.vms[vm].kernel.set_idle(vcpu, false);
            }
            self.vms[vm].threads[stolen.0 as usize].status = ThreadStatus::Running;
            // Migration: context switch plus cold-cache penalty.
            self.pcpus[p.0 as usize].account(
                CycleCategory::GuestOs,
                self.cost.ctx_switch * 2,
            );
            let rem = self.vms[vm].threads[stolen.0 as usize].seg_remaining;
            if rem.is_zero() {
                self.fetch_actions(vm, vcpu);
            } else {
                self.schedule_stop(vm, vcpu);
            }
            return;
        }
        self.pcpus[p.0 as usize]
            .account(CycleCategory::GuestOs, self.cost.idle_entry);
        let now = self.pcpus[p.0 as usize].frontier();
        let armed = self.vms[vm].vcpus[vcpu].armed_timer_expiry();
        let ctx = self.vms[vm].kernel.idle_entry_ctx(vcpu, now, armed);
        let act = self.vms[vm].kernel.cpus[vcpu].tick.on_idle_entry(ctx);
        self.vms[vm].kernel.set_idle(vcpu, true);
        self.apply_timer_action(vm, vcpu, act);
        // A Program() for an already-passed instant raises LOCAL_TIMER
        // immediately: service it before halting.
        if self.vms[vm].vcpus[vcpu].lapic.has_pending() {
            self.enter_guest(vm, vcpu);
            if self.vms[vm].vcpus[vcpu].is_running() {
                self.resume(vm, vcpu);
            }
            return;
        }
        // HLT.
        self.sync_exit(vm, vcpu, ExitReason::Hlt);
        // Pollution from idle-entry-side exits (the deferred-timer MSR
        // write, the HLT itself) dissipates during the idle period —
        // caches and TLBs refill while nothing runs. Only exits followed
        // by guest execution slow the workload down.
        self.vms[vm].ctl[vcpu].pollution = SimDuration::ZERO;
        let now = self.pcpus[p.0 as usize].frontier();
        let r = self.vms[vm].vcpus[vcpu].set_halted(now);
        if !self.check(r) {
            return;
        }
        let ev = SimEvent::IdleEnter {
            vcpu: self.vms[vm].vcpus[vcpu].id,
            pcpu: p,
        };
        self.emit(now, ev);
        self.sched.deschedule(p, false);
        self.pcpu_mode[p.0 as usize] = PcpuMode::Idle;
        self.try_dispatch(p);
        if self.pcpu_mode[p.0 as usize] == PcpuMode::Idle {
            self.disable_host_tick(p);
        }
    }

    // ----------------------------------------------------------------
    // Wakeups
    // ----------------------------------------------------------------

    /// Wake a guest thread. `waker_vcpu` is the vCPU in whose guest
    /// context the wake originates.
    fn wake_thread(&mut self, vm: usize, tid: ThreadId, waker_vcpu: Option<usize>) {
        debug_assert_ne!(
            self.vms[vm].threads[tid.0 as usize].status,
            ThreadStatus::Done
        );
        self.vms[vm].threads[tid.0 as usize].status = ThreadStatus::Ready;
        let placement = self.vms[vm].kernel.sched.wake(tid);
        let target = placement.cpu;
        if !placement.needs_kick || waker_vcpu == Some(target) {
            // Target busy (thread queued), or woken onto the CPU doing
            // the waking: picked up at the next scheduling point. One
            // exception: a full-dynticks CPU running tickless with a
            // solo task would never time-slice — Linux kicks it with an
            // IPI to restart the tick.
            if self.vms[vm].mode == TickMode::FullDynticks
                && waker_vcpu != Some(target)
                && self.vms[vm].vcpus[target].state() == VcpuRunState::Running
            {
                if let Some(w) = waker_vcpu {
                    self.sync_exit(vm, w, ExitReason::ApicIpi);
                }
                let p = self.vms[vm].vcpus[target].affinity;
                let at = self.pcpus[p.0 as usize].frontier().max(self.now);
                self.queue.push(
                    at,
                    Ev::Kick {
                        vm: vm as u32,
                        vcpu: target as u32,
                    },
                );
            }
            return;
        }
        // The target vCPU idles: kick it.
        let cross = {
            let t_sock = self.pcpus[self.vms[vm].vcpus[target].affinity.0 as usize].socket;
            match waker_vcpu {
                Some(w) => self.pcpus[self.vms[vm].vcpus[w].affinity.0 as usize].socket != t_sock,
                None => false,
            }
        };
        if let Some(w) = waker_vcpu {
            debug_assert!(self.vms[vm].vcpus[w].is_running(), "IPI from non-running vCPU");
            // Guest-initiated kick: the APIC ICR write traps.
            self.sync_exit(vm, w, ExitReason::ApicIpi);
            self.vms[vm].vcpus[target].lapic.request(Vector::RESCHEDULE);
        }
        if self.vms[vm].vcpus[target].state() == VcpuRunState::Halted {
            self.wake_vcpu(vm, target, cross);
        }
    }

    /// Wake a halted vCPU: halt-poll accounting, wakeup latency, host
    /// scheduler enqueue, dispatch if its pCPU is free.
    fn wake_vcpu(&mut self, vm: usize, vcpu: usize, cross_socket: bool) {
        debug_assert_eq!(self.vms[vm].vcpus[vcpu].state(), VcpuRunState::Halted);
        let p = self.vms[vm].vcpus[vcpu].affinity;
        let t = self.pcpus[p.0 as usize].frontier().max(self.now);
        // Halt polling is decided retroactively at wake time: if the
        // wake landed inside the poll window, the vCPU never blocked.
        let polled_hit = if self.halt_poll_enabled {
            let Some(halted_at) = self.vms[vm].vcpus[vcpu].halted_since() else {
                self.fail(SimError::internal("halted vCPU without halt timestamp"));
                return;
            };
            let hp = &mut self.vms[vm].halt_poll[vcpu];
            matches!(hp.on_halt(halted_at, Some(t)), PollOutcome::Success { .. })
        } else {
            false
        };
        if self.halt_poll_enabled {
            let ev = SimEvent::HaltPoll {
                vcpu: self.vms[vm].vcpus[vcpu].id,
                hit: polled_hit,
            };
            self.emit(t, ev);
        }
        if self.pcpu_mode[p.0 as usize] == PcpuMode::Idle {
            self.account_gap(p, t);
            if polled_hit {
                // The pCPU was busy-polling instead of idle: charge one
                // poll window and skip the scheduler wakeup.
                let w = self.vms[vm].halt_poll[vcpu].window();
                self.pcpus[p.0 as usize].account(CycleCategory::HostOs, w);
            } else {
                self.pcpus[p.0 as usize].account(
                    CycleCategory::HostOs,
                    self.cost.wakeup_latency(cross_socket),
                );
            }
        }
        let now = self.pcpus[p.0 as usize].frontier().max(self.now);
        let ev = SimEvent::IdleExit {
            vcpu: self.vms[vm].vcpus[vcpu].id,
            pcpu: p,
            idle_ns: self.vms[vm].vcpus[vcpu]
                .halted_since()
                .map(|s| now.saturating_since(s).as_nanos())
                .unwrap_or(0),
        };
        self.emit(now, ev);
        if let Some(since) = self.vms[vm].vcpus[vcpu].halted_since() {
            self.vms[vm]
                .t_idle_hist
                .record(now.saturating_since(since).as_nanos());
        }
        let r = self.vms[vm].vcpus[vcpu].wake(now);
        if !self.check(r) {
            return;
        }
        self.sched.enqueue(VcpuId::new(vm as u32, vcpu as u32), p);
        self.try_dispatch(p);
    }

    // ----------------------------------------------------------------
    // Event handlers
    // ----------------------------------------------------------------

    fn on_vcpu_stop(&mut self, vm: usize, vcpu: usize, gen: u64, t: SimTime) {
        if self.vms[vm].ctl[vcpu].stop_gen != gen {
            return; // stale
        }
        debug_assert!(self.vms[vm].vcpus[vcpu].is_running());
        self.account_guest_span(vm, vcpu, t);
        let Some(tid) = self.vms[vm].kernel.sched.rq(vcpu).current() else {
            self.fail(SimError::internal("stop without a thread"));
            return;
        };
        debug_assert!(self.vms[vm].threads[tid.0 as usize].seg_remaining.is_zero());
        self.fetch_actions(vm, vcpu);
    }

    fn on_guest_timer(&mut self, vm: usize, vcpu: usize, gen: u64, t: SimTime) {
        if self.vms[vm].ctl[vcpu].timer_gen != gen {
            return; // re-armed or disarmed since
        }
        match self.vms[vm].vcpus[vcpu].timer_backend {
            TimerBackend::TscDeadline => self.vms[vm].vcpus[vcpu].deadline.expire(),
            TimerBackend::LapicOneshot => self.vms[vm].vcpus[vcpu].oneshot.expire(),
        }
        match self.vms[vm].vcpus[vcpu].state() {
            VcpuRunState::Running => {
                // Preemption-timer exit on the vCPU itself.
                let p = self.vms[vm].vcpus[vcpu].affinity;
                self.interrupt_running(vm, vcpu, t.max(self.pcpus[p.0 as usize].frontier()));
                self.sync_exit(vm, vcpu, ExitReason::PreemptionTimer);
                let at = self.pcpus[p.0 as usize].frontier();
                let ev = SimEvent::TimerFire {
                    vcpu: self.vms[vm].vcpus[vcpu].id,
                };
                self.emit(at, ev);
                self.vms[vm].vcpus[vcpu].lapic.request(Vector::LOCAL_TIMER);
                self.enter_guest(vm, vcpu);
                if self.vms[vm].vcpus[vcpu].is_running() {
                    self.resume(vm, vcpu);
                }
            }
            VcpuRunState::Halted | VcpuRunState::Runnable => {
                // Host hrtimer fires on the vCPU's home pCPU, possibly
                // interrupting whoever runs there (§3.1: "the running
                // vCPU is suspended whenever a tick interrupt arrives
                // for a descheduled vCPU").
                let p = self.vms[vm].vcpus[vcpu].affinity;
                let at = t.max(self.pcpus[p.0 as usize].frontier());
                let ev = SimEvent::TimerFire {
                    vcpu: self.vms[vm].vcpus[vcpu].id,
                };
                self.emit(at, ev);
                self.vms[vm].vcpus[vcpu].lapic.request(Vector::LOCAL_TIMER);
                let resume = self.host_touch_begin(p, t);
                self.pcpus[p.0 as usize]
                    .account(CycleCategory::HostOs, self.cost.host_tick / 2);
                if self.vms[vm].vcpus[vcpu].state() == VcpuRunState::Halted {
                    self.wake_vcpu(vm, vcpu, false);
                }
                self.host_touch_end(p, resume);
            }
        }
    }

    fn on_host_tick(&mut self, p: PcpuId, gen: u64, t: SimTime) {
        let i = p.0 as usize;
        if self.host_tick_gen[i] != gen || !self.host_tick_on[i] {
            return;
        }
        match self.pcpu_mode[i] {
            PcpuMode::Idle => {
                self.disable_host_tick(p);
                return;
            }
            PcpuMode::Guest { vm, vcpu } => {
                let (vm, vcpu) = (vm as usize, vcpu as usize);
                self.emit(t, SimEvent::HostTick { pcpu: p });
                self.interrupt_running(vm, vcpu, t.max(self.pcpus[i].frontier()));
                self.sync_exit(vm, vcpu, ExitReason::ExternalInterrupt);
                self.pcpus[i].account(CycleCategory::HostOs, self.cost.host_tick);
                let now = self.pcpus[i].frontier();
                if self.sched.is_contended(p)
                    && now.since(self.slice_start[i]) >= self.sched.slice()
                {
                    // Host CFS slice expiry: rotate.
                    let r = self.vms[vm].vcpus[vcpu].set_preempted(now);
                    if !self.check(r) {
                        return;
                    }
                    self.sched.deschedule(p, true);
                    let ev = SimEvent::Preempt {
                        vcpu: self.vms[vm].vcpus[vcpu].id,
                        pcpu: p,
                        run_queue: self.sched.waiting(p) as u32,
                    };
                    self.emit(now, ev);
                    self.pcpu_mode[i] = PcpuMode::Idle;
                    self.try_dispatch(p);
                } else {
                    // Re-enter the same vCPU: the paratick hook sees
                    // this entry (the "free" tick-injection point).
                    self.enter_guest(vm, vcpu);
                    if self.vms[vm].vcpus[vcpu].is_running() {
                        self.resume(vm, vcpu);
                    }
                }
            }
        }
        if self.host_tick_on[i] {
            let next = t.round_down(self.host_hz_period) + self.host_hz_period;
            let gen = self.host_tick_gen[i];
            self.queue.push(next.max(self.now), Ev::HostTick { pcpu: p.0, gen });
        }
    }

    fn on_io_done(&mut self, vm: usize, thread: u32, t: SimTime) {
        debug_assert_eq!(
            self.vms[vm].threads[thread as usize].status,
            ThreadStatus::BlockedIo
        );
        self.vms[vm].io_ready.push_back(thread);
        // The completion interrupt targets the thread's home vCPU.
        let target = self.vms[vm].kernel.sched.prev_cpu(ThreadId(thread));
        match self.vms[vm].vcpus[target].state() {
            VcpuRunState::Running => {
                let p = self.vms[vm].vcpus[target].affinity;
                self.interrupt_running(vm, target, t.max(self.pcpus[p.0 as usize].frontier()));
                self.sync_exit(vm, target, ExitReason::ExternalInterrupt);
                self.vms[vm].vcpus[target].lapic.request(Vector::BLOCK_IO);
                self.enter_guest(vm, target);
                if self.vms[vm].vcpus[target].is_running() {
                    self.resume(vm, target);
                }
            }
            VcpuRunState::Halted => {
                self.vms[vm].vcpus[target].lapic.request(Vector::BLOCK_IO);
                let p = self.vms[vm].vcpus[target].affinity;
                let resume = self.host_touch_begin(p, t);
                self.pcpus[p.0 as usize]
                    .account(CycleCategory::HostOs, self.cost.host_tick / 2);
                if self.vms[vm].vcpus[target].state() == VcpuRunState::Halted {
                    self.wake_vcpu(vm, target, false);
                }
                self.host_touch_end(p, resume);
            }
            VcpuRunState::Runnable => {
                // Delivered at the next VM entry.
                self.vms[vm].vcpus[target].lapic.request(Vector::BLOCK_IO);
            }
        }
    }

    // ----------------------------------------------------------------
    // Host-side interruption of a pCPU
    // ----------------------------------------------------------------

    /// The host must do work on `p` at `t` (hrtimer, device irq). If a
    /// vCPU runs there it takes an external-interrupt exit. Returns the
    /// interrupted vCPU for [`Self::host_touch_end`].
    fn host_touch_begin(&mut self, p: PcpuId, t: SimTime) -> Option<(usize, usize)> {
        let i = p.0 as usize;
        match self.pcpu_mode[i] {
            PcpuMode::Idle => {
                self.account_gap(p, t.max(self.pcpus[i].frontier()));
                None
            }
            PcpuMode::Guest { vm, vcpu } => {
                let (vm, vcpu) = (vm as usize, vcpu as usize);
                self.interrupt_running(vm, vcpu, t.max(self.pcpus[i].frontier()));
                self.sync_exit(vm, vcpu, ExitReason::ExternalInterrupt);
                Some((vm, vcpu))
            }
        }
    }

    fn host_touch_end(&mut self, p: PcpuId, resume: Option<(usize, usize)>) {
        match resume {
            Some((vm, vcpu)) => {
                if self.vms[vm].vcpus[vcpu].is_running() {
                    self.enter_guest(vm, vcpu);
                    if self.vms[vm].vcpus[vcpu].is_running() {
                        self.resume(vm, vcpu);
                    }
                }
            }
            None => self.try_dispatch(p),
        }
    }

    // ----------------------------------------------------------------
    // Finalization
    // ----------------------------------------------------------------

    fn finalize(mut self) -> RunMetrics {
        let end = match self.run_until {
            RunUntil::Time(t) => t,
            RunUntil::AllWorkloadsDone => self
                .vms
                .iter()
                .filter_map(|v| v.finished_at)
                .max()
                .unwrap_or(self.now),
        };
        // Flush accounting to the end time.
        for i in 0..self.pcpus.len() {
            if self.pcpus[i].frontier() >= end {
                continue;
            }
            match self.pcpu_mode[i] {
                PcpuMode::Idle => self.pcpus[i].account_until(CycleCategory::Idle, end),
                PcpuMode::Guest { vm, vcpu } => {
                    self.account_guest_span(vm as usize, vcpu as usize, end);
                    if self.pcpus[i].frontier() < end {
                        self.pcpus[i].account_until(CycleCategory::GuestWork, end);
                    }
                }
            }
        }
        for s in &mut self.sinks {
            s.finish(end);
        }
        let audit = std::mem::take(&mut self.audit).finalize(&self.pcpus, end);
        let profile = EngineProfile {
            wall_nanos: self.wall.as_nanos() as u64,
            wall_timed_kinds: self.prof_wall,
            queue_depth_high_water: self.queue.depth_high_water() as u64,
            per_kind: Ev::KIND_NAMES
                .iter()
                .zip(self.prof_counts.iter().zip(self.prof_wall_ns.iter()))
                .map(|(name, (&count, &wall_nanos))| KindProfile {
                    kind: (*name).to_string(),
                    count,
                    wall_nanos,
                })
                .collect(),
        };
        let freq = self.cost.cpu_freq;
        let per_vm: Vec<VmMetrics> = self
            .vms
            .iter()
            .map(|vm| {
                let mut m = VmMetrics::collect(&vm.name, vm.mode, &vm.vcpus, vm.finished_at);
                m.idle_periods_hist = vm.t_idle_hist.clone();
                for cl in &vm.kernel.cpus {
                    if let paratick_guest::TickSched::Paratick(p) = &cl.tick {
                        m.paratick_timer_reuse += p.timer_reuse_hits;
                        m.paratick_timers_programmed += p.timers_programmed;
                    }
                }
                m
            })
            .collect();
        let system = SystemStats::collect(
            self.vms.iter().flat_map(|v| v.vcpus.iter()),
            self.pcpus.iter(),
        );
        RunMetrics {
            duration: end,
            freq,
            per_vm,
            system,
            events_dispatched: self.queue.dispatched(),
            profile,
            audit,
            faults: self.fault_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected(cost: &CostModel, ple: Ple) -> CostTable {
        let mut direct = [SimDuration::ZERO; ExitReason::COUNT];
        let mut indirect = [SimDuration::ZERO; ExitReason::COUNT];
        for r in ExitReason::ALL {
            direct[r.index()] = cost.direct_duration(r);
            indirect[r.index()] = cost.indirect_duration(r);
        }
        let spin_cycles = cost
            .cpu_freq
            .duration_to_cycles(cost.spin_before_block_duration())
            .get();
        CostTable {
            cpu_freq: cost.cpu_freq,
            direct,
            indirect,
            injection: cost.injection_duration(),
            host_tick: cost.host_tick_duration(),
            guest_tick_handler: cost.guest_tick_handler_duration(),
            guest_irq_overhead: cost.guest_irq_overhead_duration(),
            idle_entry: cost.idle_entry_duration(),
            ctx_switch: cost.ctx_switch_duration(),
            futex_fast: cost.futex_fast_duration(),
            spin_before_block: cost.spin_before_block_duration(),
            spin_ple_exits: ple.exits_for_spin(spin_cycles),
            io_submit: cost.io_submit_duration(),
            io_irq: cost.io_irq_duration(),
            context_tracking: cost.context_tracking_duration(),
            wakeup_local: cost.wakeup_latency_for(false),
            wakeup_cross_socket: cost.wakeup_latency_for(true),
        }
    }

    #[test]
    fn cost_table_equals_cost_model_durations() {
        let default = CostModel::default();
        for cost in [default.clone(), default.scaled(0.5)] {
            for ple in [Ple::disabled(), Ple::kvm_default()] {
                let table = CostTable::new(&cost, ple);
                assert_eq!(table, expected(&cost, ple));
                assert_eq!(table.wakeup_latency(false), cost.wakeup_latency_for(false));
                assert_eq!(table.wakeup_latency(true), cost.wakeup_latency_for(true));
            }
        }
        // Spinning before a block is long enough to trip PLE when on.
        assert!(CostTable::new(&default, Ple::kvm_default()).spin_ple_exits > 0);
        assert_ne!(
            CostTable::new(&default, Ple::disabled()).direct,
            CostTable::new(&default.scaled(0.5), Ple::disabled()).direct,
            "scaled exit costs reach the table"
        );
    }
}
