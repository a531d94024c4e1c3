//! The traced run's instruments: in-memory spans, a timing wrapper
//! around `ThreadModel::next`, and an event sink that records the
//! structured event stream and replays it through single layers.
//!
//! Spans are taken in the benchmark's own code, around its calls into
//! each layer. Layers the engine calls from inside its main loop
//! (auditor, host scheduler, exit bookkeeping, TSC deadline, event
//! queue) cannot be spanned from outside; they are measured by replaying
//! the recorded stream through the same public types, and those spans
//! carry the `replay.` prefix so they are never mistaken for in-run
//! time.

use paratick::audit::InvariantAuditor;
use paratick_sim::{EventQueue, Freq, SimDuration, SimRng, SimTime, StableHasher};
use paratick_vmm::{
    EventSink, ExitReason, HostScheduler, KvmVcpu, PcpuId, SchedDecision, SimEvent, VcpuId,
};
use paratick_workloads::{Action, ThreadModel};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the process epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The simulation this span belongs to (`workload/cell/mode/seed`).
    pub sim: Option<Arc<str>>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log; a span's id is its index.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            list: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Spans::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        sim: Option<&Arc<str>>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.closed(name, parent, sim, start_ns, start_ns)
    }

    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let s = &mut self.list[id];
        s.end_ns = now;
        s.dur_ns()
    }

    /// Record a span measured elsewhere.
    pub fn closed(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        sim: Option<&Arc<str>>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.list.push(Span {
            name,
            parent,
            sim: sim.cloned(),
            start_ns,
            end_ns,
        });
        self.list.len() - 1
    }

    /// Append another log, re-basing its parent ids.
    pub fn absorb(&mut self, other: Spans, parent: Option<usize>) {
        let base = self.list.len();
        for mut s in other.list {
            s.parent = s.parent.map(|p| p + base).or(parent);
            self.list.push(s);
        }
    }

    /// Per-span self time: duration minus the children's durations,
    /// never below zero. Children share their parent's thread, except a
    /// pass's cells, which run on parallel workers (its self time reads
    /// zero).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.list
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// The log as JSON lines' worth of objects, with self times.
    pub fn to_json(&self) -> String {
        let selfs = self.self_ns();
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.list.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sim = s
                .sim
                .as_ref()
                .map_or("null".to_string(), |id| format!("\"{id}\""));
            out.push_str(&format!(
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"sim\":{sim},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.list.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Calls and measured nanoseconds of `ThreadModel::next`, shared by the
/// wrappers of one run.
#[derive(Default, Debug)]
pub struct NextTally {
    inner: Mutex<(u64, u64)>,
}

impl NextTally {
    pub fn get(&self) -> (u64, u64) {
        *self.inner.lock().expect("next tally lock")
    }
}

/// Delegating `ThreadModel` that times each `next` call. Counts are
/// kept locally and added to the shared tally when the engine drops
/// its threads, so the hot path has no shared writes.
pub struct TimedThread {
    inner: Box<dyn ThreadModel>,
    calls: u64,
    ns: u64,
    tally: Arc<NextTally>,
}

impl TimedThread {
    pub fn wrap(inner: Box<dyn ThreadModel>, tally: &Arc<NextTally>) -> Box<dyn ThreadModel> {
        Box::new(TimedThread {
            inner,
            calls: 0,
            ns: 0,
            tally: tally.clone(),
        })
    }
}

impl ThreadModel for TimedThread {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        let t0 = Instant::now();
        let a = self.inner.next(rng);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        a
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        self.inner.fingerprint(h)
    }
}

impl Drop for TimedThread {
    fn drop(&mut self) {
        if let Ok(mut t) = self.tally.inner.lock() {
            t.0 += self.calls;
            t.1 += self.ns;
        }
    }
}

/// Time spent inside measured calls after removing the timer's own
/// per-call cost; never negative.
pub fn net_ns(measured_ns: u64, calls: u64, per_call_ns: f64) -> u64 {
    let overhead = (calls as f64 * per_call_ns.max(0.0)) as u64;
    measured_ns.saturating_sub(overhead)
}

/// Per-call costs of the instruments themselves, measured on this
/// machine before the traced pass.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// What a `TimedThread` adds to its own measurement of `next`.
    pub next_inside_ns: f64,
    /// What a `TimedThread` adds to its caller's time per call.
    pub next_outside_ns: f64,
    /// What the recording sink adds to the engine per event.
    pub sink_per_event_ns: f64,
}

struct Noop;

impl ThreadModel for Noop {
    fn next(&mut self, _rng: &mut SimRng) -> Action {
        black_box(Action::Compute(SimDuration::from_nanos(1)))
    }
}

fn per_call<F: FnMut()>(n: u64, mut f: F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

impl Calibration {
    /// Median of several short trials of each instrument against a
    /// no-op target.
    pub fn measure() -> Calibration {
        const N: u64 = 200_000;
        let mut inside = Vec::new();
        let mut outside = Vec::new();
        let mut sink = Vec::new();
        let mut rng = SimRng::new(1);
        for _ in 0..7 {
            let tally = Arc::new(NextTally::default());
            let mut plain: Box<dyn ThreadModel> = Box::new(Noop);
            let mut timed = TimedThread::wrap(Box::new(Noop), &tally);
            let bare = per_call(N, || {
                black_box(plain.next(&mut rng));
            });
            let wrapped = per_call(N, || {
                black_box(timed.next(&mut rng));
            });
            drop(timed);
            let (calls, ns) = tally.get();
            inside.push(ns as f64 / calls as f64);
            outside.push(wrapped - bare);

            let (rec, _) = Recorder::new(None, Instant::now(), 1, &[], Freq::mhz(2000));
            let mut rec: Box<dyn EventSink> = Box::new(rec);
            let ev = SimEvent::HostTick { pcpu: PcpuId(0) };
            sink.push(per_call(N, || rec.on_event(SimTime::ZERO, black_box(&ev))));
        }
        Calibration {
            next_inside_ns: crate::stats::median(&inside),
            next_outside_ns: crate::stats::median(&outside).max(0.0),
            sink_per_event_ns: crate::stats::median(&sink),
        }
    }
}

/// Events buffered before a replay flush (bounds the recorder's memory).
const CHUNK: usize = 1 << 16;

/// Guest-mechanism counts read off the event stream.
pub const GUEST_COUNTS: [&str; 5] = [
    "idle_enter",
    "inject",
    "virtual_tick",
    "timer_program",
    "hypercall",
];

/// Totals of one run's replays.
#[derive(Clone, Debug, Default)]
pub struct ReplayTotals {
    pub simevents: u64,
    pub audit_ns: u64,
    pub sched_ns: u64,
    pub sched_ops: u64,
    pub exit_ns: u64,
    pub exits: u64,
    pub deadline_ns: u64,
    pub deadline_ops: u64,
    /// Exits per reason as replayed through `KvmVcpu::record_exit`.
    pub replayed_exits: [u64; ExitReason::COUNT],
    /// [`GUEST_COUNTS`], in order.
    pub guest: [u64; 5],
}

/// Replay state of one run: a fresh auditor, host scheduler and
/// per-vCPU hypervisor state, fed chunk by chunk.
pub struct Replay {
    chunk: Vec<(SimTime, SimEvent)>,
    auditor: InvariantAuditor,
    sched: HostScheduler,
    vcpus: Vec<Vec<KvmVcpu>>,
    pub totals: ReplayTotals,
    /// Closed spans of the flushes, taken against the recorder's epoch;
    /// the flush spans are roots here and get their parent on absorb.
    pub spans: Spans,
    sim: Option<Arc<str>>,
    enabled: bool,
}

/// The recording sink the traced engine carries. It shares its state
/// with the caller through the returned handle, because the engine owns
/// (and drops) the sink.
pub struct Recorder {
    state: Rc<RefCell<Replay>>,
}

impl Recorder {
    /// `vcpus_per_vm` sizes the replayed hypervisor state. With
    /// `sim = None` the recorder only buffers (calibration).
    pub fn new(
        sim: Option<Arc<str>>,
        epoch: Instant,
        pcpus: usize,
        vcpus_per_vm: &[u32],
        freq: Freq,
    ) -> (Recorder, Rc<RefCell<Replay>>) {
        let vcpus = vcpus_per_vm
            .iter()
            .enumerate()
            .map(|(vm, &n)| {
                (0..n)
                    .map(|v| {
                        let mut k =
                            KvmVcpu::new(VcpuId::new(vm as u32, v), PcpuId(0), freq, SimTime::ZERO);
                        let _ = k.set_running(SimTime::ZERO);
                        k
                    })
                    .collect()
            })
            .collect();
        let state = Rc::new(RefCell::new(Replay {
            chunk: Vec::with_capacity(CHUNK),
            auditor: InvariantAuditor::new(),
            sched: HostScheduler::new(pcpus.max(1), HostScheduler::DEFAULT_SLICE),
            vcpus,
            totals: ReplayTotals::default(),
            spans: Spans::new(epoch),
            enabled: sim.is_some(),
            sim,
        }));
        (
            Recorder {
                state: state.clone(),
            },
            state,
        )
    }
}

impl Replay {
    fn flush(&mut self) {
        if !self.enabled {
            self.chunk.clear();
            return;
        }
        let sim = self.sim.clone();
        let flush = self.spans.begin("trace.flush", None, sim.as_ref());
        let chunk = std::mem::take(&mut self.chunk);
        self.totals.simevents += chunk.len() as u64;
        for (_, ev) in &chunk {
            let g = &mut self.totals.guest;
            match ev {
                SimEvent::IdleEnter { .. } => g[0] += 1,
                SimEvent::Inject { virtual_tick, .. } => {
                    g[1] += 1;
                    g[2] += u64::from(*virtual_tick);
                }
                SimEvent::TimerProgram { .. } => g[3] += 1,
                SimEvent::Hypercall { .. } => g[4] += 1,
                _ => {}
            }
        }

        let s = self.spans.begin("replay.audit", Some(flush), sim.as_ref());
        for (t, ev) in &chunk {
            self.auditor.on_event(*t, ev);
        }
        self.totals.audit_ns += self.spans.end(s);

        let s = self
            .spans
            .begin("replay.host_sched", Some(flush), sim.as_ref());
        let mut ops = 0;
        for (_, ev) in &chunk {
            ops += replay_sched(&mut self.sched, ev);
        }
        self.totals.sched_ns += self.spans.end(s);
        self.totals.sched_ops += ops;

        let s = self.spans.begin("replay.exit", Some(flush), sim.as_ref());
        for (_, ev) in &chunk {
            if let SimEvent::VmExit { vcpu, reason, .. } = ev {
                if let Some(k) = vcpu_mut(&mut self.vcpus, *vcpu) {
                    k.record_exit(*reason);
                    self.totals.exits += 1;
                }
            }
        }
        self.totals.exit_ns += self.spans.end(s);

        let s = self
            .spans
            .begin("replay.deadline", Some(flush), sim.as_ref());
        let mut ops = 0;
        for (t, ev) in &chunk {
            let Some(k) = ev.vcpu().and_then(|v| vcpu_mut(&mut self.vcpus, v)) else {
                continue;
            };
            match *ev {
                SimEvent::TimerProgram { deadline, .. } => {
                    black_box(k.deadline.arm_at(&k.guest_tsc, *t, deadline));
                }
                SimEvent::TimerCancel { .. } => {
                    black_box(k.deadline.disarm(&k.guest_tsc, *t));
                }
                SimEvent::TimerFire { .. } if k.deadline.is_armed() => k.deadline.expire(),
                _ => continue,
            }
            ops += 1;
        }
        self.totals.deadline_ns += self.spans.end(s);
        self.totals.deadline_ops += ops;

        self.spans.end(flush);
        self.chunk = chunk;
        self.chunk.clear();
    }

    /// Exits per reason as the replay recorded them.
    pub fn finish_exits(&mut self) {
        for row in &self.vcpus {
            for k in row {
                for (i, r) in ExitReason::ALL.iter().enumerate() {
                    self.totals.replayed_exits[i] += k.stats.exits.get(*r);
                }
            }
        }
    }
}

fn vcpu_mut(vcpus: &mut [Vec<KvmVcpu>], id: VcpuId) -> Option<&mut KvmVcpu> {
    vcpus.get_mut(id.vm as usize)?.get_mut(id.vcpu as usize)
}

/// Mirror one event onto the host scheduler; returns the scheduler
/// calls made. The replay never leaves a vCPU queued twice, so none of
/// the scheduler's consistency asserts can fire.
fn replay_sched(sched: &mut HostScheduler, ev: &SimEvent) -> u64 {
    let in_range = |p: PcpuId| (p.0 as usize) < sched.num_pcpus();
    match *ev {
        SimEvent::Dispatch { vcpu, pcpu, .. } if in_range(pcpu) => {
            let mut ops = 0;
            if sched.current(pcpu).is_some() {
                sched.deschedule(pcpu, false);
                ops += 1;
            }
            while sched.waiting(pcpu) > 0 {
                ops += 1;
                match sched.pick_next(pcpu) {
                    SchedDecision::Run(v) if v == vcpu => return ops,
                    SchedDecision::Run(_) => {
                        sched.deschedule(pcpu, false);
                        ops += 1;
                    }
                    SchedDecision::Idle => break,
                }
            }
            sched.enqueue(vcpu, pcpu);
            black_box(sched.pick_next(pcpu));
            ops + 2
        }
        SimEvent::Preempt { vcpu, pcpu, .. } | SimEvent::IdleEnter { vcpu, pcpu }
            if in_range(pcpu) && sched.current(pcpu) == Some(vcpu) =>
        {
            let requeue = matches!(ev, SimEvent::Preempt { .. });
            sched.deschedule(pcpu, requeue);
            1
        }
        _ => 0,
    }
}

impl EventSink for Recorder {
    fn on_event(&mut self, t: SimTime, ev: &SimEvent) {
        let mut st = self.state.borrow_mut();
        st.chunk.push((t, *ev));
        if st.chunk.len() == CHUNK {
            st.flush();
        }
    }

    fn finish(&mut self, _end: SimTime) {
        let mut st = self.state.borrow_mut();
        st.flush();
        st.finish_exits();
    }
}

/// Hold-model replay of the event queue: fill it to `depth`, then make
/// `events` pop+push pairs with random positive increments. Returns
/// (nanoseconds, queue operations timed).
pub fn queue_hold(depth: u64, events: u64, seed: u64) -> (u64, u64) {
    let depth = depth.max(1);
    let mut q: EventQueue<u32> = EventQueue::with_capacity(depth as usize);
    let mut x = seed | 1;
    let mut step = move || {
        // xorshift64: cheap enough not to dominate the heap operations.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        1 + x % 1_000_000
    };
    for i in 0..depth {
        q.push(SimTime::from_nanos(step()), i as u32);
    }
    let t0 = Instant::now();
    for _ in 0..events {
        let (t, e) = q.pop().expect("hold model keeps the queue non-empty");
        q.push(t + SimDuration::from_nanos(step()), e);
    }
    let ns = t0.elapsed().as_nanos() as u64;
    black_box(q.len());
    (ns, 2 * events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratick_vmm::EventKind;

    #[test]
    fn wrapper_overhead_subtraction_is_never_negative() {
        assert_eq!(net_ns(1000, 10, 30.0), 700);
        assert_eq!(net_ns(100, 10, 30.0), 0);
        assert_eq!(net_ns(0, 1_000_000, 1e9), 0);
        assert_eq!(net_ns(500, 0, 30.0), 500);
        assert_eq!(
            net_ns(500, 10, -5.0),
            500,
            "a negative calibration never adds time"
        );
        let c = Calibration::measure();
        for measured in [0u64, 1, 10, 1_000, 1_000_000] {
            for calls in [0u64, 1, 1_000, 1_000_000] {
                let n = net_ns(measured, calls, c.next_inside_ns);
                assert!(n <= measured);
            }
        }
        assert!(c.next_inside_ns >= 0.0 && c.next_outside_ns >= 0.0);
    }

    #[test]
    fn timed_thread_delegates_and_counts() {
        let tally = Arc::new(NextTally::default());
        let mut t = TimedThread::wrap(Box::new(Noop), &tally);
        let mut rng = SimRng::new(3);
        for _ in 0..5 {
            assert!(matches!(t.next(&mut rng), Action::Compute(_)));
        }
        let mut a = StableHasher::new();
        let mut b = StableHasher::new();
        t.fingerprint(&mut a);
        Noop.fingerprint(&mut b);
        assert_eq!(a.finish_hex(), b.finish_hex(), "fingerprint delegates");
        drop(t);
        assert_eq!(tally.get().0, 5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(Instant::now());
        let root = s.closed("run", None, None, 0, 100);
        let a = s.closed("a", Some(root), None, 10, 30);
        s.closed("b", Some(root), None, 40, 70);
        s.closed("a.child", Some(a), None, 12, 20);
        assert_eq!(s.self_ns(), vec![50, 12, 30, 8]);
        let mut outer = Spans::new(Instant::now());
        let top = outer.closed("pass", None, None, 0, 200);
        outer.absorb(s, Some(top));
        assert_eq!(outer.list[1].parent, Some(top));
        assert_eq!(outer.list[4].parent, Some(2));
    }

    #[test]
    fn guest_counts_name_event_kinds() {
        for name in GUEST_COUNTS {
            if name != "virtual_tick" {
                assert!(EventKind::ALL.iter().any(|k| k.name() == name), "{name}");
            }
        }
    }

    #[test]
    fn queue_hold_makes_the_requested_operations() {
        let (_, ops) = queue_hold(50, 1000, 7);
        assert_eq!(ops, 2000);
    }
}
