//! One traced simulation, and the per-layer totals a traced pass adds
//! up.

use crate::digest::run_digest;
use crate::trace::{net_ns, queue_hold, Calibration, NextTally, Recorder, Spans, TimedThread};
use paratick::cache::RunCache;
use paratick::prelude::*;
use paratick_vmm::ExitReason;
use std::rc::Rc;
use std::sync::Arc;

/// The engine's event kinds, as `EngineProfile::per_kind` names them.
pub const EV_KINDS: [&str; 10] = [
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

/// Sums over the runs of traced passes.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub runs: u64,
    pub build_ns: u64,
    pub keys: u64,
    pub key_ns: u64,
    pub lookups: u64,
    pub hits: u64,
    pub lookup_ns: u64,
    pub stores: u64,
    pub store_ns: u64,
    pub entry_bytes: u64,
    pub news: u64,
    pub new_ns: u64,
    /// Engine run time with the instruments' own cost taken out.
    pub engine_ns: u64,
    pub events: u64,
    pub events_by_kind: [u64; 10],
    pub queue_depth_max: u64,
    pub simevents: u64,
    pub next_calls: u64,
    pub next_ns: u64,
    pub audit_ns: u64,
    pub queue_ns: u64,
    pub queue_ops: u64,
    pub sched_ns: u64,
    pub sched_ops: u64,
    pub exit_ns: u64,
    pub exits_replayed: u64,
    pub deadline_ns: u64,
    pub deadline_ops: u64,
    pub exits: [u64; ExitReason::COUNT],
    pub guest: [u64; 5],
    pub sim_ns: u64,
}

impl Totals {
    pub fn add(&mut self, o: &Totals) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            runs,
            build_ns,
            keys,
            key_ns,
            lookups,
            hits,
            lookup_ns,
            stores,
            store_ns,
            entry_bytes,
            news,
            new_ns,
            engine_ns,
            events,
            simevents,
            next_calls,
            next_ns,
            audit_ns,
            queue_ns,
            queue_ops,
            sched_ns,
            sched_ops,
            exit_ns,
            exits_replayed,
            deadline_ns,
            deadline_ops,
            sim_ns
        );
        for (a, b) in self.events_by_kind.iter_mut().zip(o.events_by_kind) {
            *a += b;
        }
        for (a, b) in self.exits.iter_mut().zip(o.exits) {
            *a += b;
        }
        for (a, b) in self.guest.iter_mut().zip(o.guest) {
            *a += b;
        }
        self.queue_depth_max = self.queue_depth_max.max(o.queue_depth_max);
    }
}

/// What one traced simulation produced.
pub struct Traced {
    pub metrics: RunMetrics,
    pub digest: String,
    /// Problems found in this run's outputs (empty when clean).
    pub problems: Vec<String>,
}

/// Simulate (or, on a cache hit, fetch) one scenario under spans.
/// `cache = None` bypasses the cache, as Table 1's runs do.
pub fn traced_run(
    spans: &mut Spans,
    parent: Option<usize>,
    sim: &Arc<str>,
    build: impl FnOnce() -> Scenario,
    cache: Option<&RunCache>,
    calib: &Calibration,
    tot: &mut Totals,
) -> Result<Traced, String> {
    let run = spans.begin("run", parent, Some(sim));
    tot.runs += 1;

    let s = spans.begin("workloads.build", Some(run), Some(sim));
    let mut scenario = build();
    tot.build_ns += spans.end(s);

    let mut key = None;
    if let Some(cache) = cache {
        let s = spans.begin("core.cache.key", Some(run), Some(sim));
        let k = RunCache::key(&scenario);
        tot.key_ns += spans.end(s);
        tot.keys += 1;
        let s = spans.begin("core.cache.lookup", Some(run), Some(sim));
        let hit = cache.lookup(&k);
        tot.lookup_ns += spans.end(s);
        tot.lookups += 1;
        if let Some(m) = hit {
            tot.hits += 1;
            spans.end(run);
            tot.sim_ns += m.duration.as_nanos();
            return Ok(checked(m));
        }
        key = Some(k);
    }

    let tally = Arc::new(NextTally::default());
    for (_, w) in &mut scenario.vms {
        w.threads = std::mem::take(&mut w.threads)
            .into_iter()
            .map(|t| TimedThread::wrap(t, &tally))
            .collect();
    }
    let vcpus: Vec<u32> = scenario.vms.iter().map(|(c, _)| c.vcpus).collect();
    let (recorder, replay) = Recorder::new(
        Some(sim.clone()),
        spans.epoch(),
        scenario.host.num_pcpus() as usize,
        &vcpus,
        scenario.host.cost.cpu_freq,
    );

    let s = spans.begin("core.engine.new", Some(run), Some(sim));
    let engine = Engine::new(scenario);
    tot.new_ns += spans.end(s);
    tot.news += 1;
    let mut engine = engine.map_err(|e| format!("{sim}: {e}"))?;
    engine.attach_sink(Box::new(recorder));

    let s = spans.begin("core.engine.run", Some(run), Some(sim));
    let result = engine.run_to_completion();
    let run_ns = spans.end(s);
    let m = result.map_err(|e| format!("{sim}: {e}"))?;

    let replay = Rc::try_unwrap(replay)
        .map_err(|_| format!("{sim}: recorder outlived its engine"))?
        .into_inner();
    let flush_ns: u64 = replay
        .spans
        .list
        .iter()
        .filter(|sp| sp.parent.is_none())
        .map(|sp| sp.dur_ns())
        .sum();
    let r = replay.totals;
    spans.absorb(replay.spans, Some(s));

    let (calls, measured) = tally.get();
    let next_net = net_ns(measured, calls, calib.next_inside_ns);
    let instruments =
        calls as f64 * calib.next_outside_ns + r.simevents as f64 * calib.sink_per_event_ns;
    let engine_ns = run_ns.saturating_sub(flush_ns + instruments as u64);
    tot.engine_ns += engine_ns;
    tot.next_calls += calls;
    tot.next_ns += next_net.min(engine_ns);
    tot.events += m.events_dispatched;
    for k in &m.profile.per_kind {
        if let Some(i) = EV_KINDS.iter().position(|n| *n == k.kind) {
            tot.events_by_kind[i] += k.count;
        }
    }
    tot.queue_depth_max = tot.queue_depth_max.max(m.profile.queue_depth_high_water);
    tot.simevents += r.simevents;
    tot.audit_ns += r.audit_ns;
    tot.sched_ns += r.sched_ns;
    tot.sched_ops += r.sched_ops;
    tot.exit_ns += r.exit_ns;
    tot.exits_replayed += r.exits;
    tot.deadline_ns += r.deadline_ns;
    tot.deadline_ops += r.deadline_ops;
    for (i, reason) in ExitReason::ALL.iter().enumerate() {
        tot.exits[i] += m.system.exits.get(*reason);
    }
    for (a, b) in tot.guest.iter_mut().zip(r.guest) {
        *a += b;
    }

    if let (Some(cache), Some(k)) = (cache, &key) {
        let s = spans.begin("core.cache.store", Some(run), Some(sim));
        let stored = cache.store(k, &m);
        tot.store_ns += spans.end(s);
        tot.stores += 1;
        // The documented layout: <dir>/<k0k1>/<key>.json.
        let path = cache.dir().join(&k[..2]).join(format!("{k}.json"));
        if stored {
            tot.entry_bytes += std::fs::metadata(path).map_or(0, |md| md.len());
        }
    }

    let s = spans.begin("replay.queue", Some(run), Some(sim));
    let (qns, qops) = queue_hold(
        m.profile.queue_depth_high_water,
        m.events_dispatched,
        0x9E37,
    );
    spans.end(s);
    tot.queue_ns += qns;
    tot.queue_ops += qops;
    spans.end(run);
    tot.sim_ns += m.duration.as_nanos();

    let mut out = checked(m);
    let recorded: Vec<u64> = ExitReason::ALL
        .iter()
        .map(|r| out.metrics.system.exits.get(*r))
        .collect();
    if recorded != r.replayed_exits {
        out.problems.push(format!(
            "{sim}: exits replayed from the event stream {:?} differ from KvmVcpu counts {recorded:?}",
            r.replayed_exits
        ));
    }
    Ok(out)
}

/// Run-level output checks shared by every path.
pub fn checked(m: RunMetrics) -> Traced {
    let mut problems = Vec::new();
    if !m.audit.is_clean() {
        problems.push(format!(
            "audit reported {} violation(s): {:?}",
            m.audit.total_violations,
            m.audit.violations.first()
        ));
    }
    Traced {
        digest: run_digest(&m),
        metrics: m,
        problems,
    }
}

/// A named metric with its unit.
pub type Metric = (String, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of `passes` traced passes whose runs summed to
/// `t`. Times and counts are per pass.
pub fn layer_metrics(t: &Totals, passes: u64) -> Vec<Metric> {
    let per_pass = |x: u64| x as f64 / passes.max(1) as f64;
    let engine = t.engine_ns as f64;
    let self_ns = engine - t.next_ns as f64;
    let mut m: Vec<Metric> = vec![
        (
            "core.engine.ns_per_event".into(),
            ratio(self_ns, t.events as f64),
            "ns",
        ),
        (
            "core.engine.self_s".into(),
            per_pass(self_ns as u64) / 1e9,
            "s",
        ),
        (
            "core.engine.new_us".into(),
            ratio(t.new_ns as f64, t.news as f64) / 1e3,
            "us",
        ),
        ("core.engine.events".into(), per_pass(t.events), "count"),
    ];
    for (name, n) in EV_KINDS.iter().zip(t.events_by_kind) {
        m.push((format!("core.engine.events.{name}"), per_pass(n), "count"));
    }
    m.extend([
        (
            "core.engine.queue_depth_max".into(),
            t.queue_depth_max as f64,
            "count",
        ),
        (
            "core.engine.simevents_per_event".into(),
            ratio(t.simevents as f64, t.events as f64),
            "ratio",
        ),
        (
            "core.audit.ns_per_simevent".into(),
            ratio(t.audit_ns as f64, t.simevents as f64),
            "ns",
        ),
        (
            "core.audit.share".into(),
            ratio(t.audit_ns as f64, engine),
            "ratio",
        ),
        (
            "sim.queue.ns_per_op".into(),
            ratio(t.queue_ns as f64, t.queue_ops as f64),
            "ns",
        ),
        (
            "sim.queue.share".into(),
            ratio(t.queue_ns as f64, engine),
            "ratio",
        ),
        (
            "workloads.next_calls".into(),
            per_pass(t.next_calls),
            "count",
        ),
        (
            "workloads.ns_per_next".into(),
            ratio(t.next_ns as f64, t.next_calls as f64),
            "ns",
        ),
        (
            "workloads.share".into(),
            ratio(t.next_ns as f64, engine),
            "ratio",
        ),
        (
            "workloads.build_us".into(),
            ratio(t.build_ns as f64, t.runs as f64) / 1e3,
            "us",
        ),
        (
            "vmm.host_sched.ns_per_op".into(),
            ratio(t.sched_ns as f64, t.sched_ops as f64),
            "ns",
        ),
        (
            "vmm.exit.ns_per_exit".into(),
            ratio(t.exit_ns as f64, t.exits_replayed as f64),
            "ns",
        ),
        (
            "hw.deadline.ns_per_op".into(),
            ratio(t.deadline_ns as f64, t.deadline_ops as f64),
            "ns",
        ),
    ]);
    for (reason, n) in ExitReason::ALL.iter().zip(t.exits) {
        m.push((format!("vmm.exits.{}", reason.name()), per_pass(n), "count"));
    }
    for (name, n) in crate::trace::GUEST_COUNTS.iter().zip(t.guest) {
        m.push((format!("guest.{name}"), per_pass(n), "count"));
    }
    m.extend([
        (
            "core.cache.key_us".into(),
            ratio(t.key_ns as f64, t.keys as f64) / 1e3,
            "us",
        ),
        (
            "core.cache.lookup_us".into(),
            ratio(t.lookup_ns as f64, t.lookups as f64) / 1e3,
            "us",
        ),
        (
            "core.cache.store_us".into(),
            ratio(t.store_ns as f64, t.stores as f64) / 1e3,
            "us",
        ),
        (
            "core.cache.hit_ratio".into(),
            ratio(t.hits as f64, t.lookups as f64),
            "ratio",
        ),
        (
            "core.cache.entry_bytes".into(),
            ratio(t.entry_bytes as f64, t.stores as f64),
            "bytes",
        ),
    ]);
    m
}
