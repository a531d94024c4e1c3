//! Substrate microbenchmarks: the hot data structures that bound how
//! much simulated time per wall-second the engine can deliver.
//!
//! This is the in-repo port of the retired criterion bench
//! (`benches/engine.rs`) — same batches, same workloads, measured with
//! plain [`std::time::Instant`] over [`Samples`] instead of an external
//! harness. Whole-engine throughput (the retired `benches/scenarios.rs`)
//! is covered by the [`crate::perf`] basket, which already spans the
//! sequential / parallel / I/O / idle regimes per tick mode.
//!
//! Surfaced as `paratick bench --micro`: prints a rate table, never
//! persists — micro rates have no deterministic `events_dispatched`
//! anchor, so they stay out of the `BENCH_*.json` regression gate.

use crate::perf::BenchSummary;
use paratick_guest::timer_wheel::TimerWheel;
use paratick_sim::stats::Samples;
use paratick_sim::{EventQueue, Histogram, LogNormal, SimDuration, SimRng, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// One micro-bench measurement: `elems` operations per timed batch.
#[derive(Clone, Debug)]
pub struct MicroEntry {
    pub name: &'static str,
    /// Operations per timed batch (the throughput denominator).
    pub elems: u64,
    /// Operations per wall-clock second (higher is better).
    pub elems_per_sec: BenchSummary,
}

/// The `paratick bench --micro` result (display-only; see module doc).
#[derive(Clone, Debug)]
pub struct MicroReport {
    /// Timed batches per entry (after one untimed warm-up).
    pub runs: u32,
    pub entries: Vec<MicroEntry>,
}

impl MicroReport {
    pub fn render(&self) -> String {
        let mut out = format!(
            "micro ({} runs/entry, substrate data structures):\n",
            self.runs
        );
        for e in &self.entries {
            out.push_str(&format!(
                "  {:<34} {:>13.0} ops/s (sd {:>11.0})  {:>6} ops/batch\n",
                e.name, e.elems_per_sec.mean, e.elems_per_sec.stddev, e.elems,
            ));
        }
        out
    }
}

/// Time `runs` batches of `body` (plus one untimed warm-up), recording
/// `elems / seconds` per batch.
fn measure(name: &'static str, elems: u64, runs: u32, mut body: impl FnMut()) -> MicroEntry {
    body(); // warm-up: fault in code and allocator pools
    let mut rates = Samples::new();
    for _ in 0..runs {
        let start = Instant::now();
        body();
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        rates.record(elems as f64 / secs);
    }
    MicroEntry {
        name,
        elems,
        elems_per_sec: BenchSummary {
            n: rates.len() as u64,
            mean: rates.mean(),
            stddev: rates.stddev(),
            ci95: rates.ci95_t(),
        },
    }
}

/// Run the full micro basket: event queue, timer wheel, RNG, histogram.
pub fn run_micro(runs: u32) -> MicroReport {
    assert!(runs >= 1, "micro bench needs at least one run");
    let mut entries = Vec::new();

    entries.push(measure("event_queue/push_pop_10k_fifo", 10_000, runs, || {
        let mut q = EventQueue::<u64>::new();
        for i in 0..10_000u64 {
            q.push(SimTime::from_nanos(i * 7 % 1000), i);
        }
        while q.pop().is_some() {}
        black_box(&q);
    }));

    // Hold model: pop the earliest event, push its follow-up. Half the
    // follow-ups are zero-delay, so they land ahead of everything queued
    // (the engine's common case); the rest go a pseudo-random way out.
    let mut hold = EventQueue::<u64>::new();
    for i in 0..128u64 {
        hold.push(SimTime::from_nanos(i * 7_919 % 20_000), i);
    }
    entries.push(measure("event_queue/hold_1k", 1_000, runs, || {
        for i in 0..1_000u64 {
            let (now, e) = hold.pop().expect("a hold model never drains");
            let delay = if i % 2 == 0 {
                0
            } else {
                (e * 7_919 + i) % 20_000
            };
            hold.push(now + SimDuration::from_nanos(delay), e);
        }
        black_box(&hold);
    }));

    entries.push(measure("timer_wheel/insert_advance_10k", 10_000, runs, || {
        let mut w = TimerWheel::<u32>::new();
        for i in 0..10_000u64 {
            w.insert(1 + (i * 13) % 5_000, i as u32);
        }
        black_box(w.advance(10_000));
    }));

    let mut loaded = TimerWheel::<u32>::new();
    for i in 0..4_096u64 {
        loaded.insert(1 + (i * 37) % 100_000, i as u32);
    }
    entries.push(measure("timer_wheel/next_fire_under_load", 10_000, runs, || {
        for _ in 0..10_000 {
            black_box(loaded.next_fire());
        }
    }));

    let mut rng = SimRng::new(1);
    entries.push(measure("rng/xoshiro_u64_1k", 1_000, runs, || {
        let mut acc = 0u64;
        for _ in 0..1_000 {
            acc ^= rng.next_u64();
        }
        black_box(acc);
    }));

    let mut rng = SimRng::new(2);
    let lognormal = LogNormal::new(100.0, 50.0);
    entries.push(measure("rng/lognormal_1k", 1_000, runs, || {
        let mut acc = 0.0f64;
        for _ in 0..1_000 {
            acc += lognormal.sample(&mut rng);
        }
        black_box(acc);
    }));

    entries.push(measure("histogram/record_10k", 10_000, runs, || {
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(i * 131 % 10_000_000);
        }
        black_box(&h);
    }));

    MicroReport { runs, entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_basket_measures_every_substrate() {
        let r = run_micro(2);
        let names: Vec<_> = r.entries.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "event_queue/push_pop_10k_fifo",
                "event_queue/hold_1k",
                "timer_wheel/insert_advance_10k",
                "timer_wheel/next_fire_under_load",
                "rng/xoshiro_u64_1k",
                "rng/lognormal_1k",
                "histogram/record_10k",
            ]
        );
        for e in &r.entries {
            assert!(
                e.elems_per_sec.mean > 0.0 && e.elems_per_sec.mean.is_finite(),
                "{}: rate {:?}",
                e.name,
                e.elems_per_sec
            );
            assert_eq!(e.elems_per_sec.n, 2);
        }
    }

    #[test]
    fn render_lists_every_entry() {
        let r = run_micro(1);
        let text = r.render();
        for e in &r.entries {
            assert!(text.contains(e.name), "missing {} in:\n{text}", e.name);
        }
    }
}
