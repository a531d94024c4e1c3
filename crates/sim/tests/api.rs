//! Public-API edge cases for the DES substrate.

use paratick_sim::{EventQueue, Histogram, SimDuration, SimRng, SimTime, TraceBuffer};

#[test]
fn queue_interleaved_push_pop_monotone() {
    let mut q = EventQueue::new();
    let mut popped = Vec::new();
    // Push-pop interleaving driven by a deterministic pattern.
    let mut next = 0u64;
    for round in 0..50u64 {
        for k in 0..3 {
            q.push(SimTime::from_nanos(next + (round * 7 + k * 13) % 40), (round, k));
        }
        if let Some((t, _)) = q.pop() {
            next = next.max(t.as_nanos());
            popped.push(t);
        }
    }
    while let Some((t, _)) = q.pop() {
        popped.push(t);
    }
    assert!(popped.windows(2).all(|w| w[0] <= w[1]), "monotone dispatch");
    assert_eq!(popped.len(), 150);
}

#[test]
fn time_round_trip_extremes() {
    let never = SimTime::NEVER;
    assert_eq!(never.saturating_add(SimDuration::from_secs(1)), never);
    assert_eq!(
        SimTime::ZERO.saturating_since(SimTime::from_secs(1)),
        SimDuration::ZERO
    );
    // Round-up at exactly the granule boundary returns the boundary.
    let g = SimDuration::from_micros(7);
    let t = SimTime::from_nanos(7_000 * 3);
    assert_eq!(t.round_up(g), t);
    assert_eq!(t.round_down(g), t);
}

#[test]
fn histogram_merge_preserves_quantiles() {
    let mut parts: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
    for i in 0..4_000u64 {
        parts[(i % 4) as usize].record(i * 17 % 100_000);
    }
    let mut whole = Histogram::new();
    for v in (0..4_000u64).map(|i| i * 17 % 100_000) {
        whole.record(v);
    }
    let mut merged = Histogram::new();
    for p in &parts {
        merged.merge(p);
    }
    assert_eq!(merged.count(), whole.count());
    assert_eq!(merged.p50(), whole.p50());
    assert_eq!(merged.p99(), whole.p99());
    assert_eq!(merged.min(), whole.min());
    assert_eq!(merged.max(), whole.max());
}

#[test]
fn rng_fork_streams_are_reproducible() {
    let mut a = SimRng::new(99);
    let mut b = SimRng::new(99);
    let mut fa = a.fork(7);
    let mut fb = b.fork(7);
    for _ in 0..100 {
        assert_eq!(fa.next_u64(), fb.next_u64());
    }
}

#[test]
fn rng_clone_diverges_consistently() {
    let mut a = SimRng::new(5);
    let _ = a.next_u64();
    let mut snapshot = a.clone();
    // Clone continues identically from the snapshot point.
    for _ in 0..32 {
        assert_eq!(a.next_u64(), snapshot.next_u64());
    }
}

#[test]
fn trace_buffer_lazy_formatting_cost() {
    let mut tb = TraceBuffer::with_capacity(2);
    let mut evaluations = 0;
    for i in 0..5u64 {
        tb.record_with(SimTime::from_nanos(i), || {
            evaluations += 1;
            format!("event {i}")
        });
    }
    assert_eq!(evaluations, 5, "enabled buffer formats every record");
    assert_eq!(tb.len(), 2);
    assert_eq!(tb.dropped(), 3);
}

#[test]
fn duration_arithmetic_suite() {
    let a = SimDuration::from_micros(10);
    let b = SimDuration::from_micros(4);
    assert_eq!(a - b, SimDuration::from_micros(6));
    assert_eq!(a * 3, SimDuration::from_micros(30));
    assert_eq!(a / 4, SimDuration::from_nanos(2_500));
    assert_eq!(a / b, 2);
    assert_eq!(a % b, SimDuration::from_micros(2));
    assert_eq!(a.min_of(b), b);
    assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
}
