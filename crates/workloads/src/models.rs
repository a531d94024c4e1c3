//! Generic thread-behaviour building blocks.
//!
//! The PARSEC, fio and synthetic workloads are all assembled from these
//! models. Each model is a small state machine emitting [`Action`]s;
//! randomness comes only from the engine-supplied [`SimRng`].

use crate::action::{Action, ThreadModel};
use paratick_hw::IoOp;
use paratick_sim::{LogNormal, SimDuration, SimRng, StableHash, StableHasher};

/// Jittered durations with a fixed mean and coefficient of variation
/// (lognormal, so always positive and right-skewed like real compute
/// phases). A `cv <= 0` or a zero mean is deterministic and draws
/// nothing.
///
/// The lognormal sampler is built on the first draw and reused for the
/// rest of the run. Not at construction: scenarios are also built just
/// to fingerprint them for the run cache, and those models never draw.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Jitter {
    mean: SimDuration,
    cv: f64,
    dist: Option<LogNormal>,
}

impl Jitter {
    pub(crate) fn new(mean: SimDuration, cv: f64) -> Self {
        Jitter {
            mean,
            cv,
            dist: None,
        }
    }

    pub(crate) fn mean(&self) -> SimDuration {
        self.mean
    }

    #[inline]
    pub(crate) fn sample(&mut self, rng: &mut SimRng) -> SimDuration {
        if self.cv <= 0.0 || self.mean.is_zero() {
            return self.mean;
        }
        let (m, cv) = (self.mean.as_nanos() as f64, self.cv);
        let dist = self.dist.get_or_insert_with(|| LogNormal::new(m, m * cv));
        SimDuration::from_nanos(dist.sample(rng).max(1.0) as u64)
    }

    /// The mean, then the cv, as model fingerprints record them.
    pub(crate) fn fingerprint(&self, h: &mut StableHasher) {
        self.mean.stable_hash(h);
        h.write_f64(self.cv);
    }
}

/// Pure computation in jittered segments until a work budget is spent.
/// Sequential compute-bound PARSEC benchmarks reduce to this.
pub struct ComputeThread {
    label: String,
    remaining: SimDuration,
    grain: Jitter,
}

impl ComputeThread {
    pub fn new(label: impl Into<String>, work: SimDuration, grain: SimDuration, cv: f64) -> Self {
        assert!(!grain.is_zero(), "zero compute grain");
        ComputeThread {
            label: label.into(),
            remaining: work,
            grain: Jitter::new(grain, cv),
        }
    }
}

impl ThreadModel for ComputeThread {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.remaining.is_zero() {
            return Action::Done;
        }
        let seg = self.grain.sample(rng).min_of(self.remaining);
        self.remaining -= seg;
        Action::Compute(seg)
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("compute");
        h.write_str(&self.label);
        self.remaining.stable_hash(h);
        self.grain.fingerprint(h);
    }
}

/// compute → lock → critical section → unlock, until the work budget is
/// spent. The blocking-synchronization workload at the heart of §3.2.
pub struct LockLoop {
    label: String,
    remaining: SimDuration,
    grain: Jitter,
    /// Critical-section length, jittered at half the grain's cv.
    cs: Jitter,
    num_locks: u32,
    iter: u64,
    state: LockState,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LockState {
    Computing,
    Locking,
    InCs,
    Unlocking(u32),
}

impl LockLoop {
    pub fn new(
        label: impl Into<String>,
        work: SimDuration,
        grain: SimDuration,
        grain_cv: f64,
        cs: SimDuration,
        num_locks: u32,
    ) -> Self {
        assert!(num_locks > 0, "LockLoop needs at least one lock");
        assert!(!grain.is_zero() && !cs.is_zero(), "zero grain or cs");
        LockLoop {
            label: label.into(),
            remaining: work,
            grain: Jitter::new(grain, grain_cv),
            cs: Jitter::new(cs, grain_cv * 0.5),
            num_locks,
            iter: 0,
            state: LockState::Computing,
        }
    }

    fn lock_id(&self) -> u32 {
        (self.iter % u64::from(self.num_locks)) as u32
    }
}

impl ThreadModel for LockLoop {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        loop {
            match self.state {
                LockState::Computing => {
                    if self.remaining.is_zero() {
                        return Action::Done;
                    }
                    let seg = self.grain.sample(rng).min_of(self.remaining);
                    self.remaining -= seg;
                    self.state = LockState::Locking;
                    if seg.is_zero() {
                        continue;
                    }
                    return Action::Compute(seg);
                }
                LockState::Locking => {
                    self.state = LockState::InCs;
                    return Action::Lock(self.lock_id());
                }
                LockState::InCs => {
                    // The critical section spends budget too, so total
                    // compute is budget-exact (mode-independent).
                    let cs = self.cs.sample(rng);
                    self.remaining = self.remaining.saturating_sub(cs);
                    self.state = LockState::Unlocking(self.lock_id());
                    return Action::Compute(cs);
                }
                LockState::Unlocking(id) => {
                    self.iter += 1;
                    self.state = LockState::Computing;
                    return Action::Unlock(id);
                }
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("lock_loop");
        h.write_str(&self.label);
        self.remaining.stable_hash(h);
        self.grain.fingerprint(h);
        self.cs.mean().stable_hash(h);
        h.write_u64(self.num_locks as u64);
    }
}

/// compute → barrier phases: the data-parallel PARSEC shape. Thread
/// imbalance (grain jitter) makes all-but-the-slowest block each phase.
pub struct BarrierLoop {
    label: String,
    phases_left: u64,
    grain: Jitter,
    barrier_id: u32,
    at_barrier: bool,
}

impl BarrierLoop {
    pub fn new(
        label: impl Into<String>,
        phases: u64,
        grain: SimDuration,
        grain_cv: f64,
        barrier_id: u32,
    ) -> Self {
        assert!(!grain.is_zero(), "zero phase grain");
        BarrierLoop {
            label: label.into(),
            phases_left: phases,
            grain: Jitter::new(grain, grain_cv),
            barrier_id,
            at_barrier: false,
        }
    }
}

impl ThreadModel for BarrierLoop {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.at_barrier {
            self.at_barrier = false;
            self.phases_left -= 1;
            return Action::Barrier(self.barrier_id);
        }
        if self.phases_left == 0 {
            return Action::Done;
        }
        self.at_barrier = true;
        Action::Compute(self.grain.sample(rng))
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("barrier_loop");
        h.write_str(&self.label);
        h.write_u64(self.phases_left);
        self.grain.fingerprint(h);
        h.write_u64(self.barrier_id as u64);
    }
}

/// fio-style I/O loop: transfer a byte budget in fixed-size blocks with
/// a sequential or random offset pattern, paying a per-block processing
/// cost on-CPU between operations (checksum/copy work).
pub struct FioThread {
    label: String,
    op: IoOp,
    random: bool,
    block: u64,
    bytes_left: u64,
    /// File size the random pattern draws offsets from.
    span: u64,
    next_offset: u64,
    /// On-CPU work per block (buffer handling in the guest).
    think_per_block: SimDuration,
    state: FioState,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FioState {
    Think,
    Issue,
}

impl FioThread {
    pub fn new(
        label: impl Into<String>,
        op: IoOp,
        random: bool,
        block: u64,
        total_bytes: u64,
        span: u64,
        think_per_block: SimDuration,
    ) -> Self {
        assert!(block > 0, "zero block size");
        assert!(span >= block, "span smaller than block");
        FioThread {
            label: label.into(),
            op,
            random,
            block,
            bytes_left: total_bytes,
            span,
            next_offset: 0,
            think_per_block,
            state: FioState::Issue,
        }
    }
}

impl ThreadModel for FioThread {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.bytes_left == 0 {
            return Action::Done;
        }
        match self.state {
            FioState::Issue => {
                let bytes = self.block.min(self.bytes_left);
                self.bytes_left -= bytes;
                let offset = if self.random {
                    // Block-aligned random offset within the span.
                    let blocks = self.span / self.block;
                    rng.gen_below(blocks) * self.block
                } else {
                    let o = self.next_offset;
                    self.next_offset = (self.next_offset + bytes) % self.span;
                    o
                };
                self.state = FioState::Think;
                Action::Io {
                    op: self.op,
                    offset,
                    bytes,
                }
            }
            FioState::Think => {
                self.state = FioState::Issue;
                if self.think_per_block.is_zero() {
                    return self.next(rng);
                }
                Action::Compute(self.think_per_block)
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("fio");
        h.write_str(&self.label);
        h.write_discriminant(match self.op {
            IoOp::Read => 0,
            IoOp::Write => 1,
        });
        h.write_bool(self.random);
        h.write_u64(self.block);
        h.write_u64(self.bytes_left);
        h.write_u64(self.span);
        self.think_per_block.stable_hash(h);
    }
}

/// The paper's W3 thread: blocks-and-unblocks through a shared mutex at
/// a target rate for a fixed duration of per-thread compute.
pub struct SyncRateThread {
    inner: LockLoop,
}

impl SyncRateThread {
    /// `sync_rate_hz` is the per-thread lock-acquisition rate while
    /// computing: the compute grain between synchronizations is
    /// `1/sync_rate`.
    pub fn new(
        label: impl Into<String>,
        work: SimDuration,
        sync_rate_hz: f64,
        cs: SimDuration,
        num_locks: u32,
    ) -> Self {
        assert!(sync_rate_hz > 0.0, "non-positive sync rate");
        let grain = SimDuration::from_nanos((1e9 / sync_rate_hz) as u64);
        SyncRateThread {
            inner: LockLoop::new(label, work, grain, 0.3, cs, num_locks),
        }
    }
}

impl ThreadModel for SyncRateThread {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        self.inner.next(rng)
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("sync_rate");
        self.inner.fingerprint(h);
    }
}

/// A background housekeeping thread: sleeps on a period, wakes, does a
/// sliver of work. Models kernel daemons (writeback, kworkers) that give
/// even "idle" VMs occasional soft timers.
pub struct SleeperThread {
    label: String,
    period: Jitter,
    work: SimDuration,
    wakeups_left: u64,
    sleeping: bool,
}

impl SleeperThread {
    pub fn new(
        label: impl Into<String>,
        period: SimDuration,
        jitter_cv: f64,
        work: SimDuration,
        wakeups: u64,
    ) -> Self {
        assert!(!period.is_zero(), "zero sleep period");
        SleeperThread {
            label: label.into(),
            period: Jitter::new(period, jitter_cv),
            work,
            wakeups_left: wakeups,
            sleeping: false,
        }
    }
}

impl ThreadModel for SleeperThread {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.sleeping {
            self.sleeping = false;
            return Action::Compute(self.work.mul_f64(1.0).max_one());
        }
        if self.wakeups_left == 0 {
            return Action::Done;
        }
        self.wakeups_left -= 1;
        self.sleeping = true;
        Action::Sleep(self.period.sample(rng))
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("sleeper");
        h.write_str(&self.label);
        self.period.fingerprint(h);
        self.work.stable_hash(h);
        h.write_u64(self.wakeups_left);
    }
}

trait MaxOne {
    fn max_one(self) -> Self;
}

impl MaxOne for SimDuration {
    fn max_one(self) -> SimDuration {
        if self.is_zero() {
            SimDuration::from_nanos(1)
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    fn drain(m: &mut dyn ThreadModel, limit: usize) -> Vec<Action> {
        let mut r = rng();
        let mut out = Vec::new();
        for _ in 0..limit {
            let a = m.next(&mut r);
            let done = a == Action::Done;
            out.push(a);
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn compute_thread_spends_exact_budget() {
        let work = SimDuration::from_millis(10);
        let mut m = ComputeThread::new("c", work, SimDuration::from_micros(300), 0.4);
        let actions = drain(&mut m, 10_000);
        let total: SimDuration = actions
            .iter()
            .filter_map(|a| match a {
                Action::Compute(d) => Some(*d),
                _ => None,
            })
            .sum();
        assert_eq!(total, work, "budget spent exactly");
        assert_eq!(*actions.last().unwrap(), Action::Done);
    }

    #[test]
    fn compute_thread_deterministic_grain_when_cv_zero() {
        let mut m = ComputeThread::new(
            "c",
            SimDuration::from_micros(10),
            SimDuration::from_micros(4),
            0.0,
        );
        let actions = drain(&mut m, 100);
        assert_eq!(
            actions,
            vec![
                Action::Compute(SimDuration::from_micros(4)),
                Action::Compute(SimDuration::from_micros(4)),
                Action::Compute(SimDuration::from_micros(2)),
                Action::Done,
            ]
        );
    }

    #[test]
    fn lock_loop_well_formed() {
        let mut m = LockLoop::new(
            "l",
            SimDuration::from_millis(1),
            SimDuration::from_micros(100),
            0.0,
            SimDuration::from_micros(5),
            4,
        );
        let actions = drain(&mut m, 10_000);
        // Every Lock is followed (after the CS compute) by the matching
        // Unlock.
        let mut held: Option<u32> = None;
        for a in &actions {
            match a {
                Action::Lock(id) => {
                    assert!(held.is_none(), "nested lock");
                    held = Some(*id);
                }
                Action::Unlock(id) => {
                    assert_eq!(held, Some(*id), "unlock mismatch");
                    held = None;
                }
                _ => {}
            }
        }
        assert!(held.is_none(), "lock leaked at exit");
        let locks = actions.iter().filter(|a| matches!(a, Action::Lock(_))).count();
        assert_eq!(locks, 10, "1ms work at 100us grain = 10 iterations");
        // Lock ids rotate over the namespace.
        let distinct: std::collections::HashSet<u32> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Lock(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn barrier_loop_phase_count() {
        let mut m = BarrierLoop::new("b", 5, SimDuration::from_micros(50), 0.2, 0);
        let actions = drain(&mut m, 1000);
        let barriers = actions
            .iter()
            .filter(|a| matches!(a, Action::Barrier(0)))
            .count();
        assert_eq!(barriers, 5);
        let computes = actions
            .iter()
            .filter(|a| matches!(a, Action::Compute(_)))
            .count();
        assert_eq!(computes, 5, "one compute per phase");
        // Strict alternation compute, barrier, ..., Done.
        assert!(matches!(actions[0], Action::Compute(_)));
        assert!(matches!(actions[1], Action::Barrier(_)));
        assert_eq!(*actions.last().unwrap(), Action::Done);
    }

    #[test]
    fn fio_sequential_offsets_advance() {
        let mut m = FioThread::new(
            "f",
            IoOp::Read,
            false,
            4096,
            4096 * 4,
            1 << 30,
            SimDuration::from_micros(2),
        );
        let actions = drain(&mut m, 100);
        let offsets: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Io { offset, .. } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(offsets, vec![0, 4096, 8192, 12288]);
        // Think time between I/Os.
        assert!(matches!(actions[1], Action::Compute(_)));
    }

    #[test]
    fn fio_random_offsets_block_aligned_in_span() {
        let span = 1 << 20;
        let mut m = FioThread::new(
            "f",
            IoOp::Write,
            true,
            8192,
            8192 * 50,
            span,
            SimDuration::ZERO,
        );
        let actions = drain(&mut m, 200);
        let offsets: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Io { offset, .. } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(offsets.len(), 50);
        assert!(offsets.iter().all(|o| o % 8192 == 0 && *o < span));
        let distinct: std::collections::HashSet<u64> = offsets.iter().copied().collect();
        assert!(distinct.len() > 10, "random pattern varies");
    }

    #[test]
    fn fio_partial_last_block() {
        let mut m = FioThread::new(
            "f",
            IoOp::Read,
            false,
            4096,
            5000,
            1 << 20,
            SimDuration::ZERO,
        );
        let mut r = rng();
        let a1 = m.next(&mut r);
        let a2 = m.next(&mut r);
        let a3 = m.next(&mut r);
        assert!(matches!(a1, Action::Io { bytes: 4096, .. }));
        assert!(matches!(a2, Action::Io { bytes: 904, .. }));
        assert_eq!(a3, Action::Done);
    }

    #[test]
    fn sync_rate_thread_grain_matches_rate() {
        let mut m = SyncRateThread::new("s", SimDuration::from_millis(100), 1000.0, SimDuration::from_micros(3), 1);
        let actions = drain(&mut m, 100_000);
        let locks = actions.iter().filter(|a| matches!(a, Action::Lock(_))).count();
        // 100ms of compute at 1 lock per ~1ms of grain: ~100 locks
        // (jittered, so allow slack).
        assert!((70..=140).contains(&locks), "locks = {locks}");
    }

    #[test]
    fn sleeper_thread_alternates_and_ends() {
        let mut m = SleeperThread::new(
            "sl",
            SimDuration::from_millis(100),
            0.0,
            SimDuration::from_micros(50),
            3,
        );
        let actions = drain(&mut m, 100);
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, Action::Sleep(_)))
                .count(),
            3
        );
        assert!(matches!(actions[0], Action::Sleep(_)));
        assert!(matches!(actions[1], Action::Compute(_)));
        assert_eq!(*actions.last().unwrap(), Action::Done);
    }

    #[test]
    fn jitter_statistics() {
        let mut r = rng();
        let mean = SimDuration::from_micros(100);
        let mut jitter = Jitter::new(mean, 0.5);
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| jitter.sample(&mut r).as_nanos())
            .sum();
        let avg = total as f64 / n as f64;
        assert!(
            (avg - 100_000.0).abs() / 100_000.0 < 0.05,
            "mean off: {avg}"
        );
    }
}
