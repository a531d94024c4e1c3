//! PARSEC benchmark suite — behavioural profiles.
//!
//! The paper evaluates all 13 PARSEC benchmarks sequentially (§6.1) and
//! multithreaded (§6.2). For the reproduction we model each benchmark by
//! the properties that determine tick-management overhead — compute
//! granularity, synchronization pattern and rate, critical-section
//! length, and input-streaming I/O — calibrated from the PARSEC
//! characterization literature (Bienia & Li; the suite's own docs):
//!
//! | benchmark     | parallel shape        | sync signature                  | I/O |
//! |---------------|-----------------------|---------------------------------|-----|
//! | blackscholes  | data-parallel, coarse | one barrier per sweep           | –   |
//! | bodytrack     | pipeline+data-par     | barriers + work-queue locks     | low |
//! | canneal       | fine-grain swaps      | many locks, tiny CS, low block  | med |
//! | dedup         | pipeline              | queue locks, high handoff rate  | high|
//! | facesim       | data-parallel         | barriers per frame segment      | –   |
//! | ferret        | pipeline              | queue locks                     | med |
//! | fluidanimate  | fine-grain + frames   | very fine locks + barriers      | –   |
//! | freqmine      | OpenMP-ish phases     | coarse barriers                 | low |
//! | raytrace      | coarse tasks          | occasional locks                | –   |
//! | streamcluster | barrier-heavy         | barriers every sub-ms phase     | –   |
//! | swaptions     | embarrassingly par    | none                            | –   |
//! | vips          | work queue            | queue locks                     | med |
//! | x264          | frame pipeline        | condvar-like locks, bursty      | med |
//!
//! A single [`ParsecThread`] state machine executes any profile; with
//! one thread, locks are never contended and barriers have one party, so
//! the sequential runs degenerate to compute+I/O exactly as real PARSEC
//! does.

use crate::action::{Action, ThreadModel, VmWorkload};
use crate::models::Jitter;
use paratick_hw::IoOp;
use paratick_sim::{SimDuration, SimRng};

/// Synchronization signature of a benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SyncPattern {
    /// No inter-thread synchronization (swaptions).
    None,
    /// Lock/unlock around short critical sections every iteration.
    Locks { locks: u32, cs: SimDuration },
    /// A barrier each time `phase` of compute has accumulated.
    Barriers { phase: SimDuration },
    /// Both (fluidanimate, bodytrack).
    Mixed {
        locks: u32,
        cs: SimDuration,
        phase: SimDuration,
    },
}

/// Behavioural profile of one PARSEC benchmark.
#[derive(Clone, Copy, Debug)]
pub struct ParsecProfile {
    pub name: &'static str,
    /// Per-thread compute budget of the nominal ("simsmall-like") run.
    pub work: SimDuration,
    /// Mean compute segment between scheduler-visible events.
    pub grain: SimDuration,
    /// Coefficient of variation of the grain (thread imbalance).
    pub grain_cv: f64,
    pub sync: SyncPattern,
    /// Input streaming rate in bytes per second of compute (0 = none).
    pub io_bytes_per_sec: u64,
    /// I/O request size.
    pub io_block: u64,
}

const MS: u64 = 1_000_000;
const US: u64 = 1_000;

macro_rules! d {
    ($ns:expr) => {
        SimDuration::from_nanos($ns)
    };
}

/// All 13 PARSEC 3.0 benchmarks.
pub const PARSEC: [ParsecProfile; 13] = [
    ParsecProfile {
        name: "blackscholes",
        work: d!(400 * MS),
        grain: d!(2_000 * US),
        grain_cv: 0.15,
        sync: SyncPattern::Barriers { phase: d!(40 * MS) },
        io_bytes_per_sec: 0,
        io_block: 0,
    },
    ParsecProfile {
        name: "bodytrack",
        work: d!(350 * MS),
        grain: d!(250 * US),
        grain_cv: 0.80,
        sync: SyncPattern::Mixed {
            locks: 2,
            cs: d!(3 * US),
            phase: d!(700 * US),
        },
        io_bytes_per_sec: 10_000_000,
        io_block: 16 * 1024,
    },
    ParsecProfile {
        name: "canneal",
        work: d!(400 * MS),
        grain: d!(150 * US),
        grain_cv: 0.25,
        sync: SyncPattern::Locks {
            locks: 64,
            cs: d!(2 * US),
        },
        io_bytes_per_sec: 20_000_000,
        io_block: 16 * 1024,
    },
    ParsecProfile {
        name: "dedup",
        work: d!(300 * MS),
        grain: d!(120 * US),
        grain_cv: 1.00,
        sync: SyncPattern::Mixed {
            locks: 4,
            cs: d!(2 * US),
            phase: d!(200 * US),
        },
        io_bytes_per_sec: 120_000_000,
        io_block: 8 * 1024,
    },
    ParsecProfile {
        name: "facesim",
        work: d!(450 * MS),
        grain: d!(600 * US),
        grain_cv: 0.60,
        sync: SyncPattern::Barriers { phase: d!(1_200 * US) },
        io_bytes_per_sec: 0,
        io_block: 0,
    },
    ParsecProfile {
        name: "ferret",
        work: d!(350 * MS),
        grain: d!(200 * US),
        grain_cv: 1.00,
        sync: SyncPattern::Mixed {
            locks: 1,
            cs: d!(2_500),
            phase: d!(250 * US),
        },
        io_bytes_per_sec: 30_000_000,
        io_block: 8 * 1024,
    },
    ParsecProfile {
        name: "fluidanimate",
        work: d!(400 * MS),
        grain: d!(40 * US),
        grain_cv: 0.50,
        sync: SyncPattern::Mixed {
            locks: 16,
            cs: d!(2 * US),
            phase: d!(3 * MS),
        },
        io_bytes_per_sec: 0,
        io_block: 0,
    },
    ParsecProfile {
        name: "freqmine",
        work: d!(450 * MS),
        grain: d!(1_200 * US),
        grain_cv: 0.60,
        sync: SyncPattern::Barriers { phase: d!(6 * MS) },
        io_bytes_per_sec: 5_000_000,
        io_block: 64 * 1024,
    },
    ParsecProfile {
        name: "raytrace",
        work: d!(400 * MS),
        grain: d!(1_800 * US),
        grain_cv: 0.25,
        sync: SyncPattern::Locks {
            locks: 16,
            cs: d!(2 * US),
        },
        io_bytes_per_sec: 0,
        io_block: 0,
    },
    ParsecProfile {
        name: "streamcluster",
        work: d!(350 * MS),
        grain: d!(120 * US),
        grain_cv: 0.50,
        sync: SyncPattern::Barriers {
            phase: d!(150 * US),
        },
        io_bytes_per_sec: 0,
        io_block: 0,
    },
    ParsecProfile {
        name: "swaptions",
        work: d!(400 * MS),
        grain: d!(1_000 * US),
        grain_cv: 0.10,
        sync: SyncPattern::None,
        io_bytes_per_sec: 0,
        io_block: 0,
    },
    ParsecProfile {
        name: "vips",
        work: d!(350 * MS),
        grain: d!(300 * US),
        grain_cv: 0.90,
        sync: SyncPattern::Mixed {
            locks: 2,
            cs: d!(3 * US),
            phase: d!(300 * US),
        },
        io_bytes_per_sec: 45_000_000,
        io_block: 16 * 1024,
    },
    ParsecProfile {
        name: "x264",
        work: d!(350 * MS),
        grain: d!(400 * US),
        grain_cv: 1.10,
        sync: SyncPattern::Mixed {
            locks: 2,
            cs: d!(6 * US),
            phase: d!(400 * US),
        },
        io_bytes_per_sec: 60_000_000,
        io_block: 16 * 1024,
    },
];

/// Look up a profile by name.
pub fn profile(name: &str) -> Option<&'static ParsecProfile> {
    PARSEC.iter().find(|p| p.name == name)
}

/// A thread executing a [`ParsecProfile`].
pub struct ParsecThread {
    profile: ParsecProfile,
    /// Compute-grain sampler, built from the profile's grain and cv.
    grain: Jitter,
    /// Scaled per-thread budget.
    total: SimDuration,
    remaining: SimDuration,
    /// Barrier crossings are *deterministic*: every sibling thread has
    /// the same budget and phase, so thresholds on consumed budget give
    /// every thread exactly the same arrival count — a thread exiting
    /// early would deadlock the others at the barrier, exactly as a
    /// buggy real barrier program would.
    barriers_total: u64,
    barriers_crossed: u64,
    phase: SimDuration,
    /// Compute accumulated since the last input read.
    since_io: SimDuration,
    io_interval: SimDuration,
    io_offset: u64,
    iter: u64,
    pending: Vec<Action>, // reversed queue of follow-up actions
}

impl ParsecThread {
    pub fn new(profile: ParsecProfile, scale: f64) -> Self {
        assert!(scale > 0.0, "non-positive scale");
        let io_interval = if profile.io_bytes_per_sec > 0 {
            SimDuration::from_nanos(
                (profile.io_block as u128 * 1_000_000_000 / profile.io_bytes_per_sec as u128)
                    as u64,
            )
        } else {
            SimDuration::FOREVER
        };
        let total = profile.work.mul_f64(scale);
        let phase = match profile.sync {
            SyncPattern::Barriers { phase } | SyncPattern::Mixed { phase, .. } => phase,
            _ => SimDuration::FOREVER,
        };
        let barriers_total = if phase == SimDuration::FOREVER || phase.is_zero() {
            0
        } else {
            total / phase
        };
        ParsecThread {
            profile,
            grain: Jitter::new(profile.grain, profile.grain_cv),
            total,
            remaining: total,
            barriers_total,
            barriers_crossed: 0,
            phase,
            since_io: SimDuration::ZERO,
            io_interval,
            io_offset: 0,
            iter: 0,
            pending: Vec::new(),
        }
    }

    /// Queue barrier arrivals for every phase threshold the consumed
    /// budget has passed.
    fn queue_due_barriers(&mut self) {
        let consumed = self.total - self.remaining;
        while self.barriers_crossed < self.barriers_total
            && consumed >= self.phase * (self.barriers_crossed + 1)
        {
            self.barriers_crossed += 1;
            self.pending.push(Action::Barrier(0));
        }
    }

    fn lock_id(&self, locks: u32) -> u32 {
        // Rotate over the lock namespace; different threads start at
        // different points by virtue of interleaving.
        (self.iter % u64::from(locks)) as u32
    }
}

impl ThreadModel for ParsecThread {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if let Some(a) = self.pending.pop() {
            return a;
        }
        if self.remaining.is_zero() {
            return Action::Done;
        }
        // One iteration: compute a grain, then queue the follow-ups.
        let p = self.profile;
        let seg = self.grain.sample(rng).min_of(self.remaining);
        self.remaining -= seg;
        self.since_io += seg;
        self.iter += 1;

        // Follow-ups execute in push-reverse order.
        match p.sync {
            SyncPattern::None => {}
            SyncPattern::Locks { locks, cs } | SyncPattern::Mixed { locks, cs, .. } => {
                let id = self.lock_id(locks);
                let cs_len = cs.max_min();
                self.remaining = self.remaining.saturating_sub(cs_len);
                self.pending.push(Action::Unlock(id));
                self.pending.push(Action::Compute(cs_len));
                self.pending.push(Action::Lock(id));
            }
            SyncPattern::Barriers { .. } => {}
        }
        self.queue_due_barriers();
        // Carry the interval remainder so the long-run input rate matches
        // the profile even when grains overshoot the I/O interval.
        while self.since_io >= self.io_interval {
            self.since_io -= self.io_interval;
            let offset = self.io_offset;
            self.io_offset += p.io_block;
            self.pending.push(Action::Io {
                op: IoOp::Read,
                offset,
                bytes: p.io_block,
            });
        }
        Action::Compute(seg)
    }

    fn label(&self) -> &str {
        self.profile.name
    }

    fn fingerprint(&self, h: &mut paratick_sim::StableHasher) {
        use paratick_sim::StableHash;
        let p = &self.profile;
        h.write_str("parsec");
        h.write_str(p.name);
        // `total` already folds the scale factor into the budget.
        self.total.stable_hash(h);
        p.grain.stable_hash(h);
        h.write_f64(p.grain_cv);
        match p.sync {
            SyncPattern::None => h.write_discriminant(0),
            SyncPattern::Locks { locks, cs } => {
                h.write_discriminant(1);
                h.write_u64(locks as u64);
                cs.stable_hash(h);
            }
            SyncPattern::Barriers { phase } => {
                h.write_discriminant(2);
                phase.stable_hash(h);
            }
            SyncPattern::Mixed { locks, cs, phase } => {
                h.write_discriminant(3);
                h.write_u64(locks as u64);
                cs.stable_hash(h);
                phase.stable_hash(h);
            }
        }
        h.write_u64(p.io_bytes_per_sec);
        h.write_u64(p.io_block);
    }
}

trait MaxMin {
    fn max_min(self) -> Self;
}

impl MaxMin for SimDuration {
    /// Clamp to at least 1 ns so critical sections never vanish.
    fn max_min(self) -> SimDuration {
        if self.is_zero() {
            SimDuration::from_nanos(1)
        } else {
            self
        }
    }
}

/// Build the workload for one PARSEC benchmark with `nthreads` threads
/// (1 = the paper's sequential mode) scaled by `scale`.
pub fn workload(profile: &ParsecProfile, nthreads: usize, scale: f64) -> VmWorkload {
    assert!(nthreads > 0, "at least one thread");
    let threads: Vec<Box<dyn ThreadModel>> = (0..nthreads)
        .map(|_| Box::new(ParsecThread::new(*profile, scale)) as Box<dyn ThreadModel>)
        .collect();
    let num_locks = match profile.sync {
        SyncPattern::Locks { locks, .. } | SyncPattern::Mixed { locks, .. } => locks,
        _ => 0,
    };
    let num_barriers = match profile.sync {
        SyncPattern::Barriers { .. } | SyncPattern::Mixed { .. } => 1,
        _ => 0,
    };
    VmWorkload {
        name: format!("parsec/{}({} thr)", profile.name, nthreads),
        threads,
        num_locks: num_locks.max(1),
        num_barriers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_13_profiles_present_and_distinct() {
        assert_eq!(PARSEC.len(), 13);
        let names: std::collections::HashSet<&str> = PARSEC.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 13);
        for expected in [
            "blackscholes",
            "bodytrack",
            "canneal",
            "dedup",
            "facesim",
            "ferret",
            "fluidanimate",
            "freqmine",
            "raytrace",
            "streamcluster",
            "swaptions",
            "vips",
            "x264",
        ] {
            assert!(profile(expected).is_some(), "missing {expected}");
        }
        assert!(profile("nonexistent").is_none());
    }

    #[test]
    fn profiles_are_sane() {
        for p in &PARSEC {
            assert!(!p.work.is_zero(), "{}: zero work", p.name);
            assert!(!p.grain.is_zero(), "{}: zero grain", p.name);
            assert!(p.grain_cv >= 0.0 && p.grain_cv < 2.0, "{}: odd cv", p.name);
            if p.io_bytes_per_sec > 0 {
                assert!(p.io_block > 0, "{}: io without block size", p.name);
            }
            match p.sync {
                SyncPattern::Locks { locks, cs } | SyncPattern::Mixed { locks, cs, .. } => {
                    assert!(locks > 0, "{}: zero locks", p.name);
                    assert!(!cs.is_zero(), "{}: zero cs", p.name);
                    assert!(cs < p.grain * 2, "{}: cs longer than grain", p.name);
                }
                SyncPattern::Barriers { phase } => {
                    assert!(phase >= p.grain, "{}: phase shorter than grain", p.name)
                }
                SyncPattern::None => {}
            }
        }
    }

    fn run_thread(p: &ParsecProfile, scale: f64) -> Vec<Action> {
        let mut t = ParsecThread::new(*p, scale);
        let mut rng = SimRng::new(11);
        let mut out = Vec::new();
        for _ in 0..2_000_000 {
            let a = t.next(&mut rng);
            let done = a == Action::Done;
            out.push(a);
            if done {
                return out;
            }
        }
        panic!("{} did not terminate", p.name);
    }

    #[test]
    fn threads_terminate_and_spend_budget() {
        for p in &PARSEC {
            let actions = run_thread(p, 0.05);
            let compute: SimDuration = actions
                .iter()
                .filter_map(|a| match a {
                    Action::Compute(d) => Some(*d),
                    _ => None,
                })
                .sum();
            let budget = p.work.mul_f64(0.05);
            // Compute totals the budget within one grain of slack.
            assert!(
                compute >= budget.saturating_sub(p.grain * 2)
                    && compute <= budget + p.grain * 2,
                "{}: compute {compute} vs budget {budget}",
                p.name
            );
        }
    }

    #[test]
    fn lock_discipline_is_clean() {
        for p in &PARSEC {
            let actions = run_thread(p, 0.02);
            let mut held: Option<u32> = None;
            for a in &actions {
                match a {
                    Action::Lock(id) => {
                        assert!(held.is_none(), "{}: nested lock", p.name);
                        held = Some(*id);
                    }
                    Action::Unlock(id) => {
                        assert_eq!(held, Some(*id), "{}: bad unlock", p.name);
                        held = None;
                    }
                    _ => {}
                }
            }
            assert!(held.is_none(), "{}: leaked lock", p.name);
        }
    }

    #[test]
    fn dedup_reads_more_than_blackscholes() {
        let io_bytes = |name: &str| -> u64 {
            run_thread(profile(name).unwrap(), 0.05)
                .iter()
                .filter_map(|a| match a {
                    Action::Io { bytes, .. } => Some(*bytes),
                    _ => None,
                })
                .sum()
        };
        let dedup = io_bytes("dedup");
        let black = io_bytes("blackscholes");
        assert!(dedup > 0);
        assert_eq!(black, 0);
    }

    #[test]
    fn io_rate_close_to_profile() {
        let p = profile("dedup").unwrap();
        let actions = run_thread(p, 0.1);
        let bytes: u64 = actions
            .iter()
            .filter_map(|a| match a {
                Action::Io { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        let compute: SimDuration = actions
            .iter()
            .filter_map(|a| match a {
                Action::Compute(d) => Some(*d),
                _ => None,
            })
            .sum();
        let rate = bytes as f64 / compute.as_secs_f64();
        let target = p.io_bytes_per_sec as f64;
        assert!(
            (rate - target).abs() / target < 0.25,
            "dedup io rate {rate} vs {target}"
        );
    }

    #[test]
    fn streamcluster_barrier_rate() {
        let p = profile("streamcluster").unwrap();
        let actions = run_thread(p, 0.1);
        let barriers = actions
            .iter()
            .filter(|a| matches!(a, Action::Barrier(_)))
            .count();
        let compute: SimDuration = actions
            .iter()
            .filter_map(|a| match a {
                Action::Compute(d) => Some(*d),
                _ => None,
            })
            .sum();
        let per_sec = barriers as f64 / compute.as_secs_f64();
        // phase = 150us -> ~6700 barriers per compute-second.
        assert!(
            (5500.0..8000.0).contains(&per_sec),
            "streamcluster barrier rate {per_sec}"
        );
    }

    #[test]
    fn sequential_workload_single_thread() {
        let w = workload(profile("swaptions").unwrap(), 1, 0.1);
        assert_eq!(w.num_threads(), 1);
        assert!(w.name.contains("swaptions"));
    }

    #[test]
    fn parallel_workload_thread_count() {
        let w = workload(profile("fluidanimate").unwrap(), 16, 0.1);
        assert_eq!(w.num_threads(), 16);
        assert_eq!(w.num_locks, 16);
        assert_eq!(w.num_barriers, 1);
    }

    #[test]
    #[should_panic(expected = "non-positive scale")]
    fn zero_scale_rejected() {
        ParsecThread::new(PARSEC[0], 0.0);
    }
}
