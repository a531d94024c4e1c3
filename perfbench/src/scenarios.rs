//! The benchmark's inputs, built through the public scenario API.
//!
//! `--seed` selects one of [`VARIANTS`] input variants. Variant 0 is the
//! repository's canonical input (what `paratick sweep` and `paratick
//! table1` simulate); variant `v` offsets every simulation seed by `v`
//! strides. Keeping the variant set finite is what lets each variant's
//! outcome digest be pinned.

use paratick::experiment::Experiment;
use paratick::prelude::*;
use paratick_bench::{
    fio_bytes, fio_experiment, par_parsec_experiment, seq_parsec_experiment, VmSize,
};
use paratick_workloads::fio::{FioPattern, FioSpec, BLOCK_SIZES};
use paratick_workloads::{synthetic, PARSEC};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Number of input variants `--seed` chooses among.
pub const VARIANTS: u64 = 16;
/// Seed offset between grid variants (above any iteration count).
const GRID_STRIDE: u64 = 0x100;
/// Table 1's canonical simulation seed (`paratick table1`).
const TABLE1_SEED: u64 = 0x7AB1E1;
/// The first iteration seed an [`Experiment`] hands its builder; only
/// set-up's materialization pass uses it, everything else replays the
/// seeds the sweep actually asked for.
const FIRST_ITERATION_SEED: u64 = 0xE1E7_0000;

pub fn variant_of(seed: u64) -> u64 {
    seed % VARIANTS
}

/// Identifies one simulation across passes: (cell or Table 1 scenario,
/// mode, seed).
pub type SimKey = (usize, TickMode, u64);

/// One scenario build request seen by a grid cell's builder.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    pub cell: usize,
    pub mode: TickMode,
    pub seed: u64,
    pub thread: ThreadId,
    pub at: Instant,
}

/// Build requests recorded during a sweep. The builder runs right before
/// each simulation, so consecutive stamps on one worker thread bracket
/// one simulation's host latency.
#[derive(Default)]
pub struct Stamps {
    list: Mutex<Vec<Stamp>>,
}

impl Stamps {
    pub fn take(&self) -> Vec<Stamp> {
        std::mem::take(&mut *self.list.lock().expect("stamp log lock"))
    }

    fn mark(&self, cell: usize, mode: TickMode, seed: u64) {
        let stamp = Stamp {
            cell,
            mode,
            seed,
            thread: std::thread::current().id(),
            at: Instant::now(),
        };
        self.list.lock().expect("stamp log lock").push(stamp);
    }
}

/// A grid cell: its figure key (as `paratick_lab::expect` names it) and
/// the experiment.
pub struct Cell {
    pub figure: &'static str,
    pub exp: Experiment,
}

/// The fig4 + fig5 + fig6 grid `paratick sweep` runs, at the CLI's
/// default scale, for input `variant`. With `stamps`, every scenario
/// build is recorded.
pub fn grid(variant: u64, stamps: Option<&Arc<Stamps>>) -> Vec<Cell> {
    let mut inner: Vec<(&'static str, Experiment)> = Vec::new();
    for p in PARSEC.iter() {
        inner.push(("fig4", seq_parsec_experiment(p.name)));
    }
    for size in VmSize::ALL {
        let fig = match size {
            VmSize::Small => "fig5/small",
            VmSize::Medium => "fig5/medium",
            VmSize::Large => "fig5/large",
        };
        for p in PARSEC.iter() {
            inner.push((fig, par_parsec_experiment(p.name, size)));
        }
    }
    for pattern in FioPattern::ALL {
        for bs in BLOCK_SIZES {
            inner.push((
                "fig6",
                fio_experiment(FioSpec::new(pattern, bs, fio_bytes())),
            ));
        }
    }
    inner
        .into_iter()
        .enumerate()
        .map(|(cell, (figure, exp))| Cell {
            figure,
            exp: wrap(cell, exp, variant, stamps.cloned()),
        })
        .collect()
}

/// Re-seed an experiment for `variant`, keeping its protocol (modes,
/// iteration bounds, stability target) unchanged.
fn wrap(cell: usize, inner: Experiment, variant: u64, stamps: Option<Arc<Stamps>>) -> Experiment {
    let name = inner.name.clone();
    let (baseline, treatment) = (inner.baseline, inner.treatment);
    let (min, max, cv) = (inner.min_iterations, inner.max_iterations, inner.cv_target);
    let mut e = Experiment::new(name, move |mode, seed| {
        if let Some(s) = &stamps {
            s.mark(cell, mode, seed);
        }
        inner.scenario(mode, seed + variant * GRID_STRIDE)
    })
    .modes(baseline, treatment)
    .iterations(min, max);
    e.cv_target = cv;
    e
}

/// Every scenario a grid would simulate at its iteration cap, built
/// once together with its engine (set-up's materialization pass; both
/// are dropped unrun).
pub fn materialize(cells: &[Cell]) -> usize {
    let mut n = 0;
    for c in cells {
        for i in 0..u64::from(c.exp.max_iterations) {
            for mode in [c.exp.baseline, c.exp.treatment] {
                let scenario = c.exp.scenario(mode, FIRST_ITERATION_SEED + i);
                std::hint::black_box(Engine::new(scenario).is_ok());
                n += 1;
            }
        }
    }
    n
}

/// A Table 1 case: scenario W1..W4 (1-based) in one tick mode.
#[derive(Clone, Copy, Debug)]
pub struct Table1Case {
    pub w: usize,
    pub mode: TickMode,
}

impl Table1Case {
    pub fn label(&self) -> String {
        format!("W{}/{}", self.w, self.mode)
    }
}

/// W1–W4 × {periodic, dynticks-idle, paratick}.
pub fn table1_cases() -> Vec<Table1Case> {
    (1..=4)
        .flat_map(|w| {
            [
                TickMode::Periodic,
                TickMode::DynticksIdle,
                TickMode::Paratick,
            ]
            .into_iter()
            .map(move |mode| Table1Case { w, mode })
        })
        .collect()
}

/// Table 1's horizon (§3.3: 10 s).
pub const TABLE1_SECS: u64 = 10;

/// The simulated Table 1 scenario: 16-vCPU VMs on a 16-pCPU host.
pub fn table1_scenario(case: Table1Case, variant: u64) -> Scenario {
    let dur = SimDuration::from_secs(TABLE1_SECS);
    let workloads = match case.w {
        1 => synthetic::w1(),
        2 => synthetic::w2(),
        3 => synthetic::w3(dur),
        _ => synthetic::w4(dur),
    };
    let mut s = Scenario::new(HostConfig {
        sockets: 1,
        pcpus_per_socket: 16,
        ..Default::default()
    })
    .until(RunUntil::Time(SimTime::from_secs(TABLE1_SECS)))
    .seed(TABLE1_SEED + variant);
    for w in workloads {
        s = s.vm(
            VmConfig::with_vcpus(synthetic::W_VCPUS as u32)
                .mode(case.mode)
                .spanning(1),
            w,
        );
    }
    s
}
