//! The paper grid: `grid-cold` (every simulation through an empty run
//! cache) and `grid-warm` (the same grid served from a filled cache).

use crate::digest::{pass_digest, pinned};
use crate::layers::{checked, traced_run, Totals};
use crate::scenarios::{grid, Cell, SimKey, Stamp, Stamps};
use crate::trace::{Calibration, Spans};
use crate::Ledger;
use paratick::cache::RunCache;
use paratick::experiment::{aggregate, Comparison};
use paratick::prelude::*;
use paratick::sweep::parallel_map;
use paratick_lab::expect::{for_figure, MetricKind};
use paratick_sim::ToJson;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One untraced pass of the grid through `Sweep::run`.
pub struct Pass {
    pub wall: Duration,
    pub report: SweepReport,
    /// Every scenario build the sweep asked for, in request order.
    pub stamps: Vec<Stamp>,
}

/// Run the grid once on `jobs` sweep workers. Only `Sweep::run` is
/// timed; building the cells happens before.
pub fn sweep_pass(variant: u64, jobs: usize) -> Pass {
    let stamps = Arc::new(Stamps::default());
    let cells = grid(variant, Some(&stamps));
    let sweep = Sweep::new("perfbench")
        .add_all(cells.into_iter().map(|c| c.exp))
        .jobs(jobs)
        .quiet();
    let t0 = Instant::now();
    let report = sweep.run();
    let wall = t0.elapsed();
    Pass {
        wall,
        report,
        stamps: stamps.take(),
    }
}

/// Per-simulation latencies (ms) from build stamps: the gap between
/// consecutive builds on one worker belongs to the earlier build's
/// simulation. Each worker's last simulation has no closing stamp and
/// is left out.
pub fn latencies_ms(stamps: &[Stamp]) -> Vec<(SimKey, f64)> {
    let mut by_thread: HashMap<std::thread::ThreadId, Vec<&Stamp>> = HashMap::new();
    for s in stamps {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let mut out = Vec::new();
    for mut v in by_thread.into_values() {
        v.sort_by_key(|s| s.at);
        out.extend(v.windows(2).map(|w| {
            let key = (w[0].cell, w[0].mode, w[0].seed);
            (key, (w[1].at - w[0].at).as_secs_f64() * 1e3)
        }));
    }
    out
}

/// The simulations of a pass in canonical order: cell, seed, then
/// baseline before treatment.
pub fn run_list(cells: &[Cell], stamps: &[Stamp]) -> Vec<(usize, TickMode, u64)> {
    let mut runs: Vec<(usize, TickMode, u64)> =
        stamps.iter().map(|s| (s.cell, s.mode, s.seed)).collect();
    runs.sort_by_key(|&(cell, mode, seed)| (cell, seed, mode != cells[cell].exp.baseline));
    runs
}

/// The outcome of checking one pass.
pub struct Checked {
    pub digests: Vec<String>,
    /// Simulated seconds the pass delivered.
    pub sim_s: f64,
    /// Canonical JSON of every comparison, for warm/cold identity.
    pub comparisons: String,
}

/// Check a grid pass: every cell completed, the cache traffic is what
/// the workload promises, every simulation is in the cache with a clean
/// audit, the pass digest matches the pin, and paratick lowers exits on
/// every figure. Failures are charged to `ledger`.
pub fn check_pass(
    cells: &[Cell],
    pass: &Pass,
    cache: &RunCache,
    variant: u64,
    warm: bool,
    ledger: &mut Ledger,
) -> Checked {
    let runs = run_list(cells, &pass.stamps);
    let attempted = runs.len() as u64;
    ledger.attempt(attempted);
    let r = &pass.report;
    let mut fail_all = Vec::new();
    if !r.failed.is_empty() {
        fail_all.push(format!(
            "{} cell(s) failed: {:?}",
            r.failed.len(),
            r.failed.first()
        ));
    }
    if r.completed.len() != cells.len() {
        fail_all.push(format!(
            "{} of {} cells completed",
            r.completed.len(),
            cells.len()
        ));
    }
    let (served, expected) = if warm {
        (r.cache.hits, "hits")
    } else {
        (r.cache.misses, "misses")
    };
    if served != attempted || r.cache.bypasses != 0 {
        fail_all.push(format!(
            "expected {attempted} cache {expected}, got {}",
            r.cache.summary()
        ));
    }

    let mut digests = Vec::with_capacity(runs.len());
    let mut sim_s = 0.0;
    let mut bad_runs = 0;
    for &(cell, mode, seed) in &runs {
        let key = RunCache::key(&cells[cell].exp.scenario(mode, seed));
        match cache.lookup(&key).map(checked) {
            Some(t) if t.problems.is_empty() => {
                sim_s += t.metrics.duration.as_secs_f64();
                digests.push(t.digest);
            }
            Some(t) => {
                ledger.note(format!(
                    "{} {mode} {seed:#x}: {}",
                    cells[cell].exp.name,
                    t.problems.join("; ")
                ));
                bad_runs += 1;
                digests.push(t.digest);
            }
            None => {
                ledger.note(format!(
                    "{} {mode} {seed:#x}: not in the run cache",
                    cells[cell].exp.name
                ));
                bad_runs += 1;
                digests.push(String::new());
            }
        }
    }
    let digest = pass_digest(&digests);
    match pinned("grid", variant) {
        Some(p) if p == digest => {}
        Some(p) => fail_all.push(format!("grid digest {digest} != pinned {p}")),
        None => fail_all.push(format!(
            "no grid digest pinned for {} variant {variant} (got {digest})",
            paratick::cache::ENGINE_VERSION
        )),
    }
    fail_all.extend(figure_problems(cells, &r.completed, ledger.verbose));

    if fail_all.is_empty() {
        ledger.fail(bad_runs);
    } else {
        for p in fail_all {
            ledger.note(p);
        }
        ledger.fail(attempted);
    }
    Checked {
        digests,
        sim_s,
        comparisons: r
            .completed
            .iter()
            .map(|c| c.to_json().to_string_compact())
            .collect(),
    }
}

/// The figures whose aggregate Δexits is not negative. With `print`,
/// each aggregate goes to stderr beside the paper's value.
fn figure_problems(cells: &[Cell], completed: &[Comparison], print: bool) -> Vec<String> {
    let figure: HashMap<&str, &str> = cells
        .iter()
        .map(|c| (c.exp.name.as_str(), c.figure))
        .collect();
    let mut figures: Vec<&str> = cells.iter().map(|c| c.figure).collect();
    figures.dedup();
    let mut problems = Vec::new();
    for fig in figures {
        let members: Vec<Comparison> = completed
            .iter()
            .filter(|c| figure.get(c.name.as_str()) == Some(&fig))
            .cloned()
            .collect();
        if members.is_empty() {
            problems.push(format!("{fig}: no completed cells"));
            continue;
        }
        let agg = aggregate(fig, &members);
        let paper = for_figure(fig)
            .find(|e| e.metric == MetricKind::ExitsPct)
            .map_or(f64::NAN, |e| e.paper);
        if print {
            eprintln!(
                "  {fig:<12} Δexits {:+6.1}%  (paper {paper:+.0}%)",
                agg.exits_pct
            );
        }
        if agg.exits_pct >= 0.0 || agg.exits_pct.is_nan() {
            problems.push(format!(
                "{fig}: paratick Δexits {:+.1}% is not negative",
                agg.exits_pct
            ));
        }
    }
    problems
}

/// Empty the cache: move its directory aside (the cache creates it
/// again on the next store). Deleting thousands of files here would
/// load the filesystem journal during the next timed pass, so the
/// moved-aside directories are deleted by [`remove_cache_dirs`] after
/// the measurements.
pub fn clear_cache(cache: &RunCache) {
    static MOVED: AtomicUsize = AtomicUsize::new(0);
    let dir: &Path = cache.dir();
    if dir.exists() {
        let mut aside = dir.as_os_str().to_owned();
        aside.push(format!(".old{}", MOVED.fetch_add(1, Ordering::Relaxed)));
        std::fs::rename(dir, aside).expect("benchmark cache directory can be moved aside");
    }
}

/// Delete the cache directory and every directory moved aside from it.
pub fn remove_cache_dirs(cache: &RunCache) -> std::io::Result<()> {
    let dir = cache.dir();
    let (Some(parent), Some(name)) = (dir.parent(), dir.file_name()) else {
        return Ok(());
    };
    if !parent.exists() {
        return Ok(());
    }
    for entry in std::fs::read_dir(parent)? {
        let entry = entry?;
        if entry
            .file_name()
            .to_string_lossy()
            .starts_with(&*name.to_string_lossy())
        {
            std::fs::remove_dir_all(entry.path())?;
        }
    }
    Ok(())
}

/// One traced pass over the grid: the cells on the same number of
/// workers as the sweep, each simulation under spans. Returns the wall
/// time of the parallel phase, the workers' busy ratio and the slowest
/// cell's time without replays (s).
#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    workload: &str,
    variant: u64,
    jobs: usize,
    runs: &[(usize, TickMode, u64)],
    cache: &RunCache,
    calib: &Calibration,
    spans: &mut Spans,
    ledger: &mut Ledger,
    tot: &mut Totals,
) -> (Duration, f64, f64) {
    let cells = grid(variant, None);
    let mut per_cell: Vec<Vec<(TickMode, u64)>> = vec![Vec::new(); cells.len()];
    for &(cell, mode, seed) in runs {
        per_cell[cell].push((mode, seed));
    }
    let indices: Vec<usize> = (0..cells.len()).collect();
    let epoch = spans.epoch();
    let start = spans.now_ns();
    let t0 = Instant::now();
    let outs = parallel_map(jobs, &indices, |_, &ci| {
        let mut local = Spans::new(epoch);
        let mut t = Totals::default();
        let mut results = Vec::new();
        let cell_span = local.begin("core.sweep.cell", None, None);
        for &(mode, seed) in &per_cell[ci] {
            let sim: Arc<str> =
                format!("{workload}/{}/{mode}/{seed:#x}", cells[ci].exp.name).into();
            let exp = &cells[ci].exp;
            results.push(traced_run(
                &mut local,
                Some(cell_span),
                &sim,
                || exp.scenario(mode, seed),
                Some(cache),
                calib,
                &mut t,
            ));
        }
        let cell_ns = local.end(cell_span);
        // Replays are tracing work, not sweep work.
        let replay_ns: u64 = local
            .list
            .iter()
            .filter(|s| s.name == "replay.queue" || s.name == "trace.flush")
            .map(|s| s.dur_ns())
            .sum();
        (
            local,
            t,
            results,
            cell_ns,
            cell_ns.saturating_sub(replay_ns),
        )
    });
    let wall = t0.elapsed();
    let pass_span = spans.closed("pass", None, None, start, spans.now_ns());
    let mut busy = 0u64;
    let mut max_cell = 0u64;
    let mut digests = Vec::new();
    for (local, t, results, cell_ns, work_ns) in outs {
        spans.absorb(local, Some(pass_span));
        tot.add(&t);
        busy += cell_ns;
        max_cell = max_cell.max(work_ns);
        for r in results {
            ledger.attempt(1);
            match r {
                Ok(tr) => {
                    if !tr.problems.is_empty() {
                        ledger.note(tr.problems.join("; "));
                        ledger.fail(1);
                    }
                    digests.push(tr.digest);
                }
                Err(e) => {
                    ledger.note(e);
                    ledger.fail(1);
                    digests.push(String::new());
                }
            }
        }
    }
    let digest = pass_digest(&digests);
    if pinned("grid", variant) != Some(digest.as_str()) {
        ledger.note(format!(
            "traced grid digest {digest} does not match the pin"
        ));
        ledger.fail(digests.len() as u64);
    }
    let busy_ratio = busy as f64 / (jobs as f64 * wall.as_nanos() as f64);
    (wall, busy_ratio, max_cell as f64 / 1e9)
}
