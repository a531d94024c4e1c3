//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! paratick-perfbench --workload <grid-cold|grid-warm|table1-synth> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! paratick-perfbench pin      # print the digest pins for pins.txt
//! paratick-perfbench compare BASE.jsonl CAND.jsonl
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Scratch files go under `perfbench/.out/`.

mod digest;
mod grid;
mod layers;
mod scenarios;
mod stats;
mod table1;
mod trace;

use layers::{layer_metrics, Metric, Totals};
use paratick::cache::RunCache;
use scenarios::{variant_of, SimKey};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Calibration, Spans};

const WORKLOADS: [&str; 3] = ["grid-cold", "grid-warm", "table1-synth"];
/// Sweep workers: the two-core machine the benchmark was tuned on, and
/// never more than the machine has.
const MAX_JOBS: usize = 2;
/// Most traced passes per run: enough for stable per-layer figures,
/// few enough to keep the span log small.
const MAX_TRACED_PASSES: usize = 10;
/// Timed set-ups at the start of a run: the grid builds 480 engines
/// per set-up, Table 1 twelve (and each Table 1 pass times one more).
const GRID_SETUP_REPS: usize = 7;
const TABLE1_SETUP_REPS: usize = 7;
/// Scratch directory, relative to the repository root.
const OUT_DIR: &str = "perfbench/.out";

/// Operations attempted and failed, plus what went wrong.
pub struct Ledger {
    attempted: u64,
    failed: u64,
    print: usize,
    notes: usize,
    /// Print per-figure aggregates (first checked pass only).
    verbose: bool,
}

impl Ledger {
    /// A ledger that prints the first `print` failed checks.
    fn new(print: usize) -> Ledger {
        Ledger {
            attempted: 0,
            failed: 0,
            print,
            notes: 0,
            verbose: false,
        }
    }

    fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    fn fail(&mut self, n: u64) {
        self.failed += n;
    }

    fn note(&mut self, msg: String) {
        self.notes += 1;
        if self.notes <= self.print {
            eprintln!("perfbench: check failed: {msg}");
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: paratick-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         paratick-perfbench pin\n       paratick-perfbench compare BASE.jsonl CAND.jsonl",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// Pin the environment: no inherited `PARATICK_*` knob may change what
/// runs, and the run cache lives in a private directory.
fn isolate_env(cache_dir: &Path) {
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("PARATICK_") {
            std::env::remove_var(k);
        }
    }
    std::env::set_var("PARATICK_CACHE_DIR", cache_dir);
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run `pass` at least `min` times, and again while another pass of
/// average length still fits in `budget`, at most `max` times.
fn repeat<F: FnMut(usize)>(budget: Duration, min: usize, max: usize, mut pass: F) {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min.max(1) || (n < max && t0.elapsed() + t0.elapsed() / n as u32 <= budget) {
        pass(n);
        n += 1;
    }
}

/// `reps` timed calls, in seconds, after one untimed call that pays
/// for first-touch allocation. Dropping a call's result is not timed.
fn timed_reps<T, F: FnMut() -> T>(reps: usize, mut f: F) -> Vec<f64> {
    drop(f());
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let out = f();
            let dt = t0.elapsed().as_secs_f64();
            drop(out);
            dt
        })
        .collect()
}

/// End-to-end results of the untraced passes.
///
/// The host's speed drifts (by up to 2x over tens of seconds on a shared
/// machine), so timings come from the run's quiet moments: `wall_s` is
/// the fastest pass, and each simulation's latency is its fastest
/// repeat. The latency percentiles are taken over simulations.
#[derive(Default)]
struct Untraced {
    walls: Vec<f64>,
    /// Simulated seconds per host second, per pass.
    rates: Vec<f64>,
    /// Each simulation's fastest latency (ms) so far.
    fastest: HashMap<SimKey, f64>,
}

impl Untraced {
    fn push(&mut self, wall: Duration, lat: Vec<(SimKey, f64)>, sim_s: f64) {
        let w = wall.as_secs_f64();
        self.walls.push(w);
        self.rates.push(sim_s / w);
        for (key, ms) in lat {
            let best = self.fastest.entry(key).or_insert(ms);
            *best = best.min(ms);
        }
    }

    fn metrics(&self, setup_s: f64) -> Vec<Metric> {
        let wall = self.walls.iter().copied().fold(f64::INFINITY, f64::min);
        let rate = self.rates.iter().copied().fold(0.0, f64::max);
        let lat: Vec<f64> = self.fastest.values().copied().collect();
        let p50 = stats::median(&lat);
        let (p97, q) = stats::tail_or_nearest(&lat, 0.97);
        eprintln!(
            "perfbench: {} passes, best {wall:.4} s, median {:.4} s; run_ms over the best \
             repeats of {} simulations: p50 {p50:.4}, p97 slot {p97:.4} (quantile {q:.3}, {} beyond)",
            self.walls.len(),
            stats::median(&self.walls),
            lat.len(),
            lat.len() - (q * lat.len() as f64).round() as usize
        );
        vec![
            ("setup_s".into(), setup_s, "s"),
            ("wall_s".into(), wall, "s"),
            ("sim_s_per_host_s".into(), rate, "s/s"),
            ("run_ms.p50".into(), p50, "ms"),
            ("run_ms.p97".into(), p97, "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ]
    }

    fn best_wall(&self) -> f64 {
        self.walls.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Per-layer results of the traced passes.
struct TracedRuns {
    calib: Calibration,
    spans: Spans,
    tot: Totals,
    walls: Vec<f64>,
    busy: Vec<f64>,
    max_run_s: Vec<f64>,
}

impl TracedRuns {
    fn new(epoch: Instant) -> TracedRuns {
        TracedRuns {
            calib: Calibration::measure(),
            spans: Spans::new(epoch),
            tot: Totals::default(),
            walls: Vec::new(),
            busy: Vec::new(),
            max_run_s: Vec::new(),
        }
    }

    fn push(&mut self, (wall, busy, max_run_s): (Duration, f64, f64)) {
        self.walls.push(wall.as_secs_f64());
        self.busy.push(busy);
        self.max_run_s.push(max_run_s);
    }

    fn metrics(&self, untraced: &Untraced) -> Vec<Metric> {
        let mut m = layer_metrics(&self.tot, self.walls.len() as u64);
        let best = self.walls.iter().copied().fold(f64::INFINITY, f64::min);
        let overhead = best / untraced.best_wall();
        eprintln!(
            "perfbench: {} traced passes, best {:.4} s, overhead ×{overhead:.3}; \
             calibration: next {:.1}/{:.1} ns inside/outside, sink {:.1} ns/event",
            self.walls.len(),
            best,
            self.calib.next_inside_ns,
            self.calib.next_outside_ns,
            self.calib.sink_per_event_ns
        );
        m.extend([
            (
                "core.sweep.busy_ratio".into(),
                stats::median(&self.busy),
                "ratio",
            ),
            (
                "core.sweep.max_run_s".into(),
                stats::median(&self.max_run_s),
                "s",
            ),
            ("trace.overhead_ratio".into(), overhead, "ratio"),
        ]);
        m
    }
}

/// Run one workload; returns its metrics and the traced spans, if any.
fn run_workload(
    args: &Args,
    cache: &RunCache,
    jobs: usize,
    ledger: &mut Ledger,
) -> (Vec<Metric>, Option<Spans>) {
    let variant = variant_of(args.seed);
    let epoch = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    // With tracing, half the budget measures the untraced baseline the
    // overhead is taken against.
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let mut un = Untraced::default();
    let mut traced = args.trace.then(|| TracedRuns::new(epoch));

    let setup_s;
    match args.workload.as_str() {
        "grid-cold" => {
            setup_s = stats::median(&timed_reps(GRID_SETUP_REPS, || {
                let cells = scenarios::grid(variant, None);
                std::hint::black_box(scenarios::materialize(&cells))
            }));
            let cells = scenarios::grid(variant, None);
            let mut runs = Vec::new();
            repeat(untraced_budget, 1, usize::MAX, |i| {
                grid::clear_cache(cache);
                let pass = grid::sweep_pass(variant, jobs);
                ledger.verbose = i == 0;
                let c = grid::check_pass(&cells, &pass, cache, variant, false, ledger);
                un.push(pass.wall, grid::latencies_ms(&pass.stamps), c.sim_s);
                runs = grid::run_list(&cells, &pass.stamps);
            });
            if let Some(t) = traced.as_mut() {
                repeat(budget - untraced_budget, 1, MAX_TRACED_PASSES, |_| {
                    grid::clear_cache(cache);
                    let r = grid::traced_pass(
                        "grid-cold",
                        variant,
                        jobs,
                        &runs,
                        cache,
                        &t.calib,
                        &mut t.spans,
                        ledger,
                        &mut t.tot,
                    );
                    t.push(r);
                });
            }
        }
        "grid-warm" => {
            let cells = scenarios::grid(variant, None);
            let mut cold = None;
            let mut runs = Vec::new();
            let mut setups = Vec::new();
            for i in 0..if args.trace { 1 } else { 3 } {
                grid::clear_cache(cache);
                let t0 = Instant::now();
                let pass = grid::sweep_pass(variant, jobs);
                setups.push(t0.elapsed().as_secs_f64());
                ledger.verbose = i == 0;
                cold = Some(grid::check_pass(
                    &cells, &pass, cache, variant, false, ledger,
                ));
                runs = grid::run_list(&cells, &pass.stamps);
            }
            setup_s = stats::median(&setups);
            let cold = cold.expect("set-up ran a cold pass");
            ledger.verbose = false;
            repeat(untraced_budget, 1, usize::MAX, |i| {
                let pass = grid::sweep_pass(variant, jobs);
                let (sim_s, lat) = (cold.sim_s, grid::latencies_ms(&pass.stamps));
                if i == 0 {
                    let warm = grid::check_pass(&cells, &pass, cache, variant, true, ledger);
                    if warm.digests != cold.digests || warm.comparisons != cold.comparisons {
                        ledger.note("warm pass decodes differently from the cold pass".into());
                        ledger.fail(warm.digests.len() as u64);
                    }
                } else {
                    let n = pass.stamps.len() as u64;
                    ledger.attempt(n);
                    let r = &pass.report;
                    if r.cache.hits != n || n != runs.len() as u64 || !r.failed.is_empty() {
                        ledger.note(format!("warm pass {i}: {}", r.cache.summary()));
                        ledger.fail(n);
                    }
                }
                un.push(pass.wall, lat, sim_s);
            });
            if let Some(t) = traced.as_mut() {
                // Refill the cache under spans: set-up's cold pass is where
                // this workload meets the cache's write side.
                grid::clear_cache(cache);
                let mut fill = Totals::default();
                grid::traced_pass(
                    "grid-warm/fill",
                    variant,
                    jobs,
                    &runs,
                    cache,
                    &t.calib,
                    &mut t.spans,
                    ledger,
                    &mut fill,
                );
                (t.tot.stores, t.tot.store_ns) = (fill.stores, fill.store_ns);
                t.tot.entry_bytes = fill.entry_bytes;
                repeat(budget - untraced_budget, 1, MAX_TRACED_PASSES, |_| {
                    let r = grid::traced_pass(
                        "grid-warm",
                        variant,
                        jobs,
                        &runs,
                        cache,
                        &t.calib,
                        &mut t.spans,
                        ledger,
                        &mut t.tot,
                    );
                    t.push(r);
                });
            }
        }
        _ => {
            // Every pass builds its engines again right before running
            // them; those builds are set-ups too, so the median spans the
            // whole run rather than its first moments.
            let mut setups = timed_reps(TABLE1_SETUP_REPS, || {
                std::hint::black_box(table1::build_engines(variant))
            });
            repeat(untraced_budget, 3, usize::MAX, |_| {
                let (build, wall, lat, sim_s) = table1::pass(variant, ledger);
                setups.push(build.as_secs_f64());
                un.push(wall, lat, sim_s);
            });
            setup_s = stats::median(&setups);
            if let Some(t) = traced.as_mut() {
                repeat(budget - untraced_budget, 1, MAX_TRACED_PASSES, |_| {
                    let r =
                        table1::traced_pass(variant, &t.calib, &mut t.spans, ledger, &mut t.tot);
                    t.push(r);
                });
            }
        }
    }

    match traced {
        Some(t) => {
            let m = t.metrics(&un);
            (m, Some(t.spans))
        }
        None => (un.metrics(setup_s), None),
    }
}

fn json_line(correct: bool, ledger: &Ledger, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

/// `pin`: print the pass digests of every input variant.
fn pin(cache: &RunCache, jobs: usize) {
    let version = paratick::cache::ENGINE_VERSION;
    // No pins exist yet for a new engine version: stay quiet about it.
    let mut ledger = Ledger::new(0);
    for v in 0..scenarios::VARIANTS {
        grid::clear_cache(cache);
        let cells = scenarios::grid(v, None);
        let pass = grid::sweep_pass(v, jobs);
        let c = grid::check_pass(&cells, &pass, cache, v, false, &mut ledger);
        println!("{version} grid {v} {}", digest::pass_digest(&c.digests));
        let runs: Vec<String> = table1::build_all(v)
            .into_iter()
            .map(|(_, s)| {
                let m = paratick::Engine::run(s).expect("table1 scenario simulates");
                digest::run_digest(&m)
            })
            .collect();
        println!("{version} table1 {v} {}", digest::pass_digest(&runs));
    }
    if let Err(e) = grid::remove_cache_dirs(cache) {
        eprintln!("perfbench: cannot remove the run cache: {e}");
    }
}

/// Metric values per run, from a file of result lines.
fn load_results(path: &str) -> Result<Vec<Vec<(String, f64)>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let doc = paratick_sim::Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            match doc.opt_field("metrics") {
                Some(paratick_sim::Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| {
                        let x = v.field("value").and_then(|x| x.as_f64());
                        x.map(|x| (k.clone(), x))
                            .map_err(|e| format!("{path}: {k}: {e}"))
                    })
                    .collect(),
                _ => Err(format!("{path}: a line without metrics")),
            }
        })
        .collect()
}

/// `compare BASE CAND`: each metric's medians in two files of result
/// lines (runs paired in file order) and whether the candidate shifted.
fn compare(base: &str, cand: &str) -> Result<(), String> {
    let (b, c) = (load_results(base)?, load_results(cand)?);
    let column = |runs: &[Vec<(String, f64)>], name: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect()
    };
    let names: Vec<String> = b
        .first()
        .map_or(Vec::new(), |r| r.iter().map(|(n, _)| n.clone()).collect());
    println!(
        "{:<36} {:>14} {:>14} {:>8} {:>8}  verdict",
        "metric", "base median", "cand median", "change", "spread"
    );
    for name in names {
        let (bv, cv) = (column(&b, &name), column(&c, &name));
        if cv.is_empty() {
            continue;
        }
        let (bm, cm) = (stats::median(&bv), stats::median(&cv));
        let verdict = if stats::shift_flagged(&bv, &cv) {
            "shifted"
        } else {
            "-"
        };
        println!(
            "{name:<36} {bm:>14.6} {cm:>14.6} {:>+7.2}% {:>8.4}  {verdict}",
            (cm - bm) / bm.abs() * 100.0,
            stats::spread(&bv)
        );
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, base, cand] = argv.as_slice() {
        if cmd == "compare" {
            if let Err(e) = compare(base, cand) {
                eprintln!("perfbench compare: {e}");
                std::process::exit(1);
            }
            return;
        }
    }
    let out = PathBuf::from(OUT_DIR);
    if !out.parent().is_some_and(Path::is_dir) {
        eprintln!("perfbench: run from the repository root (no perfbench/ directory here)");
        std::process::exit(2);
    }
    let cache_dir = std::env::current_dir()
        .expect("current directory is readable")
        .join(OUT_DIR)
        .join(format!("cache-{}", std::process::id()));
    isolate_env(&cache_dir);
    let cache = RunCache::new(&cache_dir);
    let jobs = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_JOBS);

    if argv.first().map(String::as_str) == Some("pin") {
        pin(&cache, jobs);
        return;
    }
    let args = parse_args(&argv);
    if RunCache::from_env().map(|c| c.dir().to_path_buf()) != Some(cache_dir.clone()) {
        eprintln!("perfbench: the run cache did not pick up its private directory");
        std::process::exit(1);
    }
    eprintln!(
        "perfbench: {} seed {} (input variant {}), {} s, trace {}, {jobs} sweep worker(s), {}",
        args.workload,
        args.seed,
        variant_of(args.seed),
        args.seconds,
        u8::from(args.trace),
        paratick::cache::ENGINE_VERSION
    );

    let mut ledger = Ledger::new(20);
    let (metrics, spans) = run_workload(&args, &cache, jobs, &mut ledger);
    if let Err(e) = grid::remove_cache_dirs(&cache) {
        eprintln!("perfbench: cannot remove the run cache: {e}");
        std::process::exit(1);
    }

    if let Some(spans) = spans {
        let path = out.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(&out).and_then(|_| std::fs::write(&path, spans.to_json()));
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.list.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        ledger.note(format!(
            "non-finite metric(s): {:?}",
            metrics
                .iter()
                .filter(|(_, v, _)| !v.is_finite())
                .map(|(n, _, _)| n)
                .collect::<Vec<_>>()
        ));
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    let correct = finite && ledger.failed == 0 && ledger.attempted > 0;
    println!("{}", json_line(correct, &ledger, &metrics));
}
