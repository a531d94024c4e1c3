//! `table1-synth`: Table 1's W1–W4 in periodic, dynticks-idle and
//! paratick mode, simulated directly (no run cache) on one worker.

use crate::digest::{pass_digest, pinned};
use crate::layers::{checked, traced_run, Totals};
use crate::scenarios::{table1_cases, table1_scenario, SimKey, Table1Case};
use crate::trace::{Calibration, Spans};
use crate::Ledger;
use paratick::analytic;
use paratick::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Build every Table 1 scenario.
pub fn build_all(variant: u64) -> Vec<(Table1Case, Scenario)> {
    table1_cases()
        .into_iter()
        .map(|c| (c, table1_scenario(c, variant)))
        .collect()
}

/// Build every Table 1 scenario and its engine (set-up's unit of work).
pub fn build_engines(variant: u64) -> Vec<(Table1Case, Result<Engine, SimError>)> {
    build_all(variant)
        .into_iter()
        .map(|(c, s)| (c, Engine::new(s)))
        .collect()
}

/// Problems with one run's outputs beyond the audit: W1/W2 under
/// periodic ticks must produce exactly the analytic Table 1 count.
fn table1_problems(case: Table1Case, m: &RunMetrics) -> Option<String> {
    if case.mode != TickMode::Periodic || case.w > 2 {
        return None;
    }
    let want = analytic::table1()[case.w - 1].periodic;
    let got = m.timer_exits();
    (got != want).then(|| {
        format!(
            "{}: {got} timer exits, analytic Table 1 says {want}",
            case.label()
        )
    })
}

/// Charge a pass's run problems and its digest check to the ledger.
fn settle(
    variant: u64,
    runs: Vec<(Table1Case, Result<crate::layers::Traced, String>)>,
    ledger: &mut Ledger,
) -> f64 {
    let mut digests = Vec::new();
    let mut sim_s = 0.0;
    let attempted = runs.len() as u64;
    ledger.attempt(attempted);
    for (case, r) in runs {
        match r {
            Ok(mut t) => {
                t.problems.extend(table1_problems(case, &t.metrics));
                if !t.problems.is_empty() {
                    ledger.note(format!("{}: {}", case.label(), t.problems.join("; ")));
                    ledger.fail(1);
                }
                sim_s += t.metrics.duration.as_secs_f64();
                digests.push(t.digest);
            }
            Err(e) => {
                ledger.note(e);
                ledger.fail(1);
                digests.push(String::new());
            }
        }
    }
    let digest = pass_digest(&digests);
    if pinned("table1", variant) != Some(digest.as_str()) {
        ledger.note(format!(
            "table1 digest {digest} does not match the pin for {} variant {variant}",
            paratick::cache::ENGINE_VERSION
        ));
        ledger.fail(attempted);
    }
    sim_s
}

/// One untraced pass: the engines are built first, then each
/// `run_to_completion` is timed. Returns the build time, the pass wall
/// time, per-run latencies (ms) and the simulated seconds delivered.
pub fn pass(variant: u64, ledger: &mut Ledger) -> (Duration, Duration, Vec<(SimKey, f64)>, f64) {
    let b0 = Instant::now();
    let engines = build_engines(variant);
    let build = b0.elapsed();
    let mut lat = Vec::with_capacity(engines.len());
    let mut runs = Vec::with_capacity(engines.len());
    let t0 = Instant::now();
    for (case, e) in engines {
        let r0 = Instant::now();
        let r = e.and_then(Engine::run_to_completion);
        lat.push(((case.w, case.mode, 0), r0.elapsed().as_secs_f64() * 1e3));
        runs.push((case, r));
    }
    let wall = t0.elapsed();
    let runs = runs
        .into_iter()
        .map(|(c, r)| (c, r.map(checked).map_err(|e| format!("{}: {e}", c.label()))))
        .collect();
    let sim_s = settle(variant, runs, ledger);
    (build, wall, lat, sim_s)
}

/// One traced pass. Returns the wall time, the busy ratio of the one
/// worker and the slowest run's untraced-equivalent time (s).
pub fn traced_pass(
    variant: u64,
    calib: &Calibration,
    spans: &mut Spans,
    ledger: &mut Ledger,
    tot: &mut Totals,
) -> (Duration, f64, f64) {
    let start = spans.now_ns();
    let t0 = Instant::now();
    let mut local = Spans::new(spans.epoch());
    let mut runs = Vec::new();
    for case in table1_cases() {
        let sim: Arc<str> = format!("table1-synth/{}/{variant}", case.label()).into();
        runs.push((
            case,
            traced_run(
                &mut local,
                None,
                &sim,
                || table1_scenario(case, variant),
                None,
                calib,
                tot,
            ),
        ));
    }
    let wall = t0.elapsed();
    let pass_span = spans.closed("pass", None, None, start, spans.now_ns());
    let roots: Vec<usize> = (0..local.list.len())
        .filter(|&i| local.list[i].parent.is_none())
        .collect();
    let busy: u64 = roots.iter().map(|&i| local.list[i].dur_ns()).sum();
    let max_run = roots
        .iter()
        .map(|&i| {
            let replay: u64 = local.list[i..]
                .iter()
                .filter(|s| s.name == "replay.queue" || s.name == "trace.flush")
                .filter(|s| s.sim == local.list[i].sim)
                .map(|s| s.dur_ns())
                .sum();
            local.list[i].dur_ns().saturating_sub(replay)
        })
        .max()
        .unwrap_or(0);
    spans.absorb(local, Some(pass_span));
    settle(variant, runs, ledger);
    (
        wall,
        busy as f64 / wall.as_nanos() as f64,
        max_run as f64 / 1e9,
    )
}
