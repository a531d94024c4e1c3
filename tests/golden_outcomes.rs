//! Golden outcomes: the full `RunMetrics` of a fixed set of scenarios,
//! pinned as digests.
//!
//! Each digest covers the whole `RunMetrics` JSON — ledgers, exits,
//! faults, the audit report *and* the engine's own deterministic
//! diagnostics (`events_dispatched`, `queue_depth_high_water`, per-kind
//! dispatch counts, `audit.events_checked`) — with only the host-clock
//! fields zeroed. A change that claims to be a pure performance change
//! must leave every digest here unchanged; a change that alters
//! simulated results bumps `cache::ENGINE_VERSION` and re-pins (the
//! failure message prints the full table of fresh digests).
//!
//! Cases: Table 1's W1–W4 × periodic/dynticks-idle/paratick at a 1 s
//! horizon, one fig4 sequential-PARSEC cell and one fig6 fio cell
//! (both modes each), at the CLI's default scale. Then one short cell
//! per remaining random-duration sampler, so each draw site is pinned:
//! a bounded-queue pipeline, a network-RPC service, sleeper, compute
//! and barrier VMs, and four fio write jobs that overflow the device
//! write cache (so the media write-latency draw runs).

use paratick::prelude::*;
use paratick_sim::{StableHasher, ToJson};
use paratick_workloads::fio::{self, FioPattern, FioSpec};
use paratick_workloads::{
    netrpc, parsec, pipeline, synthetic, BarrierLoop, ComputeThread, SleeperThread, ThreadModel,
};

/// `paratick table1`'s simulation seed.
const TABLE1_SEED: u64 = 0x7AB1E1;
/// The first iteration seed an `Experiment` hands its builder.
const CELL_SEED: u64 = 0xE1E7_0000;
/// The CLI's default workload scale.
const SCALE: f64 = 0.25;

/// `(case, digest)`, in [`cases`] order.
const PINNED: &[(&str, &str)] = &[
    ("table1/W1/periodic", "402539e63c78f3ae"),
    ("table1/W1/dynticks", "3f281db0d9b8a24f"),
    ("table1/W1/paratick", "5b060e5509abf2f7"),
    ("table1/W2/periodic", "f304a404e52a337a"),
    ("table1/W2/dynticks", "e87b7862dba7a1ef"),
    ("table1/W2/paratick", "a88d8db9a6dea4cc"),
    ("table1/W3/periodic", "c757e298e83991ba"),
    ("table1/W3/dynticks", "731b4f79f57db02f"),
    ("table1/W3/paratick", "bfdf8c37bb8f7a31"),
    ("table1/W4/periodic", "a681a95442ae8a29"),
    ("table1/W4/dynticks", "062b0907a944212a"),
    ("table1/W4/paratick", "088b8a9f09cc2690"),
    ("fig4/dedup/dynticks", "16637a44451acc3d"),
    ("fig6/fio/seqr-4k/dynticks", "3221fd7700418220"),
    ("fig4/dedup/paratick", "52a250b166ab2135"),
    ("fig6/fio/seqr-4k/paratick", "a8f41f7d61d14920"),
    ("pipeline/paratick", "8d3338b16814d8f5"),
    ("netrpc/nic-10g/paratick", "220208e2a340c9ec"),
    ("sleepers/dynticks", "3f31762feba6da80"),
    ("compute/paratick", "fa9abc86bb6159d3"),
    ("barriers/dynticks", "ba22f31b90c53787"),
    ("fio/seqwr-256kx4/virtio-cached/paratick", "b8fc6a0da4ba490f"),
];

/// Digest of `m` with every host-clock field zeroed.
fn outcome_digest(m: &RunMetrics) -> String {
    let mut m = m.clone();
    m.profile.wall_nanos = 0;
    m.profile.wall_timed_kinds = false;
    for k in &mut m.profile.per_kind {
        k.wall_nanos = 0;
    }
    let mut h = StableHasher::new();
    h.write_str(&m.to_json().to_string_compact());
    h.finish_hex()[..16].to_string()
}

fn table1(w: usize, mode: TickMode) -> Scenario {
    let horizon = SimDuration::from_secs(1);
    let workloads = match w {
        1 => synthetic::w1(),
        2 => synthetic::w2(),
        3 => synthetic::w3(horizon),
        _ => synthetic::w4(horizon),
    };
    let mut s = Scenario::new(HostConfig {
        sockets: 1,
        pcpus_per_socket: 16,
        ..Default::default()
    })
    .until(RunUntil::Time(SimTime::ZERO + horizon))
    .seed(TABLE1_SEED);
    for wl in workloads {
        s = s.vm(
            VmConfig::with_vcpus(synthetic::W_VCPUS as u32)
                .mode(mode)
                .spanning(1),
            wl,
        );
    }
    s
}

/// A fig4 cell: sequential PARSEC in a 1-vCPU VM.
fn fig4(name: &str, mode: TickMode) -> Scenario {
    let profile = parsec::profile(name).expect("known benchmark");
    Scenario::new(HostConfig::default())
        .vm(
            VmConfig::with_vcpus(1).mode(mode).spanning(1),
            parsec::workload(profile, 1, SCALE),
        )
        .seed(CELL_SEED)
}

/// A fig6 cell: one fio job on a cached virtio disk.
fn fig6(spec: FioSpec, mode: TickMode) -> Scenario {
    let mut cfg = VmConfig::with_vcpus(1).mode(mode).spanning(1);
    cfg.device = DeviceKind::VirtioCached;
    Scenario::new(HostConfig::default())
        .vm(cfg, fio::workload(&spec))
        .seed(CELL_SEED)
}

/// A one-VM cell on the default host.
fn cell(vcpus: u32, mode: TickMode, device: DeviceKind, workload: VmWorkload) -> Scenario {
    let mut cfg = VmConfig::with_vcpus(vcpus).mode(mode).spanning(1);
    cfg.device = device;
    Scenario::new(HostConfig::default())
        .vm(cfg, workload)
        .seed(CELL_SEED)
}

fn threads_vm(name: &str, threads: Vec<Box<dyn ThreadModel>>, num_barriers: u32) -> VmWorkload {
    VmWorkload {
        name: name.into(),
        threads,
        num_locks: 1,
        num_barriers,
    }
}

fn pipeline_cell() -> Scenario {
    let spec = pipeline::PipelineSpec {
        items: 300,
        ..Default::default()
    };
    cell(4, TickMode::Paratick, DeviceKind::SataSsd, pipeline::workload(spec))
}

fn netrpc_cell() -> Scenario {
    let spec = netrpc::RpcSpec {
        calls_per_worker: 200,
        ..Default::default()
    };
    cell(4, TickMode::Paratick, DeviceKind::Nic10G, netrpc::workload(spec, 4))
}

/// Sleeps span several guest jiffies, so their jitter moves wakeups
/// across tick boundaries (a sub-jiffy sleep always ends at the next
/// tick, whatever was drawn).
fn sleepers_cell() -> Scenario {
    let threads = (0..3)
        .map(|i| {
            Box::new(SleeperThread::new(
                format!("sleeper{i}"),
                SimDuration::from_millis(10 + 2 * i),
                0.5,
                SimDuration::from_micros(20),
                60,
            )) as Box<dyn ThreadModel>
        })
        .collect();
    cell(2, TickMode::DynticksIdle, DeviceKind::SataSsd, threads_vm("sleepers", threads, 0))
}

/// A compute thread's draws show only in how many segments it takes to
/// spend its budget, so several threads make a changed draw visible.
fn compute_cell() -> Scenario {
    let threads = (0..6)
        .map(|i| {
            Box::new(ComputeThread::new(
                format!("compute{i}"),
                SimDuration::from_millis(20),
                SimDuration::from_micros(150),
                0.5,
            )) as Box<dyn ThreadModel>
        })
        .collect();
    cell(2, TickMode::Paratick, DeviceKind::SataSsd, threads_vm("compute", threads, 0))
}

fn barriers_cell() -> Scenario {
    let threads = (0..3)
        .map(|i| {
            Box::new(BarrierLoop::new(
                format!("phase{i}"),
                120,
                SimDuration::from_micros(200),
                0.3,
                0,
            )) as Box<dyn ThreadModel>
        })
        .collect();
    cell(2, TickMode::DynticksIdle, DeviceKind::SataSsd, threads_vm("barriers", threads, 1))
}

/// Sequential 256 KiB writes.
fn fio_overflow_spec() -> FioSpec {
    FioSpec::new(FioPattern::SeqWrite, 256 * 1024, 512 << 20)
}

/// Jobs of [`fio_overflow_cell`]: together they write several times
/// faster than the cached virtio disk drains its write cache.
const FIO_OVERFLOW_JOBS: u32 = 4;

fn fio_overflow_cell() -> Scenario {
    let spec = fio_overflow_spec();
    let threads = (0..FIO_OVERFLOW_JOBS)
        .flat_map(|_| fio::workload(&spec).threads)
        .collect();
    cell(
        FIO_OVERFLOW_JOBS,
        TickMode::Paratick,
        DeviceKind::VirtioCached,
        threads_vm(&spec.job_name(), threads, 0),
    )
}

fn cases() -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    for w in 1..=4 {
        for mode in [
            TickMode::Periodic,
            TickMode::DynticksIdle,
            TickMode::Paratick,
        ] {
            out.push((format!("table1/W{w}/{mode}"), table1(w, mode)));
        }
    }
    let spec = FioSpec::new(
        FioPattern::SeqRead,
        4096,
        ((48u64 << 20) as f64 * SCALE) as u64,
    );
    for mode in [TickMode::DynticksIdle, TickMode::Paratick] {
        out.push((format!("fig4/dedup/{mode}"), fig4("dedup", mode)));
        out.push((format!("fig6/{}/{mode}", spec.job_name()), fig6(spec, mode)));
    }
    out.push(("pipeline/paratick".into(), pipeline_cell()));
    out.push(("netrpc/nic-10g/paratick".into(), netrpc_cell()));
    out.push(("sleepers/dynticks".into(), sleepers_cell()));
    out.push(("compute/paratick".into(), compute_cell()));
    out.push(("barriers/dynticks".into(), barriers_cell()));
    out.push((
        format!("{}x4/virtio-cached/paratick", fio_overflow_spec().job_name()),
        fio_overflow_cell(),
    ));
    out
}

#[test]
fn run_metrics_match_pinned_digests() {
    let got: Vec<(String, String)> = cases()
        .into_iter()
        .map(|(label, s)| {
            let m = Engine::run(s).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(m.audit.is_clean(), "{label}: {:?}", m.audit.violations);
            (label, outcome_digest(&m))
        })
        .collect();
    let pinned: Vec<(String, String)> = PINNED
        .iter()
        .map(|&(l, d)| (l.to_string(), d.to_string()))
        .collect();
    let table: String = got
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", \"{d}\"),\n"))
        .collect();
    assert_eq!(
        got, pinned,
        "RunMetrics outcomes changed; fresh digests:\n{table}"
    );
}

/// The fio overflow cell really exercises the device's media write
/// path: `cache_hits < writes` on its device. The device counters are not part of
/// `RunMetrics`, so this bounds them instead. A write is a cache hit
/// only if it fits in the free cache, and over the run the cache can
/// absorb at most its size plus what drained in the meantime; so
/// `cache_hits ≤ absorbable / block`, which must fall short of the
/// job's write count.
#[test]
fn fio_overflow_cell_misses_the_write_cache() {
    let spec = fio_overflow_spec();
    let m = Engine::run(fio_overflow_cell()).unwrap();
    assert!(m.audit.is_clean(), "{:?}", m.audit.violations);
    let p = DeviceKind::VirtioCached.profile();
    let run_ns = m.duration.as_nanos() as u128;
    let absorbable =
        p.write_cache_bytes as u128 + run_ns * p.cache_drain_bps as u128 / 1_000_000_000;
    let max_cache_hits = absorbable / spec.block_size as u128;
    let writes = (FIO_OVERFLOW_JOBS as u64 * spec.total_bytes / spec.block_size) as u128;
    assert!(
        max_cache_hits < writes,
        "at most {max_cache_hits} of {writes} writes can hit the cache in {}",
        m.duration
    );
}

#[test]
fn digest_ignores_host_clock_but_not_diagnostics() {
    let m = Engine::run(fig4("swaptions", TickMode::Paratick)).unwrap();
    let d = outcome_digest(&m);
    let mut n = m.clone();
    n.profile.wall_nanos += 1;
    n.profile.wall_timed_kinds = !n.profile.wall_timed_kinds;
    for k in &mut n.profile.per_kind {
        k.wall_nanos += 7;
    }
    assert_eq!(
        outcome_digest(&n),
        d,
        "host-clock fields leak into the digest"
    );

    let mut n = m.clone();
    n.events_dispatched += 1;
    assert_ne!(outcome_digest(&n), d, "events_dispatched");
    let mut n = m.clone();
    n.profile.queue_depth_high_water += 1;
    assert_ne!(outcome_digest(&n), d, "queue_depth_high_water");
    let mut n = m.clone();
    n.audit.events_checked += 1;
    assert_ne!(outcome_digest(&n), d, "audit.events_checked");
}
