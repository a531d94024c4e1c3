//! Block and network device latency models.
//!
//! The fio experiments (paper §6.3) need a device whose *timing shape*
//! matches real storage: short, right-skewed read latencies; writes that
//! are mostly absorbed by a device write cache (fast acknowledgement)
//! with occasional long stalls when the cache drains; sequential
//! transfers dominated by bandwidth; random HDD accesses dominated by
//! seeks. The model is a single-server queue (one request in service at
//! a time — the paper uses the sync I/O engine, so per-thread queue depth
//! is 1 anyway) with a kind-specific service-time distribution and an
//! explicit write cache.
//!
//! The paper's test machine notably does *not* have an SR-IOV-capable
//! high-end SSD (§6.3) — the default device is therefore a SATA-class
//! SSD; `DeviceKind::NvmeSsd` exists for the "benefits grow with faster
//! devices" extrapolation the paper makes in its conclusion.

use paratick_sim::{LogNormal, SimDuration, SimRng, SimTime};

/// I/O operation direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoOp {
    Read,
    Write,
}

/// A request submitted to a device.
#[derive(Clone, Copy, Debug)]
pub struct IoRequest {
    pub op: IoOp,
    /// Byte offset; used only to classify sequential vs random access.
    pub offset: u64,
    pub bytes: u64,
}

/// Device classes with calibrated timing profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// 7200rpm spinning disk behind a RAID cache.
    Hdd,
    /// SATA-class SSD (the paper's test device class).
    SataSsd,
    /// Modern NVMe SSD.
    NvmeSsd,
    /// Virtio disk whose backing file sits in the *host* page cache —
    /// the effective device the paper's fio runs hit (guest buffering
    /// disabled, host caching very much enabled): reads are served from
    /// host RAM in ~20 us; writes pay the host writeback/journal path.
    VirtioCached,
    /// Datacenter 10 GbE NIC through virtio-net: a synchronous RPC
    /// round trip (§3.3's "datacenter network" microsecond-idle-period
    /// source; the conclusion's "high-performance I/O" future work).
    /// `Read` = request/response round trip; `Write` = fire-and-forget
    /// send (cheap local ack).
    Nic10G,
    /// A fast (100 GbE / RDMA-class) NIC: single-digit-microsecond
    /// round trips — the "killer microseconds" regime \[8\].
    NicFast,
}

/// Timing profile for a device kind.
#[derive(Clone, Copy, Debug)]
pub struct DeviceProfile {
    /// Mean read access latency (random, first byte).
    pub read_latency_ns: u64,
    /// Standard deviation of read latency.
    pub read_jitter_ns: u64,
    /// Mean media write latency (cache miss / flush path).
    pub write_latency_ns: u64,
    /// Latency of a write acknowledged by the device write cache.
    pub write_cache_ack_ns: u64,
    /// Extra first-byte penalty for a non-sequential access (seek).
    pub random_penalty_ns: u64,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bps: u64,
    /// Write cache size in bytes (0 disables the cache).
    pub write_cache_bytes: u64,
    /// Rate at which the write cache drains to media, bytes/sec.
    pub cache_drain_bps: u64,
    /// Independent service channels (hardware queues): requests only
    /// queue behind each other within a channel. 1 = a spinning disk's
    /// single head; NVMe and NICs serve many requests concurrently.
    pub parallelism: u32,
}

impl DeviceKind {
    pub fn profile(self) -> DeviceProfile {
        match self {
            DeviceKind::Hdd => DeviceProfile {
                read_latency_ns: 4_200_000, // ~4.2 ms
                read_jitter_ns: 1_500_000,
                write_latency_ns: 4_800_000,
                write_cache_ack_ns: 120_000, // RAID/drive cache hit
                random_penalty_ns: 3_800_000,
                bandwidth_bps: 180_000_000, // 180 MB/s
                write_cache_bytes: 256 << 20,
                cache_drain_bps: 160_000_000,
                parallelism: 1,
            },
            DeviceKind::SataSsd => DeviceProfile {
                read_latency_ns: 95_000, // ~95 us
                read_jitter_ns: 30_000,
                write_latency_ns: 220_000,
                write_cache_ack_ns: 45_000,
                random_penalty_ns: 15_000,
                bandwidth_bps: 520_000_000,
                write_cache_bytes: 512 << 20,
                cache_drain_bps: 450_000_000,
                parallelism: 8, // NCQ
            },
            DeviceKind::NvmeSsd => DeviceProfile {
                read_latency_ns: 14_000,
                read_jitter_ns: 5_000,
                write_latency_ns: 22_000,
                write_cache_ack_ns: 8_000,
                random_penalty_ns: 2_000,
                bandwidth_bps: 3_200_000_000,
                write_cache_bytes: 1 << 30,
                cache_drain_bps: 2_800_000_000,
                parallelism: 64,
            },
            DeviceKind::Nic10G => DeviceProfile {
                read_latency_ns: 28_000, // RTT + host net stack
                read_jitter_ns: 9_000,
                write_latency_ns: 40_000,
                write_cache_ack_ns: 6_000, // TX queue accepts the frame
                random_penalty_ns: 0,
                bandwidth_bps: 1_150_000_000, // ~9.2 Gb/s effective
                write_cache_bytes: 16 << 20,
                cache_drain_bps: 1_150_000_000,
                parallelism: 32, // multi-queue virtio-net
            },
            DeviceKind::NicFast => DeviceProfile {
                read_latency_ns: 8_000,
                read_jitter_ns: 2_500,
                write_latency_ns: 12_000,
                write_cache_ack_ns: 2_500,
                random_penalty_ns: 0,
                bandwidth_bps: 11_000_000_000,
                write_cache_bytes: 64 << 20,
                cache_drain_bps: 11_000_000_000,
                parallelism: 64,
            },
            DeviceKind::VirtioCached => DeviceProfile {
                read_latency_ns: 6_000, // host page-cache hit + virtio round trip
                read_jitter_ns: 2_500,
                write_latency_ns: 420_000, // writeback/journal stall
                write_cache_ack_ns: 45_000, // host absorbs the write
                random_penalty_ns: 3_000,
                bandwidth_bps: 3_000_000_000,
                write_cache_bytes: 384 << 20,
                cache_drain_bps: 480_000_000,
                parallelism: 16,
            },
        }
    }

    /// Stable lower-case name (used in cache keys and CLI parsing).
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Hdd => "hdd",
            DeviceKind::SataSsd => "sata-ssd",
            DeviceKind::NvmeSsd => "nvme-ssd",
            DeviceKind::VirtioCached => "virtio-cached",
            DeviceKind::Nic10G => "nic-10g",
            DeviceKind::NicFast => "nic-fast",
        }
    }
}

impl paratick_sim::StableHash for DeviceKind {
    fn stable_hash(&self, h: &mut paratick_sim::StableHasher) {
        // The name, not the discriminant: reordering the enum must not
        // silently invalidate (or worse, alias) cached runs.
        h.write_str(self.name());
    }
}

/// A single-server block device with a write cache.
#[derive(Clone, Debug)]
pub struct BlockDevice {
    kind: DeviceKind,
    profile: DeviceProfile,
    /// Media read and write latency samplers, built from `profile`.
    read_latency: LogNormal,
    write_latency: LogNormal,
    /// Per-channel busy-until instants (requests queue within a channel).
    busy_until: Vec<SimTime>,
    /// Current write-cache occupancy in bytes.
    cache_fill: u64,
    /// Last time the cache drain was accounted.
    cache_accounted: SimTime,
    /// End of the previous request, to classify sequential access.
    last_end_offset: Option<u64>,
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub cache_hits: u64,
}

impl BlockDevice {
    pub fn new(kind: DeviceKind) -> Self {
        Self::with_profile(kind, kind.profile())
    }

    /// Override the timing profile (for calibration experiments).
    pub fn with_profile(kind: DeviceKind, profile: DeviceProfile) -> Self {
        BlockDevice {
            kind,
            busy_until: vec![SimTime::ZERO; profile.parallelism.max(1) as usize],
            read_latency: LogNormal::new(
                profile.read_latency_ns as f64,
                profile.read_jitter_ns as f64,
            ),
            write_latency: LogNormal::new(
                profile.write_latency_ns as f64,
                profile.write_latency_ns as f64 / 3.0,
            ),
            profile,
            cache_fill: 0,
            cache_accounted: SimTime::ZERO,
            last_end_offset: None,
            reads: 0,
            writes: 0,
            bytes_read: 0,
            bytes_written: 0,
            cache_hits: 0,
        }
    }

    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Submit a request at `now`; returns the completion instant (when
    /// the completion interrupt is raised).
    pub fn submit(&mut self, now: SimTime, req: IoRequest, rng: &mut SimRng) -> SimTime {
        assert!(req.bytes > 0, "zero-byte I/O request");
        self.drain_cache(now);
        let sequential = self.last_end_offset == Some(req.offset);
        self.last_end_offset = Some(req.offset + req.bytes);

        let p = &self.profile;
        let transfer = SimDuration::from_nanos(
            (req.bytes as u128 * 1_000_000_000 / p.bandwidth_bps as u128) as u64,
        );

        let service = match req.op {
            IoOp::Read => {
                self.reads += 1;
                self.bytes_read += req.bytes;
                let base = self.read_latency.sample(rng) as u64;
                let seek = if sequential { 0 } else { p.random_penalty_ns };
                SimDuration::from_nanos(base + seek) + transfer
            }
            IoOp::Write => {
                self.writes += 1;
                self.bytes_written += req.bytes;
                let cache_free = p.write_cache_bytes.saturating_sub(self.cache_fill);
                if p.write_cache_bytes > 0 && req.bytes <= cache_free {
                    // Absorbed by the write cache: fast acknowledgement.
                    self.cache_fill += req.bytes;
                    self.cache_hits += 1;
                    SimDuration::from_nanos(p.write_cache_ack_ns) + transfer
                } else {
                    // Cache full: pay the media path (plus seek if random).
                    let base = self.write_latency.sample(rng) as u64;
                    let seek = if sequential { 0 } else { p.random_penalty_ns };
                    SimDuration::from_nanos(base + seek) + transfer
                }
            }
        };

        // Dispatch to the least-busy hardware channel.
        let ch = (0..self.busy_until.len())
            .min_by_key(|&i| self.busy_until[i])
            .expect("device has channels");
        let start = self.busy_until[ch].max(now);
        let done = start + service;
        self.busy_until[ch] = done;
        done
    }

    /// Account for write-cache drain between calls.
    fn drain_cache(&mut self, now: SimTime) {
        if now <= self.cache_accounted {
            return;
        }
        let elapsed = now.since(self.cache_accounted);
        let drained =
            (elapsed.as_nanos() as u128 * self.profile.cache_drain_bps as u128 / 1_000_000_000)
                as u64;
        self.cache_fill = self.cache_fill.saturating_sub(drained);
        self.cache_accounted = now;
    }

    /// Instantaneous queue state: are all channels busy at `now`?
    pub fn is_busy(&self, now: SimTime) -> bool {
        self.busy_until.iter().all(|&b| b > now)
    }

    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xD15C)
    }

    #[test]
    fn read_latency_in_plausible_band() {
        let mut dev = BlockDevice::new(DeviceKind::SataSsd);
        let mut r = rng();
        let now = SimTime::from_millis(1);
        let done = dev.submit(
            now,
            IoRequest {
                op: IoOp::Read,
                offset: 0,
                bytes: 4096,
            },
            &mut r,
        );
        let lat = done.since(now);
        assert!(lat >= SimDuration::from_micros(20), "lat {lat}");
        assert!(lat <= SimDuration::from_millis(2), "lat {lat}");
    }

    #[test]
    fn sequential_reads_faster_than_random_on_hdd() {
        let mut r1 = rng();
        let mut r2 = rng();
        let mut seq_dev = BlockDevice::new(DeviceKind::Hdd);
        let mut rnd_dev = BlockDevice::new(DeviceKind::Hdd);
        let mut now = SimTime::from_millis(1);
        let mut seq_total = SimDuration::ZERO;
        let mut rnd_total = SimDuration::ZERO;
        let mut offset = 0u64;
        for i in 0..50u64 {
            let seq_done = dev_read(&mut seq_dev, now, offset, 65536, &mut r1);
            seq_total += seq_done.since(now);
            offset += 65536;
            // Random: jump around.
            let rnd_done = dev_read(&mut rnd_dev, now, i * 10_000_000, 65536, &mut r2);
            rnd_total += rnd_done.since(now);
            now += SimDuration::from_millis(50);
        }
        assert!(
            seq_total < rnd_total,
            "sequential {seq_total} not faster than random {rnd_total}"
        );
    }

    fn dev_read(
        dev: &mut BlockDevice,
        now: SimTime,
        offset: u64,
        bytes: u64,
        rng: &mut SimRng,
    ) -> SimTime {
        dev.submit(
            now,
            IoRequest {
                op: IoOp::Read,
                offset,
                bytes,
            },
            rng,
        )
    }

    #[test]
    fn writes_mostly_hit_cache() {
        let mut dev = BlockDevice::new(DeviceKind::SataSsd);
        let mut r = rng();
        let mut now = SimTime::from_millis(1);
        for i in 0..100 {
            let done = dev.submit(
                now,
                IoRequest {
                    op: IoOp::Write,
                    offset: i * 4096,
                    bytes: 4096,
                },
                &mut r,
            );
            now = done + SimDuration::from_micros(50);
        }
        assert!(dev.cache_hits >= 95, "cache hits {}", dev.cache_hits);
    }

    #[test]
    fn cache_fills_under_sustained_writes_then_drains() {
        // Shrink the cache so it saturates quickly.
        let mut profile = DeviceKind::SataSsd.profile();
        profile.write_cache_bytes = 64 * 1024;
        profile.cache_drain_bps = 1_000_000; // slow drain
        let mut dev = BlockDevice::with_profile(DeviceKind::SataSsd, profile);
        let mut r = rng();
        let mut now = SimTime::from_millis(1);
        let mut slow_acks = 0;
        for i in 0..64 {
            let done = dev.submit(
                now,
                IoRequest {
                    op: IoOp::Write,
                    offset: i * 4096,
                    bytes: 4096,
                },
                &mut r,
            );
            if done.since(now) > SimDuration::from_micros(150) {
                slow_acks += 1;
            }
            now = done;
        }
        assert!(slow_acks > 0, "sustained writes must hit the media path");
        // After a long pause the cache drains and fast acks return.
        now += SimDuration::from_secs(10);
        let done = dev.submit(
            now,
            IoRequest {
                op: IoOp::Write,
                offset: 0,
                bytes: 4096,
            },
            &mut r,
        );
        assert!(done.since(now) < SimDuration::from_micros(150));
    }

    #[test]
    fn requests_serialize_within_channel_capacity() {
        // The HDD has a single channel: back-to-back requests queue.
        let mut dev = BlockDevice::new(DeviceKind::Hdd);
        let mut r = rng();
        let now = SimTime::from_millis(1);
        let d1 = dev_read(&mut dev, now, 0, 4096, &mut r);
        let d2 = dev_read(&mut dev, now, 4096, 4096, &mut r);
        assert!(d2 > d1, "single-channel device must queue");
        assert!(dev.is_busy(now));
        assert!(!dev.is_busy(d2 + SimDuration::from_nanos(1)));
    }

    #[test]
    fn channels_serve_concurrently() {
        // An NVMe device has many channels: a burst of requests does not
        // queue linearly.
        let mut dev = BlockDevice::new(DeviceKind::NvmeSsd);
        let mut r = rng();
        let now = SimTime::from_millis(1);
        let done: Vec<SimTime> = (0..8)
            .map(|i| dev_read(&mut dev, now, i * 4096, 4096, &mut r))
            .collect();
        let max = done.iter().max().unwrap();
        let min = done.iter().min().unwrap();
        // If serialized, the spread would be ~8x the service time; with
        // channels it is just the service-time jitter.
        assert!(
            max.since(*min) < SimDuration::from_micros(40),
            "spread {} too large for a parallel device",
            max.since(*min)
        );
    }

    #[test]
    fn kind_ordering_nvme_fastest() {
        let mut totals = Vec::new();
        for kind in [DeviceKind::Hdd, DeviceKind::SataSsd, DeviceKind::NvmeSsd] {
            let mut dev = BlockDevice::new(kind);
            let mut r = rng();
            let mut now = SimTime::from_millis(1);
            let mut total = SimDuration::ZERO;
            for i in 0..50u64 {
                let done = dev_read(&mut dev, now, i * 1_000_000, 4096, &mut r);
                total += done.since(now);
                now = done + SimDuration::from_millis(1);
            }
            totals.push(total);
        }
        assert!(totals[0] > totals[1], "HDD slower than SATA SSD");
        assert!(totals[1] > totals[2], "SATA SSD slower than NVMe");
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let mut dev = BlockDevice::new(DeviceKind::SataSsd);
        let mut r = rng();
        let now = SimTime::from_millis(1);
        // 256 MB read: at 520 MB/s this is ~0.5 s; latency is negligible.
        let done = dev_read(&mut dev, now, 0, 256 << 20, &mut r);
        let secs = done.since(now).as_secs_f64();
        assert!((0.4..0.7).contains(&secs), "256MB took {secs}s");
    }

    #[test]
    fn accounting() {
        let mut dev = BlockDevice::new(DeviceKind::NvmeSsd);
        let mut r = rng();
        let now = SimTime::from_millis(1);
        dev_read(&mut dev, now, 0, 4096, &mut r);
        dev.submit(
            now,
            IoRequest {
                op: IoOp::Write,
                offset: 0,
                bytes: 8192,
            },
            &mut r,
        );
        assert_eq!(dev.reads, 1);
        assert_eq!(dev.writes, 1);
        assert_eq!(dev.bytes_read, 4096);
        assert_eq!(dev.bytes_written, 8192);
        assert_eq!(dev.total_ops(), 2);
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_byte_rejected() {
        let mut dev = BlockDevice::new(DeviceKind::SataSsd);
        dev.submit(
            SimTime::ZERO,
            IoRequest {
                op: IoOp::Read,
                offset: 0,
                bytes: 0,
            },
            &mut rng(),
        );
    }
}
