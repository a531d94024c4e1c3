//! Network-RPC workloads — the paper's declared future work.
//!
//! The conclusion promises to "further refine paratick and test it in
//! more diverse scenarios, focusing on high-performance I/O
//! applications"; §3.3 names the drivers: "datacenter network, NVMe
//! storage … demand for better handling of microsecond-level idle
//! periods continues to rise". This module builds that scenario: a
//! multithreaded service whose threads issue synchronous RPCs over a
//! NIC — every call blocks the thread for one network round trip (tens
//! of microseconds), producing exactly the microsecond-scale idle
//! periods where tickless kernels burn timer exits.
//!
//! Each RPC is one `Read` against the VM's device (a
//! [`paratick_hw::DeviceKind::Nic10G`] / `NicFast` round trip) followed
//! by on-CPU request processing.

use crate::action::{Action, ThreadModel, VmWorkload};
use crate::models::Jitter;
use paratick_hw::IoOp;
use paratick_sim::{SimDuration, SimRng};

/// One RPC-service worker specification.
#[derive(Clone, Copy, Debug)]
pub struct RpcSpec {
    /// Total calls each worker makes (closed loop).
    pub calls_per_worker: u64,
    /// Request/response message size.
    pub msg_bytes: u64,
    /// Mean on-CPU processing per call (parse + handle + serialize).
    pub service: SimDuration,
    /// Variability of the service time.
    pub service_cv: f64,
}

impl Default for RpcSpec {
    fn default() -> Self {
        RpcSpec {
            calls_per_worker: 2_000,
            msg_bytes: 4 * 1024,
            service: SimDuration::from_micros(25),
            service_cv: 0.6,
        }
    }
}

/// A closed-loop RPC worker: call → block for the round trip → process.
pub struct RpcWorker {
    label: String,
    spec: RpcSpec,
    /// Per-call processing time, from `spec.service` and `service_cv`.
    service: Jitter,
    calls_left: u64,
    offset: u64,
    awaiting_process: bool,
}

impl RpcWorker {
    pub fn new(label: impl Into<String>, spec: RpcSpec) -> Self {
        assert!(spec.msg_bytes > 0, "zero-byte RPC");
        assert!(!spec.service.is_zero(), "zero service time");
        RpcWorker {
            label: label.into(),
            spec,
            service: Jitter::new(spec.service, spec.service_cv),
            calls_left: spec.calls_per_worker,
            offset: 0,
            awaiting_process: false,
        }
    }
}

impl ThreadModel for RpcWorker {
    fn next(&mut self, rng: &mut SimRng) -> Action {
        if self.awaiting_process {
            self.awaiting_process = false;
            return Action::Compute(self.service.sample(rng));
        }
        if self.calls_left == 0 {
            return Action::Done;
        }
        self.calls_left -= 1;
        self.awaiting_process = true;
        let offset = self.offset;
        self.offset += self.spec.msg_bytes;
        Action::Io {
            op: IoOp::Read, // request/response round trip
            offset,
            bytes: self.spec.msg_bytes,
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn fingerprint(&self, h: &mut paratick_sim::StableHasher) {
        use paratick_sim::StableHash;
        h.write_str("rpc");
        h.write_str(&self.label);
        h.write_u64(self.spec.calls_per_worker);
        h.write_u64(self.spec.msg_bytes);
        self.spec.service.stable_hash(h);
        h.write_f64(self.spec.service_cv);
    }
}

/// Build a multithreaded RPC service: `workers` closed-loop callers.
pub fn workload(spec: RpcSpec, workers: usize) -> VmWorkload {
    assert!(workers > 0);
    let threads: Vec<Box<dyn ThreadModel>> = (0..workers)
        .map(|i| Box::new(RpcWorker::new(format!("rpc{i}"), spec)) as Box<dyn ThreadModel>)
        .collect();
    VmWorkload {
        name: format!("netrpc({workers} workers)"),
        threads,
        num_locks: 1,
        num_barriers: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_alternates_call_and_process() {
        let spec = RpcSpec {
            calls_per_worker: 3,
            ..Default::default()
        };
        let mut w = RpcWorker::new("w", spec);
        let mut rng = SimRng::new(1);
        let mut seq = Vec::new();
        loop {
            let a = w.next(&mut rng);
            let done = a == Action::Done;
            seq.push(a);
            if done {
                break;
            }
        }
        // call, process, call, process, call, process, done
        assert_eq!(seq.len(), 7);
        assert!(matches!(seq[0], Action::Io { op: IoOp::Read, .. }));
        assert!(matches!(seq[1], Action::Compute(_)));
        assert!(matches!(seq[4], Action::Io { .. }));
        assert_eq!(seq[6], Action::Done);
    }

    #[test]
    fn offsets_advance_per_call() {
        let spec = RpcSpec {
            calls_per_worker: 2,
            msg_bytes: 4096,
            ..Default::default()
        };
        let mut w = RpcWorker::new("w", spec);
        let mut rng = SimRng::new(2);
        let a1 = w.next(&mut rng);
        let _ = w.next(&mut rng);
        let a2 = w.next(&mut rng);
        match (a1, a2) {
            (Action::Io { offset: o1, .. }, Action::Io { offset: o2, .. }) => {
                assert_eq!(o2 - o1, 4096)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn workload_shape() {
        let w = workload(RpcSpec::default(), 8);
        assert_eq!(w.num_threads(), 8);
        assert!(w.name.contains("netrpc"));
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_bytes_rejected() {
        RpcWorker::new(
            "w",
            RpcSpec {
                msg_bytes: 0,
                ..Default::default()
            },
        );
    }
}
