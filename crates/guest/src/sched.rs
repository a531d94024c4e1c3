//! Guest thread scheduler: per-vCPU run queues with wake placement.
//!
//! A deliberately CFS-shaped model: every guest thread has a "previous
//! CPU"; on wakeup the scheduler prefers that CPU if it is idle (cache
//! affinity), otherwise any idle CPU (wake-to-idle balancing), otherwise
//! it enqueues on the previous CPU's run queue. This reproduces the
//! behaviour the paper's multithreaded analysis depends on: blocking
//! synchronization makes vCPUs oscillate between idle and busy, because
//! wakeups chase idle vCPUs.

use std::collections::VecDeque;
use std::fmt;

/// A guest thread (task) within one VM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One vCPU's run queue.
#[derive(Clone, Debug, Default)]
pub struct RunQueue {
    queue: VecDeque<ThreadId>,
    current: Option<ThreadId>,
}

impl RunQueue {
    pub fn current(&self) -> Option<ThreadId> {
        self.current
    }

    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.queue.is_empty()
    }

    pub fn waiting(&self) -> usize {
        self.queue.len()
    }

    pub fn load(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }
}

/// Where a woken thread was placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    pub cpu: usize,
    /// The target vCPU was idle: it must be kicked (IPI / wakeup).
    pub needs_kick: bool,
}

/// The scheduler for one VM's guest kernel.
#[derive(Clone, Debug)]
pub struct GuestSched {
    rqs: Vec<RunQueue>,
    /// Last CPU each thread ran on (indexed by ThreadId).
    prev_cpu: Vec<usize>,
    /// Threads waiting in any run queue (Σ `rq.waiting()`), so a
    /// newly-idle CPU finds nothing to steal in O(1).
    waiting: usize,
}

impl GuestSched {
    pub fn new(num_cpus: usize, num_threads: usize) -> Self {
        assert!(num_cpus > 0);
        GuestSched {
            rqs: vec![RunQueue::default(); num_cpus],
            // Threads start spread round-robin, as pthread creation does
            // in practice under CFS fork balancing.
            prev_cpu: (0..num_threads).map(|t| t % num_cpus).collect(),
            waiting: 0,
        }
    }

    pub fn num_cpus(&self) -> usize {
        self.rqs.len()
    }

    pub fn rq(&self, cpu: usize) -> &RunQueue {
        &self.rqs[cpu]
    }

    /// Threads waiting in all run queues together.
    pub fn waiting(&self) -> usize {
        self.waiting
    }

    /// Register an additional thread (spawn); returns its id.
    pub fn add_thread(&mut self) -> ThreadId {
        let id = ThreadId(self.prev_cpu.len() as u32);
        self.prev_cpu.push(id.0 as usize % self.rqs.len());
        id
    }

    pub fn prev_cpu(&self, t: ThreadId) -> usize {
        self.prev_cpu[t.0 as usize]
    }

    /// Wake `t` and choose a CPU for it (CFS `select_task_rq` shape):
    /// previous CPU if idle, else the idlest idle CPU, else queue on the
    /// previous CPU.
    pub fn wake(&mut self, t: ThreadId) -> Placement {
        let prev = self.prev_cpu[t.0 as usize];
        let cpu = if self.rqs[prev].is_idle() {
            prev
        } else if let Some(idle) = self.rqs.iter().position(|rq| rq.is_idle()) {
            idle
        } else {
            prev
        };
        let was_idle = self.rqs[cpu].is_idle();
        self.prev_cpu[t.0 as usize] = cpu;
        self.rqs[cpu].queue.push_back(t);
        self.waiting += 1;
        Placement {
            cpu,
            needs_kick: was_idle,
        }
    }

    /// Enqueue without placement logic (initial spawn onto a given CPU).
    pub fn enqueue_on(&mut self, t: ThreadId, cpu: usize) -> Placement {
        let was_idle = self.rqs[cpu].is_idle();
        self.prev_cpu[t.0 as usize] = cpu;
        self.rqs[cpu].queue.push_back(t);
        self.waiting += 1;
        Placement {
            cpu,
            needs_kick: was_idle,
        }
    }

    /// Pick the next thread to run on `cpu`. Returns `None` if the run
    /// queue is empty (the CPU enters the idle loop).
    pub fn pick_next(&mut self, cpu: usize) -> Option<ThreadId> {
        let rq = &mut self.rqs[cpu];
        assert!(rq.current.is_none(), "pick_next with a current thread");
        let t = rq.queue.pop_front()?;
        rq.current = Some(t);
        self.waiting -= 1;
        self.prev_cpu[t.0 as usize] = cpu;
        Some(t)
    }

    /// The current thread on `cpu` blocked (lock/IO/exit): remove it.
    pub fn block_current(&mut self, cpu: usize) -> ThreadId {
        self.rqs[cpu]
            .current
            .take()
            .expect("block_current with no current thread")
    }

    /// The current thread's time slice expired: requeue at the tail.
    /// Returns it for bookkeeping.
    pub fn yield_current(&mut self, cpu: usize) -> ThreadId {
        let t = self.block_current(cpu);
        self.rqs[cpu].queue.push_back(t);
        self.waiting += 1;
        t
    }

    /// Does `cpu` have more runnable threads than the one running?
    pub fn is_contended(&self, cpu: usize) -> bool {
        self.rqs[cpu].load() > 1
    }

    /// Newly-idle load balancing (CFS `newidle_balance`): a CPU whose
    /// run queue just emptied pulls a waiting thread from the busiest
    /// other run queue instead of idling while work is queued elsewhere.
    /// Returns the stolen thread, already installed as `cpu`'s current.
    pub fn steal_for(&mut self, cpu: usize) -> Option<ThreadId> {
        debug_assert!(self.rqs[cpu].is_idle(), "steal_for on a busy CPU");
        if self.waiting == 0 {
            return None;
        }
        let victim = self
            .rqs
            .iter()
            .enumerate()
            .filter(|(i, rq)| *i != cpu && rq.waiting() > 0)
            .max_by_key(|(i, rq)| (rq.waiting(), usize::MAX - i))?
            .0;
        let t = self.rqs[victim].queue.pop_front().expect("victim has waiters");
        self.waiting -= 1;
        self.prev_cpu[t.0 as usize] = cpu;
        self.rqs[cpu].current = Some(t);
        Some(t)
    }

    pub fn idle_cpus(&self) -> impl Iterator<Item = usize> + '_ {
        self.rqs
            .iter()
            .enumerate()
            .filter(|(_, rq)| rq.is_idle())
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn wake_prefers_previous_cpu_when_idle() {
        let mut s = GuestSched::new(4, 4);
        // Thread 2 starts with prev_cpu 2.
        let p = s.wake(t(2));
        assert_eq!(p, Placement { cpu: 2, needs_kick: true });
    }

    #[test]
    fn wake_falls_to_idle_cpu_when_prev_busy() {
        let mut s = GuestSched::new(2, 4);
        s.wake(t(0)); // cpu 0
        s.pick_next(0);
        // Thread 2's prev is 0 (2 % 2), but 0 is busy -> idle cpu 1.
        let p = s.wake(t(2));
        assert_eq!(p.cpu, 1);
        assert!(p.needs_kick);
        assert_eq!(s.prev_cpu(t(2)), 1, "prev updated to placement");
    }

    #[test]
    fn wake_queues_on_prev_when_all_busy() {
        let mut s = GuestSched::new(1, 3);
        s.wake(t(0));
        s.pick_next(0);
        let p = s.wake(t(1));
        assert_eq!(p, Placement { cpu: 0, needs_kick: false });
        assert_eq!(s.rq(0).waiting(), 1);
    }

    #[test]
    fn pick_block_cycle() {
        let mut s = GuestSched::new(1, 2);
        s.wake(t(0));
        s.wake(t(1));
        assert_eq!(s.pick_next(0), Some(t(0)));
        assert_eq!(s.rq(0).current(), Some(t(0)));
        assert_eq!(s.block_current(0), t(0));
        assert_eq!(s.pick_next(0), Some(t(1)));
        s.block_current(0);
        assert_eq!(s.pick_next(0), None);
        assert!(s.rq(0).is_idle());
    }

    #[test]
    fn yield_requeues_at_tail() {
        let mut s = GuestSched::new(1, 2);
        s.wake(t(0));
        s.wake(t(1));
        s.pick_next(0);
        s.yield_current(0);
        assert_eq!(s.pick_next(0), Some(t(1)), "round robin");
    }

    #[test]
    fn contention() {
        let mut s = GuestSched::new(1, 2);
        assert!(!s.is_contended(0));
        s.wake(t(0));
        s.pick_next(0);
        assert!(!s.is_contended(0));
        s.wake(t(1));
        assert!(s.is_contended(0));
    }

    #[test]
    fn idle_cpus_iterator() {
        let mut s = GuestSched::new(3, 3);
        s.wake(t(0));
        s.pick_next(0);
        let idle: Vec<usize> = s.idle_cpus().collect();
        assert_eq!(idle, vec![1, 2]);
    }

    #[test]
    fn add_thread_extends() {
        let mut s = GuestSched::new(2, 0);
        let a = s.add_thread();
        let b = s.add_thread();
        assert_eq!(a, t(0));
        assert_eq!(b, t(1));
        assert_eq!(s.prev_cpu(b), 1);
    }

    #[test]
    #[should_panic(expected = "no current")]
    fn block_idle_panics() {
        let mut s = GuestSched::new(1, 1);
        s.block_current(0);
    }
}
