//! # paratick-sim — discrete-event simulation engine
//!
//! Foundation crate for the paratick reproduction. It provides the
//! domain-neutral machinery every other crate builds on:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]), CPU cycle counts ([`Cycles`]) and frequencies
//!   ([`Freq`]) with exact conversions between the two domains.
//! * [`queue`] — a deterministic event queue ([`EventQueue`]; stale
//!   events are invalidated by caller-side generation counters). Events
//!   with equal timestamps dispatch in FIFO order, which makes
//!   whole-system simulations reproducible bit-for-bit from a seed.
//! * [`rng`] — a small, fast, seedable PRNG ([`SimRng`], xoshiro256++)
//!   with the distributions the workload models need (uniform,
//!   exponential, normal, lognormal, Pareto). No external entropy is ever
//!   consulted.
//! * [`stats`] — counters, online mean/variance summaries and rate
//!   meters used for metric collection.
//! * [`histogram`] — log-bucketed latency histograms with percentile
//!   queries (HdrHistogram-style, power-of-two buckets with linear
//!   sub-buckets).
//! * [`trace`] — a bounded ring buffer of recent simulation events for
//!   post-mortem debugging of divergent runs.
//! * [`hash`] — portable content hashing ([`StableHash`] over SHA-256)
//!   used by the run cache to key scenarios by semantic content.
//! * [`json`] — a self-contained JSON codec ([`ToJson`]/[`FromJson`])
//!   with bit-exact float round-tripping, used for metric persistence
//!   and artifact export.
//! * [`propcheck`] — a deterministic property-testing framework
//!   (choice-tape generators over [`SimRng`], greedy shrinking,
//!   seed-replay and regression-seed files) used by every crate's
//!   invariant suites; see the [`propcheck!`] macro.
//!
//! The engine is intentionally *not* generic over a "process" model: the
//! paratick system simulator (in the `paratick` core crate) uses the
//! classic event-scheduling world view, where components compute their
//! next interesting instant and (re)schedule a single event, invalidating
//! the superseded one with a generation counter.

pub mod hash;
pub mod histogram;
pub mod json;
pub mod propcheck;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use hash::{stable_digest_hex, StableHash, StableHasher};
pub use histogram::Histogram;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use queue::EventQueue;
pub use rng::{LogNormal, SimRng};
pub use stats::{Counter, RateMeter, Summary};
pub use time::{Cycles, Freq, SimDuration, SimTime};
pub use trace::{TraceBuffer, TraceRecord};
