//! Outside-in tracing: decorators around the trait objects the engine
//! already accepts, plus the host clock they read.
//!
//! Nothing inside the program is instrumented. [`TimedScheduler`] wraps the
//! `Box<dyn Scheduler>` handed to `Executor::new`, [`TimedPolicy`] the
//! `Box<dyn ReplacementPolicy<AtomId>>` handed to `TurbDb::open` (and, inside
//! `choose_victim`, the `&dyn UtilityOracle` it receives), and
//! [`CountingRecorder`] is a `jaws_obs::Recorder`. Every decorator forwards
//! each call unchanged, so a decorated replay must produce the same masked
//! report as an undecorated one; the benchmark asserts that.

use jaws_cache::{ReplacementPolicy, UtilityOracle, UtilityRank};
use jaws_morton::AtomId;
use jaws_obs::{Event, Record, Recorder};
use jaws_scheduler::{Batch, Residency, Scheduler, SchedulerStats, UtilitySnapshot};
use jaws_workload::{Job, Query, QueryId};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The host's monotonic clock: the one place the benchmark reads it.
pub fn now() -> Instant {
    // lint: allow(D002) — the benchmark measures host time by design; no
    // reading feeds back into the simulation
    Instant::now()
}

/// Call count and busy time of one traced method.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Span {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = now();
        let r = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(ns, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        r
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Host time spent inside the calls, ms.
    pub fn busy_ms(&self) -> f64 {
        self.nanos.load(Relaxed) as f64 / 1e6
    }
}

/// Per-method spans of one decorated scheduler.
#[derive(Debug, Default)]
pub struct SchedulerProbe {
    pub next_batch: Span,
    /// `next_batch` polls that returned `None`.
    pub next_batch_empty: AtomicU64,
    pub job_declared: Span,
    pub query_available: Span,
    pub on_query_complete: Span,
    pub utility_snapshot: Span,
    /// Every other trait method (`has_pending`, `take_run_boundary`,
    /// `query_withdrawn`, `retire_pending`, `alpha`, `stats`, ...).
    pub other: Span,
}

impl SchedulerProbe {
    /// Host time inside the scheduler, all methods, ms.
    pub fn busy_ms(&self) -> f64 {
        [
            &self.next_batch,
            &self.job_declared,
            &self.query_available,
            &self.on_query_complete,
            &self.utility_snapshot,
            &self.other,
        ]
        .iter()
        .map(|s| s.busy_ms())
        .sum()
    }
}

/// A scheduler that times every call into the scheduler it wraps.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    probe: Arc<SchedulerProbe>,
}

impl TimedScheduler {
    pub fn wrap(inner: Box<dyn Scheduler>, probe: Arc<SchedulerProbe>) -> Box<dyn Scheduler> {
        Box::new(TimedScheduler { inner, probe })
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn job_declared(&mut self, job: &Job, now_ms: f64) {
        self.probe
            .job_declared
            .time(|| self.inner.job_declared(job, now_ms))
    }

    fn query_available(&mut self, query: &Query, now_ms: f64) {
        self.probe
            .query_available
            .time(|| self.inner.query_available(query, now_ms))
    }

    fn next_batch(&mut self, now_ms: f64, residency: &dyn Residency) -> Option<Batch> {
        let batch = self
            .probe
            .next_batch
            .time(|| self.inner.next_batch(now_ms, residency));
        if batch.is_none() {
            self.probe.next_batch_empty.fetch_add(1, Relaxed);
        }
        batch
    }

    fn on_query_complete(&mut self, query: QueryId, response_ms: f64, now_ms: f64) {
        self.probe
            .on_query_complete
            .time(|| self.inner.on_query_complete(query, response_ms, now_ms))
    }

    fn query_withdrawn(&mut self, query: QueryId, now_ms: f64) {
        self.probe
            .other
            .time(|| self.inner.query_withdrawn(query, now_ms))
    }

    fn retire_pending(&mut self, now_ms: f64) {
        self.probe.other.time(|| self.inner.retire_pending(now_ms))
    }

    fn has_pending(&self) -> bool {
        self.probe.other.time(|| self.inner.has_pending())
    }

    fn take_run_boundary(&mut self) -> bool {
        self.probe.other.time(|| self.inner.take_run_boundary())
    }

    fn alpha(&self) -> f64 {
        self.probe.other.time(|| self.inner.alpha())
    }

    fn utility_snapshot(&mut self, residency: &dyn Residency) -> UtilitySnapshot {
        self.probe
            .utility_snapshot
            .time(|| self.inner.utility_snapshot(residency))
    }

    fn set_recorder(&mut self, sink: jaws_obs::ObsSink) {
        self.inner.set_recorder(sink)
    }

    fn stats(&self) -> SchedulerStats {
        self.probe.other.time(|| self.inner.stats())
    }
}

/// Spans of one decorated cache replacement policy.
#[derive(Debug, Default)]
pub struct CacheProbe {
    pub choose_victim: Span,
    /// `on_hit`, `on_insert`, `on_remove` and `end_run` combined.
    pub maintenance: Span,
    /// `UtilityOracle::rank` calls made from inside `choose_victim`.
    pub oracle_ranks: AtomicU64,
    /// `choose_victim` calls that named a victim.
    pub victims: AtomicU64,
}

impl CacheProbe {
    /// Host time inside the policy, all methods, ms.
    pub fn busy_ms(&self) -> f64 {
        self.choose_victim.busy_ms() + self.maintenance.busy_ms()
    }
}

/// A replacement policy that times every call into the policy it wraps.
pub struct TimedPolicy {
    inner: Box<dyn ReplacementPolicy<AtomId>>,
    probe: Arc<CacheProbe>,
}

impl TimedPolicy {
    pub fn wrap(
        inner: Box<dyn ReplacementPolicy<AtomId>>,
        probe: Arc<CacheProbe>,
    ) -> Box<dyn ReplacementPolicy<AtomId>> {
        Box::new(TimedPolicy { inner, probe })
    }
}

/// Counts the ranks a policy asks of the oracle it was handed.
struct CountingOracle<'a> {
    inner: &'a dyn UtilityOracle<AtomId>,
    ranks: Cell<u64>,
}

impl UtilityOracle<AtomId> for CountingOracle<'_> {
    fn rank(&self, key: &AtomId) -> UtilityRank {
        self.ranks.set(self.ranks.get() + 1);
        self.inner.rank(key)
    }
}

impl ReplacementPolicy<AtomId> for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_hit(&mut self, key: &AtomId) {
        self.probe.maintenance.time(|| self.inner.on_hit(key))
    }

    fn on_insert(&mut self, key: AtomId) {
        self.probe.maintenance.time(|| self.inner.on_insert(key))
    }

    fn on_remove(&mut self, key: &AtomId) {
        self.probe.maintenance.time(|| self.inner.on_remove(key))
    }

    fn choose_victim(&mut self, oracle: &dyn UtilityOracle<AtomId>) -> Option<AtomId> {
        let counting = CountingOracle {
            inner: oracle,
            ranks: Cell::new(0),
        };
        let victim = self
            .probe
            .choose_victim
            .time(|| self.inner.choose_victim(&counting));
        self.probe
            .oracle_ranks
            .fetch_add(counting.ranks.get(), Relaxed);
        if victim.is_some() {
            self.probe.victims.fetch_add(1, Relaxed);
        }
        victim
    }

    fn end_run(&mut self) {
        self.probe.maintenance.time(|| self.inner.end_run())
    }

    fn metadata_bytes(&self) -> usize {
        self.inner.metadata_bytes()
    }
}

/// Counts records by event kind. Reads no clock, so it is as deterministic
/// as the recorders the engine ships with.
#[derive(Debug, Default)]
pub struct CountingRecorder {
    pub by_kind: BTreeMap<&'static str, u64>,
}

impl CountingRecorder {
    pub fn total(&self) -> u64 {
        self.by_kind.values().sum()
    }
}

/// The kinds reported one by one; every other kind is counted as `Other`.
pub const EVENT_KINDS: [&str; 12] = [
    "JobArrival",
    "QuerySubmit",
    "PartRouted",
    "GateDecision",
    "BatchSelected",
    "BatchExecuted",
    "AtomRead",
    "CacheEvict",
    "AlphaAdjusted",
    "QueryComplete",
    "Histogram",
    "Other",
];

fn kind(event: &Event) -> &'static str {
    match event {
        Event::JobArrival { .. } => "JobArrival",
        Event::QuerySubmit { .. } => "QuerySubmit",
        Event::PartRouted { .. } => "PartRouted",
        Event::GateDecision { .. } => "GateDecision",
        Event::BatchSelected { .. } => "BatchSelected",
        Event::BatchExecuted { .. } => "BatchExecuted",
        Event::AtomRead { .. } => "AtomRead",
        Event::CacheEvict { .. } => "CacheEvict",
        Event::AlphaAdjusted { .. } => "AlphaAdjusted",
        Event::QueryComplete { .. } => "QueryComplete",
        Event::Histogram { .. } => "Histogram",
        _ => "Other",
    }
}

impl Recorder for CountingRecorder {
    fn record(&mut self, rec: &Record) {
        *self.by_kind.entry(kind(&rec.event)).or_insert(0) += 1;
    }
}
