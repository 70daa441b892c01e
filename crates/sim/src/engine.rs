//! The shared discrete-event core behind [`crate::Executor`] and
//! [`crate::ClusterExecutor`].
//!
//! Both public executors used to carry their own event heap, arrival pacing,
//! ordered-job think-time chains and completion bookkeeping — and had drifted
//! (the cluster path lacked prefetching, `max_sim_ms` truncation and the idle
//! re-check). This module owns all of it exactly once:
//!
//! * [`Routing`] decides how a submitted query reaches the node pipelines —
//!   the identity route of a single node, or the Morton-slab fan-out of the
//!   §V-C cluster with packed per-node part ids;
//! * `LiveRouting` (crate-internal) overlays the static route with node
//!   liveness: a scripted
//!   crash ([`crate::FailurePlan`]) marks a node dead and re-routes its slab
//!   to a survivor (clamped, chained across repeated failures);
//! * `Engine` (crate-internal, driven by `run_trace`) is the one client
//!   model: it replays job arrivals, paces batched queries, drives ordered
//!   think-time chains, enforces the cross-node completion barrier
//!   (outstanding-part counts), charges batch service times, spends idle
//!   capacity on trajectory prefetches, injects scripted node failures (crash
//!   re-dispatch, straggler slowdowns), and truncates at the simulated-time
//!   cap — against N ≥ 1 [`NodePipeline`]s. It has one handler per event
//!   (`on_job_arrival`, `submit`, `on_batch_done`, `on_prefetch_done`,
//!   `on_idle_check`, `on_failure`), each followed by a serial dispatch round
//!   over the live nodes in ascending node order.
//!
//! The engine owns the clock: pipelines never see time except through the
//! `now_ms` arguments the engine passes in. Per-query state lives in dense
//! vectors indexed by trace position and per-node state in vectors indexed by
//! node; keyed state is kept in `BTreeMap`s, so iteration order can never
//! leak hash randomness into scheduling decisions (lint rule D001 needs no
//! carve-outs here). Everything runs on the calling thread, so pipelines emit
//! straight to their node-tagged sinks in engine order.
//!
//! ## Failure semantics
//!
//! A crash at time `T` is one deterministic transaction inside the event
//! loop: the node is marked dead, every later event addressed to it (stale
//! `BatchDone`, `PrefetchDone`, `IdleCheck`) is dropped on pop, its slab
//! redirects to the survivor, and every part it held — queued in its
//! scheduler *or* in its in-flight batch — is re-enqueued through the
//! survivor's scheduler under its original packed part id (so the
//! completion barrier and the response log stay keyed by trace query ids).
//! Re-dispatched and newly-routed work is first *declared* to the survivor
//! as a remnant job projection so job-aware gating knows the incoming ids;
//! the work then competes in the survivor's utility ranking like any other
//! arrival — recovery never jumps the queue.

use crate::failure::{FailureEvent, FailurePlan};
use crate::node::NodePipeline;
use crate::replication::{ReplicaAction, ReplicaDirectory, ReplicationConfig, ReplicationSummary};
use crate::report::RunTotals;
use crate::SimConfig;
use jaws_morton::MortonKey;
use jaws_obs::ObsSink;
use jaws_workload::{Footprint, Job, JobKind, Query, QueryId, Trace};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Bits of a packed part id that carry the original query id. The remaining
/// high bits hold `node + 1`, so part ids from different nodes never collide
/// with each other or with raw trace query ids.
pub const PART_QUERY_BITS: u32 = 48;

/// Mask selecting the original-query-id bits of a packed part id.
pub const PART_QUERY_MASK: u64 = (1 << PART_QUERY_BITS) - 1;

/// Highest node index a part id can encode: `node + 1` must fit in the
/// `64 − PART_QUERY_BITS` tag bits.
pub const MAX_NODE_INDEX: u32 = (1 << (64 - PART_QUERY_BITS)) - 2;

/// Packs a node index into the high bits of a part id.
pub fn part_id(query: QueryId, node: u32) -> QueryId {
    debug_assert!(
        query <= PART_QUERY_MASK,
        "query id {query} exceeds the {PART_QUERY_BITS}-bit part budget"
    );
    debug_assert!(
        node <= MAX_NODE_INDEX,
        "node {node} exceeds the packed-field maximum {MAX_NODE_INDEX}"
    );
    ((node as u64 + 1) << PART_QUERY_BITS) | query
}

/// Recovers the original query id from a part id.
pub fn orig_id(part: QueryId) -> QueryId {
    part & PART_QUERY_MASK
}

/// Recovers the node index from a part id.
pub fn part_node(part: QueryId) -> u32 {
    ((part >> PART_QUERY_BITS) - 1) as u32
}

/// Remnant job declarations (crash re-dispatch) tag the synthetic job id with
/// the 1-based crash ordinal in these high bits, so a job whose parts are
/// re-dispatched by several successive crashes gets a distinct declaration id
/// each time and never collides with trace job ids.
const REMNANT_JOB_BITS: u32 = 48;

/// Just-in-time replica declarations (a diverted part arriving at a node the
/// job was never projected onto) use synthetic single-query job ids in their
/// own namespace: the top bit set over a run-monotone ordinal. Remnant ids
/// tag crash ordinals into bits 48.. and crash counts are bounded by the node
/// count (far below 2¹⁵), so the namespaces never collide.
const REPLICA_DECL_BIT: u64 = 1 << 63;

/// How submitted queries reach the node pipelines.
#[derive(Debug, Clone, Copy)]
pub enum Routing {
    /// One pipeline; queries are delivered whole, under their trace ids.
    Single,
    /// The §V-C cluster: the atom grid is split into contiguous Morton slabs
    /// of `slab_size` atoms, one per node; each query fans out into per-node
    /// part queries (packed ids) and completes only when every part has.
    MortonSlabs {
        /// Atoms per node slab (`ceil(atoms-per-timestep / nodes)`). When the
        /// node count does not divide the atoms per timestep, every node but
        /// the last owns a full slab and the last owns the short remainder.
        slab_size: u64,
        /// Number of nodes; keys past the last full slab are clamped onto the
        /// final node so the short remainder slab is still owned.
        nodes: u32,
    },
    /// Morton slabs plus a dynamic hot-atom replica overlay: static slab
    /// ownership exactly as in [`Routing::MortonSlabs`], but the engine
    /// maintains a per-key access histogram and routes each footprint atom to
    /// the least-loaded live replica, falling back to the owner
    /// ([`crate::replication`]).
    Replicated {
        /// Atoms per node slab, as in [`Routing::MortonSlabs`].
        slab_size: u64,
        /// Number of nodes, as in [`Routing::MortonSlabs`].
        nodes: u32,
        /// Histogram window and hysteresis thresholds of the overlay.
        replication: ReplicationConfig,
    },
}

impl Routing {
    /// The node owning a Morton key under the *static* partition (no failure
    /// redirects applied — the engine's `LiveRouting` overlay holds its
    /// own failure-aware view).
    pub fn node_of(&self, m: MortonKey) -> u32 {
        match self {
            Routing::Single => 0,
            Routing::MortonSlabs { slab_size, nodes }
            | Routing::Replicated {
                slab_size, nodes, ..
            } => ((m.raw() / slab_size) as u32).min(nodes - 1),
        }
    }

    /// Maps a completed part id back to the trace query id.
    pub fn original_id(&self, part: QueryId) -> QueryId {
        match self {
            Routing::Single => part,
            Routing::MortonSlabs { .. } | Routing::Replicated { .. } => orig_id(part),
        }
    }
}

/// The engine's routing view: the static [`Routing`] plus node liveness. A
/// crash redirects the dead node's slab onto its survivor (and compresses any
/// chain of earlier redirects that pointed at the dead node), so `node_of`
/// always answers with a live node.
struct LiveRouting<'r> {
    base: &'r Routing,
    /// Per static owner: the live node currently responsible for its slab.
    redirect: Vec<u32>,
    /// Per node: false once a scripted crash killed it.
    alive: Vec<bool>,
}

impl<'r> LiveRouting<'r> {
    fn new(base: &'r Routing, nodes: usize) -> Self {
        LiveRouting {
            base,
            redirect: (0..nodes as u32).collect(),
            alive: vec![true; nodes],
        }
    }

    /// The live node owning a Morton key.
    fn node_of(&self, m: MortonKey) -> u32 {
        self.redirect[self.base.node_of(m) as usize]
    }

    /// Kills `node`, redirecting every slab it was responsible for onto the
    /// survivor. `designated` names the survivor; `None` (or a designated
    /// node that is itself dead / the crashing node after chain resolution)
    /// falls back to the lowest-indexed live node. Returns the survivor.
    ///
    /// # Panics
    ///
    /// Panics if no node would remain alive (validated up front by
    /// [`FailurePlan::validate`], re-checked here as an invariant).
    fn crash(&mut self, node: u32, designated: Option<u32>) -> u32 {
        self.alive[node as usize] = false;
        let fallback = || {
            self.alive
                .iter()
                .position(|&a| a)
                // lint: invariant — FailurePlan::validate rejects plans that
                // crash every node, so a live node always remains
                .expect("a crash must leave at least one node alive") as u32
        };
        let surv = match designated {
            Some(s) => {
                let resolved = self.redirect[s as usize];
                if self.alive[resolved as usize] {
                    resolved
                } else {
                    fallback()
                }
            }
            None => fallback(),
        };
        for r in &mut self.redirect {
            if *r == node {
                *r = surv;
            }
        }
        surv
    }

    /// Projects a job onto one node for declaration: each query keeps only
    /// the footprint atoms the node owns (under its part id); queries with
    /// empty projections are dropped, preserving order. `None` when the node
    /// owns nothing of the job. The single route borrows the job whole.
    fn project_job<'j>(&self, job: &'j Job, node: u32) -> Option<Cow<'j, Job>> {
        match self.base {
            Routing::Single => Some(Cow::Borrowed(job)),
            Routing::MortonSlabs { .. } | Routing::Replicated { .. } => {
                let queries: Vec<Query> = job
                    .queries
                    .iter()
                    .filter_map(|q| {
                        let atoms: Vec<(MortonKey, u32)> = q
                            .footprint
                            .atoms
                            .iter()
                            .copied()
                            .filter(|&(m, _)| self.node_of(m) == node)
                            .collect();
                        if atoms.is_empty() {
                            return None;
                        }
                        Some(Query {
                            id: part_id(q.id, node),
                            user: q.user,
                            op: q.op,
                            timestep: q.timestep,
                            footprint: Footprint::from_pairs(atoms),
                        })
                    })
                    .collect();
                if queries.is_empty() {
                    return None;
                }
                Some(Cow::Owned(Job {
                    id: job.id,
                    user: job.user,
                    kind: job.kind,
                    campaign: job.campaign,
                    queries,
                    arrival_ms: job.arrival_ms,
                    think_ms: job.think_ms,
                }))
            }
        }
    }
}

/// Typed engine events.
#[derive(Debug)]
enum Event {
    /// A trace job reached its arrival time.
    JobArrival(usize),
    /// Query `(job index, query index)` is submitted by the client model.
    QuerySubmit(usize, usize),
    /// A node finished a batch: (node, completed part ids).
    BatchDone(u32, Vec<QueryId>),
    /// A node's speculative read finished.
    PrefetchDone(u32),
    /// A node's idle re-poll fired (starvation-valve wake-up).
    IdleCheck(u32),
    /// Scripted failure event `i` of the run's [`FailurePlan`] fired.
    Failure(usize),
}

/// Cumulative push count of every [`EventQueue`] in the process. Updated only
/// from the (serial) engine event loop; read by the bench bins so event-queue
/// traffic is a measured quantity. Never feeds a scheduling decision.
static EV_PUSHES: AtomicU64 = AtomicU64::new(0);

/// Cumulative pop count, mirroring [`EV_PUSHES`].
static EV_POPS: AtomicU64 = AtomicU64::new(0);

/// Process-wide event-queue operation counters (pushes, pops) since start or
/// the last [`reset_queue_ops`]. Observability for the bench bins only — the
/// counts are themselves deterministic (the replay pushes and pops the exact
/// same event sequence at any thread count), so they may appear unmasked in
/// bench reports.
pub fn queue_ops() -> (u64, u64) {
    (
        EV_PUSHES.load(AtomicOrdering::Relaxed),
        EV_POPS.load(AtomicOrdering::Relaxed),
    )
}

/// Resets the process-wide event-queue counters to zero.
pub fn reset_queue_ops() {
    EV_PUSHES.store(0, AtomicOrdering::Relaxed);
    EV_POPS.store(0, AtomicOrdering::Relaxed);
}

/// One-millisecond buckets in the calendar ring. Events scheduled further
/// ahead of the cursor than this wait in the sorted overflow map and migrate
/// into the ring as the window slides over them.
const RING_BUCKETS: u64 = 4096;

/// A pending event stored inline in its bucket: `(time, insertion id,
/// payload)`. Insertion ids break time ties first-pushed-first-popped.
type Slot = (f64, u64, Event);

/// The event queue: a calendar queue of integer-millisecond buckets over
/// simulated time. The ring covers the next [`RING_BUCKETS`] ms from the pop
/// cursor; pops select the intra-bucket minimum under the same
/// `(f64::total_cmp, insertion id)` total order the former binary heap used,
/// so the replay's event sequence is bit-for-bit unchanged — but pushes and
/// pops are O(bucket occupancy) with no per-event sift or payload-map
/// round-trip, and drained bucket `Vec`s keep their capacity as the ring
/// wraps, so a warmed-up queue allocates nothing in steady state.
struct EventQueue {
    /// `RING_BUCKETS` buckets; slot `b % RING_BUCKETS` holds exactly the
    /// events of absolute bucket `b` for `b` in `[cursor, cursor + RING)`.
    ring: Vec<Vec<Slot>>,
    /// Far-future events, keyed by absolute bucket index (all `>= cursor +
    /// RING_BUCKETS`).
    overflow: BTreeMap<u64, Vec<Slot>>,
    /// Lowest absolute bucket index that may still hold events.
    cursor: u64,
    /// Events currently in `ring`.
    ring_len: usize,
    /// Total pending events (ring + overflow).
    len: usize,
    next_event: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            ring: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            overflow: BTreeMap::new(),
            cursor: 0,
            ring_len: 0,
            len: 0,
            next_event: 0,
        }
    }
}

impl EventQueue {
    // lint: hotpath
    fn push(&mut self, at_ms: f64, ev: Event) {
        let id = self.next_event;
        self.next_event += 1;
        // Event times are finite and non-negative (now_ms plus a non-negative
        // delay), so `as u64` is floor(). The clamp keeps a (never observed)
        // sub-cursor time poppable — it lands in the current bucket, where
        // min-selection orders it first.
        let bucket = (at_ms as u64).max(self.cursor);
        if bucket - self.cursor < RING_BUCKETS {
            self.ring[(bucket % RING_BUCKETS) as usize].push((at_ms, id, ev));
            self.ring_len += 1;
        } else {
            self.overflow
                .entry(bucket)
                .or_default()
                .push((at_ms, id, ev));
        }
        self.len += 1;
        EV_PUSHES.fetch_add(1, AtomicOrdering::Relaxed);
    }

    // lint: hotpath
    fn pop(&mut self) -> Option<(f64, Event)> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            // Everything pending is far-future: jump the window instead of
            // walking empty buckets.
            // lint: invariant — len > 0 with an empty ring means overflow is
            // non-empty
            let (&first, _) = self
                .overflow
                .first_key_value()
                .expect("pending events live in ring or overflow");
            self.cursor = first;
            self.migrate_window();
        }
        loop {
            let slot = (self.cursor % RING_BUCKETS) as usize;
            if !self.ring[slot].is_empty() {
                let bucket = &mut self.ring[slot];
                let mut best = 0;
                for i in 1..bucket.len() {
                    let ord = bucket[i]
                        .0
                        .total_cmp(&bucket[best].0)
                        .then(bucket[i].1.cmp(&bucket[best].1));
                    if ord == std::cmp::Ordering::Less {
                        best = i;
                    }
                }
                let (at, _, ev) = bucket.swap_remove(best);
                self.ring_len -= 1;
                self.len -= 1;
                EV_POPS.fetch_add(1, AtomicOrdering::Relaxed);
                return Some((at, ev));
            }
            self.cursor += 1;
            // The window slid by one: the newly covered far bucket (if any)
            // enters the ring at the slot just vacated.
            if let Some(mut evs) = self.overflow.remove(&(self.cursor + RING_BUCKETS - 1)) {
                self.ring_len += evs.len();
                let far = ((self.cursor + RING_BUCKETS - 1) % RING_BUCKETS) as usize;
                self.ring[far].append(&mut evs);
            }
        }
    }

    /// Moves every overflow bucket now inside `[cursor, cursor + RING)` into
    /// the ring. Called after a cursor jump.
    fn migrate_window(&mut self) {
        while let Some((&k, _)) = self.overflow.first_key_value() {
            if k >= self.cursor + RING_BUCKETS {
                break;
            }
            // lint: invariant — first_key_value just returned this key
            let mut evs = self.overflow.remove(&k).expect("first overflow bucket");
            self.ring_len += evs.len();
            let slot = (k % RING_BUCKETS) as usize;
            self.ring[slot].append(&mut evs);
        }
    }
}

/// Per-node failure outcome of one run, consumed by the cluster report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeStatus {
    /// True once a scripted crash killed the node.
    pub failed: bool,
    /// Parts re-dispatched *off* this node when it crashed (in-flight plus
    /// queued at crash time).
    pub redispatched_parts: u64,
    /// Service-time multiplier in force at the end of the run (1.0 = never
    /// degraded).
    pub slowdown: f64,
}

impl Default for NodeStatus {
    fn default() -> Self {
        NodeStatus {
            failed: false,
            redispatched_parts: 0,
            slowdown: 1.0,
        }
    }
}

/// Everything a run produced that the report layer needs, plus the per-query
/// completion log in completion order.
pub(crate) struct EngineOutcome {
    /// Totals feeding [`crate::report`] assembly.
    pub totals: RunTotals,
    /// `(trace query id, response ms)` in completion order.
    pub response_log: Vec<(QueryId, f64)>,
    /// Per-node failure outcomes (all-default when the plan was empty).
    pub node_status: Vec<NodeStatus>,
    /// Time of the first scripted failure that actually fired, if any.
    pub first_failure_ms: Option<f64>,
    /// Replica-overlay summary; `None` unless [`Routing::Replicated`] with
    /// replication enabled was in force.
    pub replication: Option<ReplicationSummary>,
}

/// Bookkeeping that exists only while a non-empty [`FailurePlan`] is in
/// force; a plain replay allocates none of it and takes the exact pre-failure
/// code paths.
struct FailureState {
    /// Per node: part ids submitted to it and not yet completed (in-flight
    /// batch parts included — their `BatchDone` hasn't fired yet).
    pending: Vec<BTreeSet<QueryId>>,
    /// Every outstanding part as submitted (footprint included), so a crash
    /// can re-enqueue it verbatim through the survivor.
    defs: BTreeMap<QueryId, Query>,
    /// Per node: part ids its scheduler has been told about via a job
    /// declaration (arrival projections and crash remnants).
    declared: Vec<BTreeSet<QueryId>>,
    /// Per trace job: whether its arrival event has fired.
    arrived: Vec<bool>,
    /// Crashes handled so far (1-based ordinal tags remnant job ids).
    crashes: u64,
}

/// Bookkeeping that exists only under an enabled [`Routing::Replicated`]
/// overlay; static-slab and single-node replays allocate none of it and take
/// the exact pre-replication code paths.
struct ReplicationState {
    /// Histogram, replica table and transition counters.
    dir: ReplicaDirectory,
    /// Per node: part ids its scheduler has been told about — arrival
    /// projections, crash remnants, and just-in-time replica declarations.
    /// Kept in lockstep with `FailureState::declared` when both layers are
    /// active, so either layer's membership test answers for both.
    declared: Vec<BTreeSet<QueryId>>,
    /// Per node: parts submitted and not yet completed — the integer load
    /// signal that replica placement and routing minimize over.
    node_load: Vec<u64>,
    /// Monotone ordinal for just-in-time declaration job ids.
    decls: u64,
}

/// Reusable per-submit scratch for the fan-out path. One query's footprint
/// is scattered into per-node lanes, each non-empty lane's buffer leaves as
/// a part's footprint, and the buffer comes back (cleared) after delivery —
/// so a warmed-up submit allocates nothing on the static-slab route and only
/// the per-part `Query` clones demanded by declarations on the replicated
/// route.
struct FanOut {
    /// Per-node `(morton, count)` buckets for the footprint scatter.
    lanes: Vec<Vec<(MortonKey, u32)>>,
    /// Replicated route: which nodes statically own atoms of the current
    /// query (withdrawal bookkeeping). Reset per submit.
    owner_flag: Vec<bool>,
    /// Replicated route: replica promote/demote/route transitions of the
    /// current query. Cleared per submit.
    actions: Vec<ReplicaAction>,
    /// Replicated route: built parts awaiting delivery — the trace event
    /// order requires every just-in-time declaration to precede the first
    /// delivery, so parts are staged here between the two passes.
    parts: Vec<(u32, Query)>,
}

impl FanOut {
    fn new(nodes: usize) -> Self {
        FanOut {
            lanes: vec![Vec::new(); nodes],
            owner_flag: vec![false; nodes],
            actions: Vec::new(),
            parts: Vec::new(),
        }
    }

    /// Builds `node`'s part of `q` from its lane, taking the lane's buffer.
    fn take_part(&mut self, q: &Query, node: usize) -> Query {
        Query {
            id: part_id(q.id, node as u32),
            user: q.user,
            op: q.op,
            timestep: q.timestep,
            footprint: Footprint::from_pairs_in_place(std::mem::take(&mut self.lanes[node])),
        }
    }

    /// Returns a delivered part's footprint buffer to `node`'s lane, cleared,
    /// so its capacity serves the next query.
    fn restore(&mut self, node: usize, part: &mut Query) {
        let mut atoms = std::mem::take(&mut part.footprint.atoms);
        atoms.clear();
        self.lanes[node] = atoms;
    }
}

/// Replays `trace` against `pipelines` under `routing` until the trace drains
/// or the simulated-time cap fires.
///
/// `declare_on_arrival` controls whether each trace job is declared to the
/// schedulers at its arrival (the normal path); the single-node executor
/// passes `false` after an up-front ground-truth declaration override
/// ([`crate::Executor::declare_jobs`]).
///
/// `failures` scripts node crashes and slowdowns; it must be empty on the
/// single route (there is no survivor to re-dispatch to).
///
/// `sink` receives the engine-level lifecycle events (job arrival, query
/// submission, part routing, completion, failures, end-of-run counters);
/// per-node events are emitted by the pipelines through their own
/// (node-tagged) sinks.
pub(crate) fn run_trace(
    pipelines: &mut [NodePipeline],
    routing: &Routing,
    cfg: &SimConfig,
    trace: &Trace,
    declare_on_arrival: bool,
    failures: &FailurePlan,
    sink: &ObsSink,
) -> EngineOutcome {
    Engine::new(
        pipelines,
        routing,
        cfg,
        trace,
        declare_on_arrival,
        failures,
        sink,
    )
    .run()
}

/// One replay in flight: the event queue, the routing overlay, the per-query
/// tables and the optional failure and replication components, with one
/// handler per [`Event`] variant. Every handler runs on the engine thread and
/// is followed by one [`Engine::dispatch_round`].
struct Engine<'a> {
    trace: &'a Trace,
    cfg: &'a SimConfig,
    sink: &'a ObsSink,
    failures: &'a FailurePlan,
    pipelines: &'a mut [NodePipeline],
    /// Declare each trace job to the schedulers when it arrives.
    declare_on_arrival: bool,
    queue: EventQueue,
    live: LiveRouting<'a>,
    now_ms: f64,
    /// Trace query id → (job index, query index).
    locate: BTreeMap<QueryId, (usize, usize)>,
    /// Flat position of each job's first query: query `(ji, qi)` owns slot
    /// `first_pos[ji] + qi` of the dense per-query tables below.
    first_pos: Vec<usize>,
    /// Per query: submission time, `None` until submitted.
    submit_ms: Vec<Option<f64>>,
    /// Per query: the completion barrier — parts not yet completed (1 on the
    /// single route; one per owning node on the cluster routes).
    outstanding: Vec<u32>,
    responses: Vec<f64>,
    response_log: Vec<(QueryId, f64)>,
    remaining_per_job: Vec<usize>,
    jobs_completed: u64,
    first_arrival: f64,
    last_completion: f64,
    truncated: bool,
    node_status: Vec<NodeStatus>,
    first_failure_ms: Option<f64>,
    /// Failure bookkeeping, allocated only when a plan is in force, so the
    /// plain replay pays nothing and stays byte-identical to its pre-failure
    /// behavior (event ids included: the plan pushes no events when empty).
    failure: Option<FailureState>,
    /// Replication bookkeeping, under the same only-pay-when-active rule.
    replication: Option<ReplicationState>,
    fan_out: FanOut,
}

impl<'a> Engine<'a> {
    fn new(
        pipelines: &'a mut [NodePipeline],
        routing: &'a Routing,
        cfg: &'a SimConfig,
        trace: &'a Trace,
        declare_on_arrival: bool,
        failures: &'a FailurePlan,
        sink: &'a ObsSink,
    ) -> Self {
        assert!(
            failures.is_empty()
                || matches!(
                    routing,
                    Routing::MortonSlabs { .. } | Routing::Replicated { .. }
                ),
            "failure plans require the cluster route (a single node has no survivor)"
        );
        let nodes = pipelines.len();
        let mut locate = BTreeMap::new();
        let mut first_pos = Vec::with_capacity(trace.jobs.len());
        let mut total_queries = 0;
        for (ji, job) in trace.jobs.iter().enumerate() {
            first_pos.push(total_queries);
            total_queries += job.queries.len();
            for (qi, q) in job.queries.iter().enumerate() {
                locate.insert(q.id, (ji, qi));
            }
        }
        let first_arrival = trace.jobs.first().map_or(0.0, |j| j.arrival_ms);
        let failure = (!failures.is_empty()).then(|| FailureState {
            pending: vec![BTreeSet::new(); nodes],
            defs: BTreeMap::new(),
            declared: vec![BTreeSet::new(); nodes],
            arrived: vec![false; trace.jobs.len()],
            crashes: 0,
        });
        let replication = match routing {
            Routing::Replicated { replication, .. } if replication.enabled => {
                Some(ReplicationState {
                    dir: ReplicaDirectory::new(*replication),
                    declared: vec![BTreeSet::new(); nodes],
                    node_load: vec![0; nodes],
                    decls: 0,
                })
            }
            _ => None,
        };
        Engine {
            trace,
            cfg,
            sink,
            failures,
            pipelines,
            declare_on_arrival,
            queue: EventQueue::default(),
            live: LiveRouting::new(routing, nodes),
            now_ms: 0.0,
            locate,
            first_pos,
            submit_ms: vec![None; total_queries],
            outstanding: vec![0; total_queries],
            responses: Vec::with_capacity(total_queries),
            response_log: Vec::new(),
            remaining_per_job: trace.jobs.iter().map(|j| j.queries.len()).collect(),
            jobs_completed: 0,
            first_arrival,
            last_completion: first_arrival,
            truncated: false,
            node_status: vec![NodeStatus::default(); nodes],
            first_failure_ms: None,
            failure,
            replication,
            fan_out: FanOut::new(nodes),
        }
    }

    /// The event loop: seeds arrivals and scripted failures, then pops events
    /// in `(time, insertion id)` order until the queue drains or the
    /// simulated-time cap fires.
    fn run(mut self) -> EngineOutcome {
        for (ji, job) in self.trace.jobs.iter().enumerate() {
            self.queue.push(job.arrival_ms, Event::JobArrival(ji));
        }
        for (i, ev) in self.failures.events().iter().enumerate() {
            self.queue.push(ev.at_ms(), Event::Failure(i));
        }
        while let Some((at, ev)) = self.queue.pop() {
            if at > self.cfg.max_sim_ms {
                self.truncated = true;
                break;
            }
            self.now_ms = self.now_ms.max(at);
            match ev {
                Event::JobArrival(ji) => self.on_job_arrival(ji),
                Event::QuerySubmit(ji, qi) => {
                    let observe = self.trace.jobs[ji].kind == JobKind::Ordered;
                    self.submit(ji, qi, observe);
                }
                Event::BatchDone(node, parts) => self.on_batch_done(node, parts),
                Event::PrefetchDone(node) => self.on_prefetch_done(node),
                Event::IdleCheck(node) => self.on_idle_check(node),
                Event::Failure(i) => self.on_failure(i),
            }
            self.dispatch_round();
        }
        self.finish()
    }

    /// A trace job arrives: declare it to every live node that owns part of
    /// it, then start its client model — a batched job's paced stream, or an
    /// ordered job's chain head.
    fn on_job_arrival(&mut self, ji: usize) {
        let job = &self.trace.jobs[ji];
        if let Some(fs) = &mut self.failure {
            fs.arrived[ji] = true;
        }
        if self.sink.enabled() {
            self.sink.emit(
                self.now_ms,
                jaws_obs::Event::JobArrival {
                    job: job.id,
                    kind: match job.kind {
                        JobKind::Ordered => "ordered".to_string(),
                        JobKind::Batched => "batched".to_string(),
                    },
                    queries: job.queries.len() as u32,
                },
            );
        }
        if self.declare_on_arrival {
            for node in 0..self.pipelines.len() {
                if !self.live.alive[node] {
                    continue;
                }
                let Some(pj) = self.live.project_job(job, node as u32) else {
                    continue;
                };
                if let Some(fs) = &mut self.failure {
                    fs.declared[node].extend(pj.queries.iter().map(|q| q.id));
                }
                if let Some(rs) = &mut self.replication {
                    rs.declared[node].extend(pj.queries.iter().map(|q| q.id));
                }
                self.pipelines[node].job_declared(pj.as_ref(), self.now_ms);
            }
        }
        match job.kind {
            JobKind::Batched => {
                // The client loop streams order-independent queries at its
                // pacing cadence.
                for qi in 0..job.queries.len() {
                    self.queue.push(
                        self.now_ms + qi as f64 * job.think_ms,
                        Event::QuerySubmit(ji, qi),
                    );
                }
            }
            // The chain head is submitted in place (the predictor only
            // observes from the second query on).
            JobKind::Ordered => self.submit(ji, 0, false),
        }
    }

    /// Submits query `(ji, qi)`: records the submission time, fans the query
    /// out to its owning pipelines, and (for ordered follow-ups) feeds the
    /// trajectory predictors.
    fn submit(&mut self, ji: usize, qi: usize, observe: bool) {
        let job = &self.trace.jobs[ji];
        let q = &job.queries[qi];
        let pos = self.first_pos[ji] + qi;
        self.submit_ms[pos] = Some(self.now_ms);
        if self.sink.enabled() {
            self.sink.emit(
                self.now_ms,
                jaws_obs::Event::QuerySubmit {
                    query: q.id,
                    job: job.id,
                    timestep: q.timestep,
                    atoms: q.footprint.atoms.len() as u32,
                    positions: q.positions(),
                },
            );
        }
        self.outstanding[pos] = match self.replication.take() {
            // The overlay is lent to the fan-out, which delivers parts
            // through the engine, and put back afterwards.
            Some(mut rs) => {
                let parts = self.replicated_fan_out(&mut rs, q, job, observe);
                self.replication = Some(rs);
                parts
            }
            None => match self.live.base {
                Routing::Single => {
                    // The single route delivers the query itself, unchanged.
                    self.deliver_part(0, q, q.id, observe, job.id);
                    1
                }
                Routing::MortonSlabs { .. } | Routing::Replicated { .. } => {
                    self.slab_fan_out(q, job.id, observe)
                }
            },
        };
    }

    /// Static-slab fan-out: scatters the footprint into per-node lanes and
    /// delivers one part per non-empty lane, in ascending node order.
    /// Returns the number of parts.
    fn slab_fan_out(&mut self, q: &Query, job_id: u64, observe: bool) -> u32 {
        for &(m, c) in &q.footprint.atoms {
            let node = self.live.node_of(m) as usize;
            self.fan_out.lanes[node].push((m, c));
        }
        let mut parts = 0;
        for node in 0..self.fan_out.lanes.len() {
            if self.fan_out.lanes[node].is_empty() {
                continue;
            }
            let mut part = self.fan_out.take_part(q, node);
            self.deliver_part(node as u32, &part, q.id, observe, job_id);
            self.fan_out.restore(node, &mut part);
            parts += 1;
        }
        parts
    }

    /// Computes the per-node parts of `q` under the replica overlay: records
    /// each footprint atom in the access histogram, applies the
    /// promotion/demotion transitions the refreshed windows trigger, routes
    /// every atom to the least-loaded live candidate (slab owner or replica),
    /// and regroups the atoms into per-target parts. Returns the number of
    /// parts. Two declaration-consistency duties ride along, in deterministic
    /// order:
    ///
    /// * **withdrawals** — a statically-owning node whose every atom diverted
    ///   away holds a declared part id that will never arrive; job-aware
    ///   gating would stall its partners until the gate timeout, so the id is
    ///   withdrawn ([`crate::scheduler_api::Scheduler::query_withdrawn`] via
    ///   the pipeline);
    /// * **just-in-time declarations** — a replica host outside the job's
    ///   static projection has never heard of the incoming part id (JAWS₂
    ///   gating requires every available query to be declared), so a
    ///   synthetic single-query job (id namespace [`REPLICA_DECL_BIT`])
    ///   declares it first. Single-query jobs never form gating alignments,
    ///   so the declaration cannot distort schedule quality.
    fn replicated_fan_out(
        &mut self,
        rs: &mut ReplicationState,
        q: &Query,
        job: &Job,
        observe: bool,
    ) -> u32 {
        let now_ms = self.now_ms;
        let scratch = &mut self.fan_out;
        scratch.actions.clear();
        scratch.owner_flag.iter_mut().for_each(|f| *f = false);
        for &(m, c) in &q.footprint.atoms {
            let owner = self.live.node_of(m);
            scratch.owner_flag[owner as usize] = true;
            let target = rs.dir.route_atom(
                m,
                owner,
                now_ms,
                &self.live.alive,
                &rs.node_load,
                &mut scratch.actions,
            );
            scratch.lanes[target as usize].push((m, c));
        }
        if self.sink.enabled() {
            for a in &scratch.actions {
                self.sink.emit(now_ms, replica_event(a, q.id));
            }
        }
        // Withdrawals before deliveries, so gating state is settled when the
        // diverted parts arrive.
        for (node, pipeline) in self.pipelines.iter_mut().enumerate() {
            if !scratch.owner_flag[node] || !scratch.lanes[node].is_empty() {
                continue;
            }
            let pid = part_id(q.id, node as u32);
            if rs.declared[node].remove(&pid) {
                if let Some(fs) = &mut self.failure {
                    fs.declared[node].remove(&pid);
                }
                pipeline.query_withdrawn(pid, now_ms);
            }
        }
        // Build the parts and run every just-in-time declaration first
        // (ascending node order) — the trace byte-stream pins declarations
        // ahead of the first delivery.
        debug_assert!(scratch.parts.is_empty(), "parts scratch left dirty");
        for (node, pipeline) in self.pipelines.iter_mut().enumerate() {
            if scratch.lanes[node].is_empty() {
                continue;
            }
            let part = scratch.take_part(q, node);
            if !rs.declared[node].contains(&part.id) {
                rs.decls += 1;
                let decl = Job {
                    id: REPLICA_DECL_BIT | rs.decls,
                    user: job.user,
                    kind: job.kind,
                    campaign: job.campaign,
                    queries: vec![part.clone()],
                    arrival_ms: job.arrival_ms,
                    think_ms: job.think_ms,
                };
                rs.declared[node].insert(part.id);
                if let Some(fs) = &mut self.failure {
                    fs.declared[node].insert(part.id);
                }
                pipeline.job_declared(&decl, now_ms);
            }
            scratch.parts.push((node as u32, part));
        }
        // Deliveries in ascending node order; each part's footprint buffer
        // goes back to its lane once the pipeline has taken what it needs.
        let mut parts = std::mem::take(&mut scratch.parts);
        for (node, part) in &mut parts {
            rs.node_load[*node as usize] += 1;
            self.deliver_part(*node, part, q.id, observe, job.id);
            self.fan_out.restore(*node as usize, part);
        }
        let count = parts.len() as u32;
        parts.clear();
        self.fan_out.parts = parts;
        count
    }

    /// Hands one part query to its owning pipeline: emits the routing record,
    /// registers failure-plan bookkeeping, feeds the trajectory predictor
    /// (for ordered follow-ups) and makes the part available to the node's
    /// scheduler.
    fn deliver_part(&mut self, node: u32, part: &Query, query: QueryId, observe: bool, job: u64) {
        if self.sink.enabled() {
            self.sink.emit(
                self.now_ms,
                jaws_obs::Event::PartRouted {
                    query,
                    part: part.id,
                    node,
                    atoms: part.footprint.atoms.len() as u32,
                },
            );
        }
        if let Some(fs) = &mut self.failure {
            fs.pending[node as usize].insert(part.id);
            fs.defs.insert(part.id, part.clone());
        }
        let p = &mut self.pipelines[node as usize];
        if observe {
            p.observe(job, part);
        }
        p.query_available(part, self.now_ms);
    }

    /// A node finished a batch: completes each part, and each query whose
    /// last part this was.
    fn on_batch_done(&mut self, node: u32, completed_parts: Vec<QueryId>) {
        let n = node as usize;
        if !self.live.alive[n] {
            // The node died mid-batch: its completion never happens and
            // these parts were re-dispatched at crash time.
            return;
        }
        self.pipelines[n].set_idle();
        for pid in completed_parts {
            let qid = self.live.base.original_id(pid);
            let (ji, qi) = self.locate[&qid];
            let pos = self.first_pos[ji] + qi;
            // lint: invariant — schedulers only complete queries previously
            // handed to query_available
            let submitted = self.submit_ms[pos].expect("completed query was submitted");
            let rt = self.now_ms - submitted;
            self.pipelines[n].complete_part(pid, rt, self.now_ms);
            if let Some(fs) = &mut self.failure {
                fs.pending[n].remove(&pid);
                fs.defs.remove(&pid);
            }
            if let Some(rs) = &mut self.replication {
                rs.node_load[n] = rs.node_load[n].saturating_sub(1);
            }
            // lint: invariant — every part was counted in `outstanding`
            // when its query was submitted, and completes exactly once
            let left = self.outstanding[pos]
                .checked_sub(1)
                .expect("completed part of a tracked query");
            self.outstanding[pos] = left;
            if left == 0 {
                self.complete_query(ji, qi, rt);
            }
        }
    }

    /// The last part of query `(ji, qi)` completed: record the response and
    /// advance the job (an ordered job's successor follows after think time).
    fn complete_query(&mut self, ji: usize, qi: usize, rt: f64) {
        let job = &self.trace.jobs[ji];
        let qid = job.queries[qi].id;
        if self.sink.enabled() {
            self.sink.emit(
                self.now_ms,
                jaws_obs::Event::QueryComplete {
                    query: qid,
                    response_ms: rt,
                },
            );
            self.sink.emit(
                self.now_ms,
                jaws_obs::Event::Histogram {
                    name: "engine.response_ms".to_string(),
                    sample: rt,
                },
            );
        }
        self.responses.push(rt);
        self.response_log.push((qid, rt));
        self.last_completion = self.now_ms;
        self.remaining_per_job[ji] -= 1;
        if self.remaining_per_job[ji] == 0 {
            self.jobs_completed += 1;
        }
        if job.kind == JobKind::Ordered && qi + 1 < job.queries.len() {
            self.queue
                .push(self.now_ms + job.think_ms, Event::QuerySubmit(ji, qi + 1));
        }
    }

    /// A node's speculative read finished.
    fn on_prefetch_done(&mut self, node: u32) {
        if self.live.alive[node as usize] {
            self.pipelines[node as usize].set_idle();
        }
    }

    /// A node's idle re-poll fired; the dispatch round that follows re-polls.
    fn on_idle_check(&mut self, node: u32) {
        if self.live.alive[node as usize] {
            self.pipelines[node as usize].clear_idle_check();
        }
    }

    /// Scripted failure event `i` fired: a straggler slowdown or a crash.
    fn on_failure(&mut self, i: usize) {
        self.first_failure_ms.get_or_insert(self.now_ms);
        match self.failures.events()[i] {
            FailureEvent::Slowdown { node, factor, .. } => {
                if self.live.alive[node as usize] {
                    self.pipelines[node as usize].set_service_multiplier(factor);
                    self.node_status[node as usize].slowdown = factor;
                    if self.sink.enabled() {
                        self.sink
                            .emit(self.now_ms, jaws_obs::Event::NodeSlowdown { node, factor });
                    }
                }
            }
            FailureEvent::Crash { node, survivor, .. } => {
                // FailurePlan::validate rejects plans that crash the same
                // node twice, so this assert cannot fire.
                assert!(self.live.alive[node as usize], "node {node} crashed twice");
                self.crash(node, survivor);
            }
        }
    }

    /// Handles one scripted crash: kills the node in the routing overlay,
    /// then re-dispatches everything it held through the survivor — first
    /// declaring *remnant job* projections ([`Engine::remnants`]) so the
    /// survivor's job-aware gating knows the incoming ids, then re-enqueueing
    /// the pending parts in ascending part-id order.
    fn crash(&mut self, node: u32, designated: Option<u32>) {
        // Taken out for the crash and put back at the end, so the handler can
        // read the engine's tables while it updates the failure state.
        // lint: invariant — Engine::new asserts the plan is empty unless the
        // cluster route is in force, and the failure state exists whenever
        // the plan is non-empty
        let mut fs = self.failure.take().expect("failure state exists");
        let now_ms = self.now_ms;
        let surv = self.live.crash(node, designated);
        fs.crashes += 1;
        let moved = std::mem::take(&mut fs.pending[node as usize]);
        self.node_status[node as usize].failed = true;
        self.node_status[node as usize].redispatched_parts = moved.len() as u64;
        if self.sink.enabled() {
            self.sink.emit(
                now_ms,
                jaws_obs::Event::NodeFailed {
                    node,
                    survivor: surv,
                    redispatched: moved.len() as u64,
                },
            );
        }
        if let Some(rs) = &mut self.replication {
            // The dead node's replicas leave the routing table (its slab
            // itself re-chains through `LiveRouting` exactly as without
            // replication), and the load it carried moves to the survivor
            // along with the parts.
            for m in rs.dir.drop_node(node) {
                if self.sink.enabled() {
                    self.sink.emit(
                        now_ms,
                        jaws_obs::Event::ReplicaDropped {
                            morton: m.raw(),
                            node,
                            crashed: true,
                        },
                    );
                }
            }
            let moved_load = std::mem::take(&mut rs.node_load[node as usize]);
            debug_assert_eq!(moved_load, moved.len() as u64, "load tracks pending");
            rs.node_load[surv as usize] += moved_load;
        }

        for (ji, mut parts) in self.remnants(&fs, surv, &moved) {
            parts.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            let job = &self.trace.jobs[ji];
            debug_assert!(
                job.id < (1 << REMNANT_JOB_BITS),
                "trace job id exceeds the remnant tag budget"
            );
            let remnant = Job {
                // Tagged with the crash ordinal: distinct from the trace id
                // and from remnants of earlier crashes.
                id: (fs.crashes << REMNANT_JOB_BITS) | job.id,
                user: job.user,
                kind: job.kind,
                campaign: job.campaign,
                queries: parts.into_iter().map(|(_, _, q)| q).collect(),
                arrival_ms: job.arrival_ms,
                think_ms: job.think_ms,
            };
            fs.declared[surv as usize].extend(remnant.queries.iter().map(|q| q.id));
            if let Some(rs) = &mut self.replication {
                rs.declared[surv as usize].extend(remnant.queries.iter().map(|q| q.id));
            }
            self.pipelines[surv as usize].job_declared(&remnant, now_ms);
        }

        // Re-enqueue the dead node's pending parts through the survivor's
        // scheduler: recovered work re-enters the utility ranking, it does
        // not jump the queue.
        for &pid in &moved {
            if self.sink.enabled() {
                self.sink.emit(
                    now_ms,
                    jaws_obs::Event::PartRedispatched {
                        part: pid,
                        from: node,
                        to: surv,
                    },
                );
            }
            fs.pending[surv as usize].insert(pid);
            // lint: invariant — every pending part stored its definition at
            // submission time
            let def = fs.defs.get(&pid).expect("pending part has a definition");
            self.pipelines[surv as usize].query_available(def, now_ms);
        }
        self.failure = Some(fs);
    }

    /// The remnant job projections a crash declares to the survivor `surv`,
    /// grouped per trace job in ascending job index as `(query index, part
    /// id, part)`: every part `moved` off the dead node, plus every future
    /// query of an already-arrived job whose atoms now route to the survivor
    /// under a part id it was never told about (so its later submission finds
    /// a known id).
    fn remnants(
        &self,
        fs: &FailureState,
        surv: u32,
        moved: &BTreeSet<QueryId>,
    ) -> BTreeMap<usize, Vec<(usize, QueryId, Query)>> {
        let mut remnants: BTreeMap<usize, Vec<(usize, QueryId, Query)>> = BTreeMap::new();
        for &pid in moved {
            let (ji, qi) = self.locate[&orig_id(pid)];
            // lint: invariant — every pending part stored its definition at
            // submission time
            let def = fs.defs.get(&pid).expect("pending part has a definition");
            remnants.entry(ji).or_default().push((qi, pid, def.clone()));
        }
        for (ji, job) in self.trace.jobs.iter().enumerate() {
            if !fs.arrived[ji] {
                // Unarrived jobs project through the post-crash routing at
                // their arrival; nothing to declare early.
                continue;
            }
            for (qi, q) in job.queries.iter().enumerate() {
                if self.submit_ms[self.first_pos[ji] + qi].is_some() {
                    continue; // submitted (or already complete): not a future query
                }
                let atoms: Vec<(MortonKey, u32)> = q
                    .footprint
                    .atoms
                    .iter()
                    .copied()
                    .filter(|&(m, _)| self.live.node_of(m) == surv)
                    .collect();
                if atoms.is_empty() {
                    continue;
                }
                let pid = part_id(q.id, surv);
                if fs.declared[surv as usize].contains(&pid) {
                    continue; // the survivor's own projection already covers it
                }
                remnants.entry(ji).or_default().push((
                    qi,
                    pid,
                    Query {
                        id: pid,
                        user: q.user,
                        op: q.op,
                        timestep: q.timestep,
                        footprint: Footprint::from_pairs(atoms),
                    },
                ));
            }
        }
        remnants
    }

    /// One dispatch round over the live pipelines, in ascending node order:
    /// each free node starts its next batch if work is schedulable, otherwise
    /// spends the idle capacity on a speculative read, or asks for an idle
    /// re-poll if gated work exists. Each node's follow-up event is pushed as
    /// it is planned.
    // lint: hotpath
    fn dispatch_round(&mut self) {
        let now_ms = self.now_ms;
        for (node, p) in self.pipelines.iter_mut().enumerate() {
            if !self.live.alive[node] || p.is_busy() {
                continue;
            }
            let node = node as u32;
            if let Some(batch) = p.next_batch(now_ms) {
                debug_assert!(!batch.is_empty(), "scheduler produced an empty batch");
                let service_ms = p.charge_batch(&batch, now_ms);
                self.queue.push(
                    now_ms + service_ms,
                    Event::BatchDone(node, batch.completing_queries),
                );
            } else if let Some(io_ms) = p.try_prefetch(now_ms) {
                // Nothing schedulable: spend the idle capacity on a
                // speculative read, if the trajectory predictor has one.
                self.queue.push(now_ms + io_ms, Event::PrefetchDone(node));
            } else if p.wants_idle_check() {
                // If gated work exists, poll again soon so the starvation
                // valve can fire even with no other events.
                self.queue
                    .push(now_ms + self.cfg.idle_recheck_ms, Event::IdleCheck(node));
            }
        }
    }

    /// Closes the run: retires work a truncated run left queued, emits the
    /// end-of-run counters and hands the totals to the report layer.
    fn finish(self) -> EngineOutcome {
        let now_ms = self.now_ms;
        let truncated = self.truncated || self.responses.len() < self.submit_ms.len();
        if truncated {
            // Queries still queued will never complete; let schedulers that
            // keep per-query bookkeeping (QoS deadlines) retire it instead of
            // leaking it — scheduler instances outlive the trace in the
            // daemon direction.
            for (node, p) in self.pipelines.iter_mut().enumerate() {
                if self.live.alive[node] {
                    p.retire_pending(now_ms);
                }
            }
        }
        if self.sink.enabled() {
            self.sink.emit(
                now_ms,
                jaws_obs::Event::Counter {
                    name: "engine.queries_completed".to_string(),
                    value: self.responses.len() as u64,
                },
            );
            self.sink.emit(
                now_ms,
                jaws_obs::Event::Counter {
                    name: "engine.jobs_completed".to_string(),
                    value: self.jobs_completed,
                },
            );
        }
        EngineOutcome {
            totals: RunTotals {
                responses: self.responses,
                jobs_completed: self.jobs_completed,
                first_arrival: self.first_arrival,
                last_completion: self.last_completion,
                truncated,
            },
            response_log: self.response_log,
            node_status: self.node_status,
            first_failure_ms: self.first_failure_ms,
            replication: self.replication.map(|rs| rs.dir.summary()),
        }
    }
}

/// The trace record of one replica transition, attributed to query `query`.
fn replica_event(a: &ReplicaAction, query: QueryId) -> jaws_obs::Event {
    match *a {
        ReplicaAction::Promoted {
            morton,
            node,
            window_accesses,
        } => jaws_obs::Event::ReplicaPromoted {
            morton: morton.raw(),
            node,
            window_accesses,
        },
        ReplicaAction::Demoted { morton, node } => jaws_obs::Event::ReplicaDropped {
            morton: morton.raw(),
            node,
            crashed: false,
        },
        ReplicaAction::Routed {
            morton,
            owner,
            replica,
        } => jaws_obs::Event::ReplicaRouted {
            query,
            morton: morton.raw(),
            owner,
            replica,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The retired heap key: f64 event times under a total order. Kept as the
    /// test oracle for the calendar queue's pop order.
    #[derive(Debug, PartialEq)]
    struct Key(f64, u64);

    impl Eq for Key {}

    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }

    /// The pre-calendar-queue implementation, verbatim: a min-heap of
    /// `(time, insertion id)` keys. Pop order is the specification the
    /// calendar queue must reproduce bit-for-bit.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(Key, u64)>>,
        events: BTreeMap<u64, Event>,
        next_event: u64,
    }

    impl HeapOracle {
        fn push(&mut self, at_ms: f64, ev: Event) {
            let id = self.next_event;
            self.next_event += 1;
            self.events.insert(id, ev);
            self.heap.push(Reverse((Key(at_ms, id), id)));
        }

        fn pop(&mut self) -> Option<(f64, Event)> {
            let Reverse((Key(at, _), id)) = self.heap.pop()?;
            let ev = self.events.remove(&id).expect("event payload");
            Some((at, ev))
        }
    }

    /// Tags pops so sequences can be compared: (time bits, payload tag).
    fn tag(popped: Option<(f64, Event)>) -> Option<(u64, u32)> {
        popped.map(|(at, ev)| match ev {
            Event::IdleCheck(n) => (at.to_bits(), n),
            other => panic!("test events are IdleCheck only, got {other:?}"),
        })
    }

    #[test]
    fn calendar_queue_pops_nothing_when_empty() {
        let mut q = EventQueue::default();
        assert!(q.pop().is_none());
        q.push(5.0, Event::IdleCheck(0));
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_queue_orders_by_time_then_insertion_id() {
        let mut q = EventQueue::default();
        q.push(3.25, Event::IdleCheck(0));
        q.push(1.5, Event::IdleCheck(1));
        q.push(1.5, Event::IdleCheck(2));
        q.push(0.75, Event::IdleCheck(3));
        let order: Vec<u32> = std::iter::from_fn(|| tag(q.pop()).map(|(_, n)| n)).collect();
        assert_eq!(order, vec![3, 1, 2, 0], "ties pop first-pushed-first");
    }

    #[test]
    fn calendar_queue_migrates_far_future_overflow() {
        let mut q = EventQueue::default();
        // Far beyond the ring window, out of push order, with a tie.
        let far = RING_BUCKETS as f64 * 3.0;
        q.push(far + 7.0, Event::IdleCheck(0));
        q.push(2.0, Event::IdleCheck(1));
        q.push(far + 7.0, Event::IdleCheck(2));
        q.push(far + 1.0, Event::IdleCheck(3));
        let order: Vec<u32> = std::iter::from_fn(|| tag(q.pop()).map(|(_, n)| n)).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn calendar_queue_interleaves_pushes_between_pops() {
        // The engine's shape: pops advance the cursor while new events land
        // at or after the popped time, including in the current bucket.
        let mut q = EventQueue::default();
        let mut oracle = HeapOracle::default();
        for (i, t) in [10.0, 4.5, 4.5, 2_000.0, 9_999.5].iter().enumerate() {
            q.push(*t, Event::IdleCheck(i as u32));
            oracle.push(*t, Event::IdleCheck(i as u32));
        }
        let mut next = 100u32;
        while let Some((at, ev)) = oracle.pop() {
            assert_eq!(tag(Some((at, ev))), tag(q.pop()));
            if next < 106 {
                // Re-arm two follow-ups relative to the popped time.
                for dt in [0.0, 750.25] {
                    q.push(at + dt, Event::IdleCheck(next));
                    oracle.push(at + dt, Event::IdleCheck(next));
                    next += 1;
                }
            }
        }
        assert!(q.pop().is_none());
    }

    proptest! {
        /// Pop order equals the retired binary heap's over random event
        /// sequences — quantized times force same-timestamp ties, the far
        /// multiplier exercises overflow migration, and interleaved pops
        /// exercise the sliding window.
        #[test]
        fn calendar_queue_matches_heap_oracle(
            ops in proptest::collection::vec((0u8..2, 0u16..200, 0u8..2), 1..200)
        ) {
            let mut q = EventQueue::default();
            let mut oracle = HeapOracle::default();
            let mut n = 0u32;
            for (is_pop, t_raw, far) in ops {
                let (is_pop, far) = (is_pop == 1, far == 1);
                if is_pop {
                    prop_assert_eq!(tag(q.pop()), tag(oracle.pop()));
                } else {
                    let t = if far {
                        t_raw as f64 * 97.5
                    } else {
                        (t_raw % 24) as f64 * 0.5
                    };
                    q.push(t, Event::IdleCheck(n));
                    oracle.push(t, Event::IdleCheck(n));
                    n += 1;
                }
            }
            loop {
                let (a, b) = (tag(q.pop()), tag(oracle.pop()));
                let done = b.is_none();
                prop_assert_eq!(a, b);
                if done {
                    break;
                }
            }
        }
    }

    #[test]
    fn part_ids_round_trip() {
        for q in [1u64, 42, 1 << 40, PART_QUERY_MASK] {
            for node in [0u32, 3, 15, MAX_NODE_INDEX] {
                let pid = part_id(q, node);
                assert_eq!(orig_id(pid), q);
                assert_eq!(part_node(pid), node);
            }
        }
        assert_ne!(part_id(7, 0), part_id(7, 1), "parts distinct across nodes");
        assert_ne!(part_id(7, 0), 7, "part ids never collide with trace ids");
    }

    #[test]
    fn single_routing_is_the_identity() {
        let r = Routing::Single;
        assert_eq!(r.node_of(MortonKey(63)), 0);
        assert_eq!(r.original_id(42), 42);
    }

    #[test]
    fn slab_routing_assigns_contiguous_ranges() {
        let r = Routing::MortonSlabs {
            slab_size: 16,
            nodes: 4,
        };
        assert_eq!(r.node_of(MortonKey(0)), 0);
        assert_eq!(r.node_of(MortonKey(15)), 0);
        assert_eq!(r.node_of(MortonKey(16)), 1);
        assert_eq!(r.node_of(MortonKey(63)), 3);
    }

    #[test]
    fn slab_routing_clamps_the_short_remainder_onto_the_last_node() {
        // 64 atoms over 3 nodes: ceil slabs of 22 → nodes own 22/22/20.
        let r = Routing::MortonSlabs {
            slab_size: 22,
            nodes: 3,
        };
        assert_eq!(r.node_of(MortonKey(21)), 0);
        assert_eq!(r.node_of(MortonKey(22)), 1);
        assert_eq!(r.node_of(MortonKey(43)), 1);
        assert_eq!(r.node_of(MortonKey(44)), 2);
        assert_eq!(r.node_of(MortonKey(63)), 2);
        // More nodes than slabs ever fill: everything clamps in range.
        let r = Routing::MortonSlabs {
            slab_size: 1,
            nodes: 2,
        };
        assert_eq!(r.node_of(MortonKey(500)), 1);
    }

    #[test]
    fn live_routing_redirects_a_dead_slab_to_the_survivor() {
        let base = Routing::MortonSlabs {
            slab_size: 16,
            nodes: 4,
        };
        let mut live = LiveRouting::new(&base, 4);
        assert_eq!(live.node_of(MortonKey(20)), 1);
        let surv = live.crash(1, Some(3));
        assert_eq!(surv, 3);
        assert_eq!(live.node_of(MortonKey(20)), 3, "slab 1 must move to 3");
        assert_eq!(live.node_of(MortonKey(0)), 0, "other slabs untouched");
        assert!(!live.alive[1]);
    }

    #[test]
    fn live_routing_chains_redirects_across_repeated_crashes() {
        let base = Routing::MortonSlabs {
            slab_size: 16,
            nodes: 4,
        };
        let mut live = LiveRouting::new(&base, 4);
        live.crash(1, Some(2));
        // Node 2 now owns slabs 1 and 2; when it dies both must land on the
        // next survivor (designated dead ⇒ lowest live fallback).
        let surv = live.crash(2, Some(1));
        assert_eq!(
            surv, 0,
            "dead designated survivor falls back to lowest live"
        );
        assert_eq!(live.node_of(MortonKey(20)), 0);
        assert_eq!(live.node_of(MortonKey(40)), 0);
        assert_eq!(live.node_of(MortonKey(60)), 3);
    }
}
