//! The two workloads: how each generates its trace from the seeds, and how
//! each builds the system under test through the workspace's public APIs.

use crate::alloc;
use crate::probe::{now, CacheProbe, SchedulerProbe, TimedPolicy, TimedScheduler};
use jaws_bench::exp;
use jaws_morton::MortonKey;
use jaws_obs::ObsSink;
use jaws_scheduler::MetricParams;
use jaws_sim::{
    build_policy, build_scheduler, queue_ops, reset_queue_ops, CachePolicyKind, Executor,
    RunReport, SchedulerKind, SimConfig,
};
use jaws_turbdb::{CostModel, DataMode, DbConfig, TurbDb};
use jaws_workload::{Footprint, GenConfig, QueryId, Trace, TraceGenerator};
use std::sync::Arc;

/// JAWS₂ at the paper's batch size, on every workload.
const SCHEDULER: SchedulerKind = SchedulerKind::Jaws2 { batch_k: 15 };

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline configuration: one node, the full trace.
    PaperReplay,
    /// The smoke geometry with synthesized voxel payloads.
    SyntheticPayload,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PaperReplay, Workload::SyntheticPayload];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperReplay => "paper_replay",
            Workload::SyntheticPayload => "synthetic_payload",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn gen_config(self, gen_seed: u64) -> GenConfig {
        match self {
            Workload::PaperReplay => GenConfig::paper_like(gen_seed),
            Workload::SyntheticPayload => GenConfig::small(gen_seed),
        }
    }

    /// The workload's trace; the program sees only this.
    ///
    /// `gen_seed` picks the job population: jobs, arrivals, sizes and think
    /// times. `seed` picks a translation of every footprint on the periodic
    /// atom grid; at `exp::TRACE_SEED` the generated trace is replayed as
    /// is. A translated trace keeps the jobs, arrivals and data sharing but
    /// moves every access to other atoms and other disk extents.
    pub fn trace(self, gen_seed: u64, seed: u64) -> Trace {
        let mut trace = TraceGenerator::new(self.gen_config(gen_seed)).generate();
        if seed != exp::TRACE_SEED {
            translate(&mut trace, seed);
        }
        trace
    }

    fn db(self) -> DbConfig {
        match self {
            Workload::PaperReplay => exp::paper_db(),
            Workload::SyntheticPayload => exp::smoke_db(),
        }
    }

    /// The buffer pool, in atoms.
    fn cache_atoms(self) -> usize {
        match self {
            Workload::PaperReplay => exp::CACHE_ATOMS,
            Workload::SyntheticPayload => 32,
        }
    }

    fn gate_timeout_ms(self) -> f64 {
        match self {
            Workload::PaperReplay => exp::GATE_TIMEOUT_MS,
            // The bench5_e2e anchor's setting.
            Workload::SyntheticPayload => 10_000.0,
        }
    }

    /// Builds the system under test. `probes` decorates the scheduler and
    /// cache policy; `virtual_twin` swaps synthesized payloads for virtual
    /// ones; `sink` wires a recorder.
    pub fn build(
        self,
        probes: Option<&Probes>,
        virtual_twin: bool,
        sink: Option<ObsSink>,
    ) -> Executor {
        let cost = exp::paper_cost();
        let db_cfg = self.db();
        let mode = if self == Workload::SyntheticPayload && !virtual_twin {
            DataMode::Synthetic
        } else {
            DataMode::Virtual
        };
        let mut policy = build_policy(CachePolicyKind::Urc, self.cache_atoms());
        let mut scheduler = build_scheduler(
            SCHEDULER,
            params(cost, db_cfg),
            exp::RUN_LEN,
            self.gate_timeout_ms(),
        );
        if let Some(p) = probes {
            policy = TimedPolicy::wrap(policy, Arc::clone(&p.cache));
            scheduler = TimedScheduler::wrap(scheduler, Arc::clone(&p.scheduler));
        }
        let db = TurbDb::open(db_cfg, cost, mode, self.cache_atoms(), policy);
        let mut ex = Executor::new(db, scheduler, SimConfig::default());
        if let Some(sink) = sink {
            ex.set_recorder(sink);
        }
        ex
    }
}

/// Shifts every footprint atom by a seed-derived offset, wrapping around the
/// periodic grid, and restores each footprint's Morton order.
fn translate(trace: &mut Trace, seed: u64) {
    let side = trace.atoms_per_side;
    let h = splitmix64(splitmix64(seed));
    let [dx, dy, dz] = [0, 21, 42].map(|shift| ((h >> shift) % u64::from(side)) as u32);
    for query in trace.jobs.iter_mut().flat_map(|j| j.queries.iter_mut()) {
        let moved = query
            .footprint
            .atoms
            .iter()
            .map(|&(m, count)| {
                let (x, y, z) = m.coords();
                let key = MortonKey::from_coords((x + dx) % side, (y + dy) % side, (z + dz) % side);
                (key, count)
            })
            .collect();
        query.footprint = Footprint::from_pairs_in_place(moved);
    }
}

/// The splitmix64 finalizer: spreads a seed over all 64 bits.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn params(cost: CostModel, db: DbConfig) -> MetricParams {
    MetricParams {
        atom_read_ms: cost.atom_read_ms,
        position_compute_ms: cost.position_compute_ms,
        atoms_per_timestep: db.atoms_per_timestep(),
    }
}

/// The decorators' shared counters.
#[derive(Debug, Default)]
pub struct Probes {
    pub scheduler: Arc<SchedulerProbe>,
    pub cache: Arc<CacheProbe>,
}

/// What one replay returns.
pub struct Outcome {
    /// Host time of the `run` call alone, s.
    pub wall_s: f64,
    /// Heap allocations made during the `run` call.
    pub allocations: u64,
    /// Event-queue pushes plus pops during the `run` call.
    pub queue_ops: u64,
    pub report: RunReport,
    /// The full report as JSON, wall-clock fields masked.
    pub masked: String,
    /// `(query, response ms)` per completed query.
    pub response_log: Vec<(QueryId, f64)>,
    /// Atom payloads the database synthesized.
    pub materializations: u64,
}

impl Outcome {
    /// Simulated response times, ascending.
    pub fn sorted_responses(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.response_log.iter().map(|&(_, ms)| ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Replays `trace` on `ex` and collects the outcome. Only the `run` call is
/// timed and counted; building the system and serializing the report are
/// not.
pub fn replay(mut ex: Executor, trace: &Trace) -> Outcome {
    let ((wall_s, allocations, queue_ops), report) = measured(|| ex.run(trace));
    Outcome {
        wall_s,
        allocations,
        queue_ops,
        masked: masked_json(&report),
        report,
        response_log: ex.response_log().to_vec(),
        materializations: ex.db().materializations(),
    }
}

/// Runs `f`, returning its host time in seconds, the allocations it made and
/// the event-queue operations it performed, with its result.
fn measured<R>(f: impl FnOnce() -> R) -> ((f64, u64, u64), R) {
    reset_queue_ops();
    let allocs = alloc::allocations();
    let start = now();
    let r = f();
    let wall_s = start.elapsed().as_secs_f64();
    let allocations = alloc::allocations() - allocs;
    let (pushes, pops) = queue_ops();
    ((wall_s, allocations, pushes + pops), r)
}

fn masked_json<T: serde::Serialize>(report: &T) -> String {
    exp::mask_wallclock_fields(&serde_json::to_string(report).expect("reports serialize"))
}
