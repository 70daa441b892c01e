//! Scenario matrix — one harness for every seeded scenario — `BENCH_10.json`.
//!
//! Every row replays one named, seeded scenario and reports wall clock, heap
//! allocations per query (counting global allocator) and event-queue
//! push/pop counts. It also **asserts, in this binary**, that a second run
//! is byte-identical after wall-clock masking and that 1-, 2- and 8-worker
//! runs produce the same masked bytes. A scenario that got faster by
//! drifting is a panic, not a row. Cluster rows add the simulated makespan
//! and mean response, the busy-time imbalance
//! ([`jaws_sim::ClusterReport::imbalance`]), re-dispatched parts, and the
//! replica directory's promotions, demotions and diverted sub-queries.
//!
//! Three families of rows:
//!
//! * **Shape** — workload shapes on the smoke geometry, JAWS₂ with URC:
//!   - `bench5_e2e`: the BENCH_5 single-node smoke run, unchanged, as the
//!     anchor row comparable against the committed `BENCH_5.json`;
//!   - `flash_crowd`: dense bursts with near-zero intra-burst gaps, the event
//!     queue's same-bucket worst case and maximum ready-set pressure;
//!   - `diurnal`: long quiet gaps between bursts, so events land far ahead of
//!     the calendar cursor and migrate through the overflow map;
//!   - `regime_shift`: a hotspot-heavy trace spliced before a scan-heavy one,
//!     exercising α re-adaptation and cache turnover at the seam;
//!   - `heavy_tailed`: few jobs, large batched query counts, many long jobs;
//!   - `zipf_skew`: nearly all traffic on two hotspots with hot-atom
//!     replication on, the `AccessRing` promotion/demotion path.
//! * **Failure** — one capacity-bound trace (arrivals compressed 20×) on a
//!   JAWS₂ + LRU-K cluster under scripted [`FailurePlan`]s:
//!   - `failure_healthy`: the baseline; its makespan anchors the crash times;
//!   - `failure_crash10/50/90`: node 1 dies at that fraction of the healthy
//!     makespan and node 0 inherits its slab, queued parts and in-flight
//!     work. Every query must still complete;
//!   - `failure_straggle2x/8x`: the last node serves every batch 2× / 8×
//!     slower from t = 0, the paper's slow-disk node.
//! * **Skew** — a Zipf-skewed trace whose head keys all live in node 0's
//!   slab, on JAWS₂ + LRU-K clusters of 1, 2, 4 and 8 nodes with static
//!   Morton slabs (`skew_<n>n_static`) and hot-atom replication
//!   (`skew_<n>n_repl`). At 4 and 8 nodes the replicated imbalance must be
//!   strictly below the static one, with promotions and diverted parts.
//!
//! Flags: `--smoke` shrinks the matrix for CI and writes under `target/`;
//! `--out=PATH` overrides the output path; `--guard=BASELINE.json` compares
//! allocations/query and queue-ops/query per scenario against a committed
//! baseline report of the same mode and exits non-zero on a >2× regression;
//! `--trace-out=DIR` records `failure_crash50` and `skew_4n_repl` through a
//! [`JsonlRecorder`] on their unmeasured runs, asserts those traces
//! byte-identical across 1/2/8 workers, and writes `DIR/<row>.jsonl` (feed
//! them to `trace_explain`).

use jaws_bench::cli::{self, Flag, Takes};
use jaws_bench::{alloc_counter, exp};
use jaws_morton::{AtomId, MortonKey};
use jaws_obs::{JsonlRecorder, ObsSink};
use jaws_scheduler::{Jaws, JawsConfig, MetricParams, Residency, Scheduler};
use jaws_sim::{
    build_db, build_scheduler, queue_ops, reset_queue_ops, CachePolicyKind, ClusterConfig,
    ClusterExecutor, ClusterReport, Executor, FailurePlan, ReplicationConfig, SchedulerKind,
    SimConfig,
};
use jaws_turbdb::{CostModel, DataMode, DbConfig};
use jaws_workload::{Footprint, Job, JobKind, Query, QueryOp};
use jaws_workload::{GenConfig, Trace, TraceGenerator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every heap acquisition in the measured runs is counted, so the
/// allocations-per-query column is a measurement, not an estimate.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Worker counts every scenario must be masked-byte-identical across.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Guard tolerance: fail when a cost column exceeds baseline × this factor.
const GUARD_FACTOR: f64 = 2.0;

/// Node the crash scenarios kill and the survivor that inherits its slab.
const CRASHED_NODE: u32 = 1;
const SURVIVOR: u32 = 0;

/// Zipf exponent of the skew family's trace.
const ZIPF_S: f64 = 1.1;

const GUARD: Flag = Flag {
    name: "--guard",
    takes: Takes::Path,
    help: "fail on a >2x cost regression against this baseline report",
};

const TRACE_OUT: Flag = Flag {
    name: "--trace-out",
    takes: Takes::Path,
    help: "directory for the JSONL traces of failure_crash50 and skew_4n_repl",
};

#[derive(Serialize)]
struct ScenarioRow {
    name: String,
    kind: &'static str,
    nodes: u32,
    jobs: usize,
    queries_completed: u64,
    wall_ms: f64,
    throughput_qps: f64,
    allocations: u64,
    allocations_per_query: f64,
    queue_pushes: u64,
    queue_pops: u64,
    queue_ops_per_query: f64,
    /// Same seeded run, twice, masked bytes compared. Asserted true.
    double_run_identical: bool,
    /// Masked bytes identical at 1/2/8 workers. Asserted true.
    workers_identical: bool,
    // Simulated outcome of a cluster row; null on the single-node row.
    makespan_ms: Option<f64>,
    mean_response_ms: Option<f64>,
    imbalance: Option<f64>,
    redispatched_parts: Option<u64>,
    promotions: Option<u64>,
    demotions: Option<u64>,
    replica_routed: Option<u64>,
}

/// Steady-state `Jaws::next_batch` allocation cost, isolated from setup,
/// materialization and report building: the engine dispatch path proper.
#[derive(Serialize)]
struct DispatchMicro {
    queries_loaded: u64,
    warmup_batches: usize,
    measured_batches: usize,
    atoms_dispatched: u64,
    allocations: u64,
    allocations_per_batch: f64,
    allocations_per_atom: f64,
}

#[derive(Serialize)]
struct MatrixReport {
    bench: &'static str,
    smoke: bool,
    threads_reported: usize,
    available_parallelism: usize,
    worker_counts: Vec<usize>,
    dispatch_path: DispatchMicro,
    scenarios: Vec<ScenarioRow>,
}

/// The subset of a previous report the `--guard` comparison reads. Extra
/// fields in the baseline JSON are ignored, so schema growth does not
/// invalidate committed baselines.
#[derive(Deserialize)]
struct BaselineRow {
    name: String,
    allocations_per_query: f64,
    queue_ops_per_query: f64,
}

#[derive(Deserialize)]
struct BaselineDispatch {
    allocations_per_batch: f64,
}

#[derive(Deserialize)]
struct BaselineReport {
    smoke: bool,
    dispatch_path: BaselineDispatch,
    scenarios: Vec<BaselineRow>,
}

/// How a scenario is executed. Every variant is a pure function of its
/// seeded inputs, so re-running one is the determinism probe.
enum Driver {
    /// Single-node materialized-mode `Executor` (the BENCH_5 configuration).
    SingleNode,
    /// `ClusterExecutor` on virtual data under this configuration.
    Cluster(Box<ClusterConfig>),
}

struct Scenario {
    name: String,
    trace: Rc<Trace>,
    driver: Driver,
    /// Whether `--trace-out` records this row's JSONL trace.
    traced: bool,
}

/// What one run of a scenario yields.
struct Run {
    masked: String,
    queries: u64,
    cluster: Option<ClusterReport>,
    jsonl: Option<String>,
}

impl Scenario {
    fn new(name: impl Into<String>, trace: &Rc<Trace>, driver: Driver) -> Self {
        Scenario {
            name: name.into(),
            trace: trace.clone(),
            driver,
            traced: false,
        }
    }

    fn cluster(name: impl Into<String>, trace: &Rc<Trace>, cfg: ClusterConfig) -> Self {
        Self::new(name, trace, Driver::Cluster(Box::new(cfg)))
    }

    /// One full run, recording a JSONL trace if `record`.
    fn run_once(&self, record: bool) -> Run {
        let recorder = record.then(|| Arc::new(Mutex::new(JsonlRecorder::new())));
        let sink = recorder.as_ref().map(|rc| ObsSink::new(rc.clone()));
        let (json, queries, cluster) = match &self.driver {
            Driver::SingleNode => {
                let cfg = exp::smoke_db();
                let cost = CostModel::paper_testbed();
                let db = build_db(cfg, cost, DataMode::Synthetic, 32, CachePolicyKind::Urc);
                let params = MetricParams {
                    atom_read_ms: cost.atom_read_ms,
                    position_compute_ms: cost.position_compute_ms,
                    atoms_per_timestep: cfg.atoms_per_timestep(),
                };
                let sched = build_scheduler(
                    SchedulerKind::Jaws2 { batch_k: 15 },
                    params,
                    exp::RUN_LEN,
                    10_000.0,
                );
                let mut ex = Executor::new(db, sched, SimConfig::default());
                if let Some(sink) = sink {
                    ex.set_recorder(sink);
                }
                let report = ex.run(&self.trace);
                let json = serde_json::to_string(&report).expect("report serializes");
                (json, report.queries_completed, None)
            }
            Driver::Cluster(cfg) => {
                let mut ex = ClusterExecutor::new((**cfg).clone());
                if let Some(sink) = sink {
                    ex.set_recorder(sink);
                }
                let report = ex.run(&self.trace);
                let json = serde_json::to_string(&report).expect("report serializes");
                (json, report.aggregate.queries_completed, Some(report))
            }
        };
        Run {
            masked: exp::mask_wallclock_fields(&json),
            queries,
            cluster,
            // lint: invariant — the run above completed; a poisoned mutex
            // would already have panicked the emitting thread
            jsonl: recorder.map(|rc| rc.lock().expect("recorder lock").take()),
        }
    }
}

/// A JAWS₂ cluster of `nodes` over `db` with the paper's cache split evenly,
/// no failures and static Morton slabs.
fn cluster(nodes: u32, db: DbConfig, cache_policy: CachePolicyKind) -> ClusterConfig {
    ClusterConfig {
        nodes,
        db,
        cost: exp::paper_cost(),
        scheduler: SchedulerKind::Jaws2 { batch_k: 15 },
        cache_policy,
        cache_atoms_per_node: (exp::CACHE_ATOMS as u32 / nodes).max(16) as usize,
        run_len: exp::RUN_LEN,
        gate_timeout_ms: exp::GATE_TIMEOUT_MS,
        sim: SimConfig::default(),
        failures: FailurePlan::none(),
        replication: ReplicationConfig::disabled(),
    }
}

/// Nothing is ever resident: every batch pays the full metric evaluation.
struct NoneResident;

impl Residency for NoneResident {
    fn is_resident(&self, _atom: &AtomId) -> bool {
        false
    }

    fn residency_epoch(&self) -> Option<u64> {
        Some(0)
    }

    fn residency_changes_since(&self, _since: u64) -> Option<Vec<(AtomId, bool)>> {
        Some(Vec::new())
    }
}

/// Loads a JAWS₂ scheduler with `n` seeded queries (same synthetic shape as
/// the `scheduler_step` microbench), warms it up for `warmup` batches so
/// every scratch buffer and pool reaches steady-state capacity, then counts
/// heap allocations over the next `measured` dispatch rounds.
fn dispatch_microbench(n: u64, warmup: usize, measured: usize) -> DispatchMicro {
    let mut s = Jaws::new(JawsConfig::jaws2(MetricParams::paper_testbed()));
    for i in 0..n {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let q = Query {
            id: i + 1,
            user: (h % 16) as u32,
            op: QueryOp::Velocity,
            timestep: (h % 31) as u32,
            footprint: Footprint::from_pairs(
                (0..6u64).map(|d| (MortonKey((h >> 8) % 4090 + d), 100u32)),
            ),
        };
        // JAWS₂ gates by job: declare each query as a one-off job first,
        // exactly as the engine does for trace jobs.
        s.job_declared(
            &Job {
                id: i + 1,
                user: q.user,
                kind: JobKind::Batched,
                campaign: i + 1,
                queries: vec![q.clone()],
                arrival_ms: i as f64,
                think_ms: 0.0,
            },
            i as f64,
        );
        s.query_available(&q, i as f64);
    }
    let mut now = n as f64;
    for _ in 0..warmup {
        now += 1.0;
        s.next_batch(now, &NoneResident);
    }
    let mut atoms = 0u64;
    alloc_counter::reset();
    let mut batches = 0usize;
    while batches < measured {
        now += 1.0;
        let Some(batch) = s.next_batch(now, &NoneResident) else {
            break;
        };
        atoms += batch.atom_count() as u64;
        batches += 1;
    }
    let allocations = alloc_counter::count();
    assert!(batches > 0, "dispatch microbench drained during warm-up");
    DispatchMicro {
        queries_loaded: n,
        warmup_batches: warmup,
        measured_batches: batches,
        atoms_dispatched: atoms,
        allocations,
        allocations_per_batch: allocations as f64 / batches as f64,
        allocations_per_atom: allocations as f64 / atoms.max(1) as f64,
    }
}

/// Splices `tail` after `head`: tail arrivals are shifted past the last head
/// arrival plus `gap_ms`, and tail job/query/user/campaign identifiers are
/// offset so the combined trace keeps them trace-unique.
fn splice(head: Trace, tail: Trace, gap_ms: f64) -> Trace {
    let head_end = head
        .jobs
        .iter()
        .map(|j| j.arrival_ms)
        .fold(0.0f64, f64::max);
    let job_off = head.jobs.iter().map(|j| j.id).max().unwrap_or(0) + 1;
    let query_off = head
        .jobs
        .iter()
        .flat_map(|j| j.queries.iter().map(|q| q.id))
        .max()
        .unwrap_or(0)
        + 1;
    let user_off = head.jobs.iter().map(|j| j.user).max().unwrap_or(0) + 1;
    let campaign_off = head.jobs.iter().map(|j| j.campaign).max().unwrap_or(0) + 1;
    let timesteps = head.timesteps;
    let atoms_per_side = head.atoms_per_side;
    let mut jobs = head.jobs;
    for mut j in tail.jobs {
        j.id += job_off;
        j.user += user_off;
        j.campaign += campaign_off;
        j.arrival_ms += head_end + gap_ms;
        for q in &mut j.queries {
            q.id += query_off;
            q.user = j.user;
        }
        jobs.push(j);
    }
    Trace::new(timesteps, atoms_per_side, jobs)
}

/// The shape family. All traces share the smoke database geometry (the
/// family probes workload *shape*, not data scale); `jobs` scales between
/// smoke and full mode.
fn shape_family(smoke: bool) -> Vec<Scenario> {
    let jobs = if smoke { 60 } else { 240 };
    let base = GenConfig::small(exp::TRACE_SEED);
    let generate = |cfg: GenConfig| Rc::new(TraceGenerator::new(cfg).generate());

    let flash_crowd = generate(GenConfig {
        jobs,
        mean_burst_gap_ms: 50_000.0,
        mean_burst_size: 12.0,
        intra_burst_gap_ms: 40.0,
        hotspot_prob: 0.8,
        ..base
    });
    let diurnal = generate(GenConfig {
        jobs,
        mean_burst_gap_ms: 120_000.0,
        mean_burst_size: 8.0,
        intra_burst_gap_ms: 500.0,
        ..base
    });
    // Hotspot-heavy exploration phase, then a scan-heavy sweep phase with a
    // different seed: the scheduler's α and the caches must re-adapt.
    let regime_shift = Rc::new(splice(
        TraceGenerator::new(GenConfig {
            jobs: jobs / 2,
            hotspot_prob: 0.9,
            ..base
        })
        .generate(),
        TraceGenerator::new(GenConfig {
            seed: exp::TRACE_SEED ^ 0x5eed,
            jobs: jobs / 2,
            hotspot_prob: 0.1,
            long_job_frac: 0.3,
            single_timestep_frac: 0.4,
            ..base
        })
        .generate(),
        5_000.0,
    ));
    let heavy_tailed = generate(GenConfig {
        jobs: jobs / 2,
        mean_batched_queries: 40.0,
        long_job_frac: 0.3,
        oneoff_frac: 0.02,
        ..base
    });
    let zipf_skew = generate(GenConfig {
        jobs,
        hotspots: 2,
        hotspot_prob: 0.95,
        ..base
    });

    let urc = |replication| ClusterConfig {
        replication,
        ..cluster(4, exp::smoke_db(), CachePolicyKind::Urc)
    };
    let off = ReplicationConfig::disabled();
    vec![
        Scenario::new(
            "bench5_e2e",
            &Rc::new(exp::smoke_trace()),
            Driver::SingleNode,
        ),
        Scenario::cluster("flash_crowd", &flash_crowd, urc(off)),
        Scenario::cluster("diurnal", &diurnal, urc(off)),
        Scenario::cluster("regime_shift", &regime_shift, urc(off)),
        Scenario::cluster("heavy_tailed", &heavy_tailed, urc(off)),
        Scenario::cluster("zipf_skew", &zipf_skew, urc(ReplicationConfig::on())),
    ]
}

/// The failure family: crash times are fractions of the healthy makespan,
/// so the healthy row runs first.
fn failure_family(h: &mut Harness, smoke: bool) {
    let (db, trace, nodes) = if smoke {
        (exp::smoke_db(), exp::smoke_trace().speedup(20.0), 3u32)
    } else {
        (exp::paper_db(), exp::paper_trace().speedup(20.0), 4u32)
    };
    let trace = Rc::new(trace);
    let queries = trace.query_count() as u64;
    let base = cluster(nodes, db, CachePolicyKind::LruK);
    let under = |name: String, failures: FailurePlan| {
        let cfg = ClusterConfig {
            failures,
            ..base.clone()
        };
        Scenario::cluster(name, &trace, cfg)
    };

    let healthy = h.run(under("failure_healthy".into(), FailurePlan::none()));
    let healthy_ms = healthy.makespan_ms.expect("cluster rows report a makespan");
    for pct in [10u32, 50, 90] {
        let at_ms = healthy_ms * pct as f64 / 100.0;
        let plan =
            FailurePlan::new(exp::TRACE_SEED).crash_with_survivor(at_ms, CRASHED_NODE, SURVIVOR);
        let row = h.run(Scenario {
            traced: pct == 50,
            ..under(format!("failure_crash{pct}"), plan)
        });
        assert_eq!(
            row.queries_completed, queries,
            "crash@{pct}% dropped queries"
        );
    }
    for factor in [2u32, 8] {
        let plan = FailurePlan::new(exp::TRACE_SEED).slowdown_at(0.0, nodes - 1, factor as f64);
        h.run(under(format!("failure_straggle{factor}x"), plan));
    }
}

/// The replication knobs the skew family runs with: a generous window so
/// the Zipf head stays hot for the whole replay, a low promotion threshold
/// so smoke-sized traces still promote, single replicas, and a hot-atom
/// budget far above what the trace can fill.
fn replication_on() -> ReplicationConfig {
    ReplicationConfig {
        enabled: true,
        window_ms: 600_000.0,
        promote_accesses: 6,
        demote_accesses: 1,
        max_replicas_per_atom: 1,
        max_hot_atoms: 64,
    }
}

/// A Zipf-skewed batched workload: footprint keys are drawn from a Zipf
/// distribution over Morton rank (exponent `s`), so rank 0 — the first key
/// of node 0's slab — absorbs the head of the distribution no matter how
/// many nodes the grid is split across. Seeded ChaCha8, fully deterministic.
fn zipf_trace(db: DbConfig, jobs: u64, queries_per_job: u64, s: f64) -> Trace {
    let per_ts = db.atoms_per_timestep();
    let timesteps = db.timesteps;
    // Inverse-CDF table for the Zipf ranks.
    let weights: Vec<f64> = (0..per_ts)
        .map(|r| 1.0 / ((r + 1) as f64).powf(s))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(exp::TRACE_SEED);
    let draw = |rng: &mut ChaCha8Rng| -> u64 {
        let u: f64 = rng.gen();
        cdf.partition_point(|&c| c < u) as u64
    };
    let mut qid = 0u64;
    let jobs = (0..jobs)
        .map(|j| Job {
            id: j + 1,
            user: (j % 16) as u32,
            kind: JobKind::Batched,
            campaign: 1 + j % 4,
            queries: (0..queries_per_job)
                .map(|_| {
                    qid += 1;
                    let atoms = 1 + rng.gen_range(0..2u32);
                    Query {
                        id: qid,
                        user: (j % 16) as u32,
                        op: QueryOp::Velocity,
                        timestep: rng.gen_range(0..timesteps),
                        footprint: Footprint::from_pairs(
                            (0..atoms).map(|_| (MortonKey(draw(&mut rng)), 40u32)),
                        ),
                    }
                })
                .collect(),
            arrival_ms: j as f64 * 25.0,
            think_ms: 0.0,
        })
        .collect();
    Trace::new(timesteps, db.atoms_per_side(), jobs)
}

fn skew_name(nodes: u32, replicated: bool) -> String {
    format!(
        "skew_{nodes}n_{}",
        if replicated { "repl" } else { "static" }
    )
}

/// The skew family, static slabs against hot-atom replication per width.
fn skew_family(h: &mut Harness, smoke: bool) {
    let (db, jobs, per_job) = if smoke {
        (exp::smoke_db(), 24, 8)
    } else {
        (exp::paper_db(), 120, 16)
    };
    let trace = Rc::new(zipf_trace(db, jobs, per_job, ZIPF_S));
    let queries = trace.query_count() as u64;
    for nodes in [1u32, 2, 4, 8] {
        for replicated in [false, true] {
            let replication = if replicated {
                replication_on()
            } else {
                ReplicationConfig::disabled()
            };
            let cfg = ClusterConfig {
                replication,
                ..cluster(nodes, db, CachePolicyKind::LruK)
            };
            let row = h.run(Scenario {
                traced: nodes == 4 && replicated,
                ..Scenario::cluster(skew_name(nodes, replicated), &trace, cfg)
            });
            assert_eq!(
                row.queries_completed, queries,
                "{nodes}-node replicated={replicated} cell dropped queries"
            );
        }
    }

    // The headline claim: on clusters wide enough for the skew to hurt,
    // replication must strictly reduce the busy-time imbalance.
    for nodes in [4u32, 8] {
        let cell = |replicated: bool| {
            h.rows
                .iter()
                .find(|r| r.name == skew_name(nodes, replicated))
                .expect("matrix cell present")
        };
        let (off, on) = (cell(false), cell(true));
        let imbalance = |r: &ScenarioRow| r.imbalance.expect("cluster rows report imbalance");
        assert!(
            imbalance(on) < imbalance(off),
            "{nodes} nodes: replication did not reduce imbalance \
             ({:.3} vs static {:.3})",
            imbalance(on),
            imbalance(off)
        );
        assert!(on.promotions > Some(0), "{nodes} nodes: nothing promoted");
        assert!(
            on.replica_routed > Some(0),
            "{nodes} nodes: nothing diverted"
        );
    }
}

/// Measured run (serial, counters on) plus the determinism probes: a second
/// serial run and one run per remaining worker count, all byte-compared
/// after masking. With `record`, the probe runs also record JSONL traces,
/// which must match too; the serial one is returned with the row.
fn run_scenario(s: &Scenario, record: bool) -> (ScenarioRow, Option<String>) {
    let (measured, wall_ms, allocations, pushes, pops) = {
        let _guard = jaws_par::override_threads(WORKER_COUNTS[0]);
        reset_queue_ops();
        alloc_counter::reset();
        let start = Instant::now();
        let run = s.run_once(false);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let allocations = alloc_counter::count();
        let (pushes, pops) = queue_ops();
        (run, wall_ms, allocations, pushes, pops)
    };

    let again = {
        let _guard = jaws_par::override_threads(WORKER_COUNTS[0]);
        s.run_once(record)
    };
    let double_run_identical = again.masked == measured.masked;
    assert!(
        double_run_identical,
        "{}: second run produced different masked bytes",
        s.name
    );

    let mut workers_identical = true;
    for &w in &WORKER_COUNTS[1..] {
        let _guard = jaws_par::override_threads(w);
        let run = s.run_once(record);
        let identical = run.masked == measured.masked && run.jsonl == again.jsonl;
        workers_identical &= identical;
        assert!(
            identical,
            "{}: masked report or JSONL trace differs at {w} workers",
            s.name
        );
    }

    let queries = measured.queries;
    let q = queries.max(1) as f64;
    let (kind, nodes) = match &s.driver {
        Driver::SingleNode => ("single-node", 1),
        Driver::Cluster(cfg) => ("cluster", cfg.nodes),
    };
    let c = measured.cluster.as_ref();
    let row = ScenarioRow {
        name: s.name.clone(),
        kind,
        nodes,
        jobs: s.trace.jobs.len(),
        queries_completed: queries,
        wall_ms,
        throughput_qps: queries as f64 / (wall_ms / 1e3).max(1e-9),
        allocations,
        allocations_per_query: allocations as f64 / q,
        queue_pushes: pushes,
        queue_pops: pops,
        queue_ops_per_query: (pushes + pops) as f64 / q,
        double_run_identical,
        workers_identical,
        makespan_ms: c.map(|r| r.aggregate.makespan_ms),
        mean_response_ms: c.map(|r| r.aggregate.mean_response_ms),
        imbalance: c.map(ClusterReport::imbalance),
        redispatched_parts: c.map(|r| r.degraded.as_ref().map_or(0, |d| d.redispatched_parts)),
        promotions: c.map(|r| r.replication.as_ref().map_or(0, |s| s.promotions)),
        demotions: c.map(|r| r.replication.as_ref().map_or(0, |s| s.demotions)),
        replica_routed: c.map(|r| r.replication.as_ref().map_or(0, |s| s.replica_routed)),
    };
    (row, again.jsonl)
}

/// Runs scenarios one at a time, prints and keeps their rows, and writes
/// the JSONL traces of traced rows when `--trace-out` asked for them.
struct Harness {
    rows: Vec<ScenarioRow>,
    trace_dir: Option<String>,
}

impl Harness {
    fn run(&mut self, s: Scenario) -> &ScenarioRow {
        let (row, jsonl) = run_scenario(&s, s.traced && self.trace_dir.is_some());
        if let (Some(dir), Some(jsonl)) = (&self.trace_dir, jsonl) {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
            let path = format!("{dir}/{}.jsonl", s.name);
            std::fs::write(&path, jsonl).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("# wrote observability trace of {} to {path}", s.name);
        }
        let opt = |v: Option<f64>, scale: f64, prec: usize| {
            v.map_or("-".to_string(), |x| format!("{:.prec$}", x / scale))
        };
        let count = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
        println!(
            "{:<20} {:>5} {:>5} {:>7} {:>10.2} {:>9.1} {:>7} {:>7} {:>10} {:>9} {:>6} {:>6} {:>5} \
             {:>5} {:>8} {:>5} {:>6}",
            row.name,
            row.nodes,
            row.jobs,
            row.queries_completed,
            row.wall_ms,
            row.allocations_per_query,
            row.queue_pushes,
            row.queue_pops,
            opt(row.makespan_ms, 1e3, 1),
            opt(row.mean_response_ms, 1e3, 1),
            opt(row.imbalance, 1.0, 3),
            count(row.redispatched_parts),
            count(row.promotions),
            count(row.demotions),
            count(row.replica_routed),
            if row.double_run_identical {
                "ok"
            } else {
                "FAIL"
            },
            if row.workers_identical { "ok" } else { "FAIL" },
        );
        self.rows.push(row);
        self.rows.last().expect("a row was just pushed")
    }
}

/// Compares this report against a committed baseline of the same mode:
/// any scenario whose allocations/query or queue-ops/query exceeds the
/// baseline by more than [`GUARD_FACTOR`] is a regression. Returns the
/// violation messages (empty = pass).
fn guard_violations(report: &MatrixReport, baseline_json: &str) -> Vec<String> {
    let base: BaselineReport =
        serde_json::from_str(baseline_json).expect("guard baseline parses as a matrix report");
    assert_eq!(
        base.smoke, report.smoke,
        "guard baseline was recorded in a different mode (smoke vs full)"
    );
    let mut violations = Vec::new();
    let (got, want) = (
        report.dispatch_path.allocations_per_batch,
        base.dispatch_path.allocations_per_batch,
    );
    // Per-dispatch cost guard. The steady-state dispatch path allocates
    // (near) nothing, so the floor keeps "0.02 vs 0.01 per batch" noise from
    // tripping the relative check.
    if got > (want * GUARD_FACTOR).max(1.0) {
        violations.push(format!(
            "FAIL: dispatch_path: allocations_per_batch regressed {got:.2} vs baseline \
             {want:.2} (limit {:.2})",
            (want * GUARD_FACTOR).max(1.0)
        ));
    }
    for row in &report.scenarios {
        let Some(b) = base.scenarios.iter().find(|r| r.name == row.name) else {
            // New scenarios have no baseline yet; they are reported, not
            // guarded, until the baseline is regenerated.
            violations.push(format!(
                "note: scenario `{}` absent from baseline (not guarded)",
                row.name
            ));
            continue;
        };
        for (column, got, want) in [
            (
                "allocations_per_query",
                row.allocations_per_query,
                b.allocations_per_query,
            ),
            (
                "queue_ops_per_query",
                row.queue_ops_per_query,
                b.queue_ops_per_query,
            ),
        ] {
            if got > want * GUARD_FACTOR {
                violations.push(format!(
                    "FAIL: {}: {column} regressed {got:.1} vs baseline {want:.1} \
                     (limit {:.1})",
                    row.name,
                    want * GUARD_FACTOR
                ));
            }
        }
    }
    violations
}

fn main() {
    let args = cli::args(&[cli::SMOKE, cli::OUT, GUARD, TRACE_OUT], &[]);
    let smoke = args.smoke();

    let (micro_n, micro_warm, micro_measured) = if smoke {
        (2_000, 10, 100)
    } else {
        (4_000, 50, 500)
    };
    let dispatch_path = dispatch_microbench(micro_n, micro_warm, micro_measured);
    println!(
        "\nDispatch path — steady-state `next_batch` over {} loaded queries",
        dispatch_path.queries_loaded
    );
    exp::rule();
    println!(
        "{} batches after {} warm-up: {} atoms dispatched, {} allocations \
         ({:.2}/batch, {:.3}/atom)",
        dispatch_path.measured_batches,
        dispatch_path.warmup_batches,
        dispatch_path.atoms_dispatched,
        dispatch_path.allocations,
        dispatch_path.allocations_per_batch,
        dispatch_path.allocations_per_atom,
    );

    println!(
        "\nScenario matrix — shape, failure and skew families{}",
        if smoke { " [--smoke]" } else { "" }
    );
    exp::rule();
    println!(
        "{:<20} {:>5} {:>5} {:>7} {:>10} {:>9} {:>7} {:>7} {:>10} {:>9} {:>6} {:>6} {:>5} \
         {:>5} {:>8} {:>5} {:>6}",
        "scenario",
        "nodes",
        "jobs",
        "queries",
        "wall_ms",
        "allocs/q",
        "q push",
        "q pop",
        "makespan_s",
        "mean_rt_s",
        "imbal",
        "redisp",
        "promo",
        "demo",
        "diverted",
        "2-run",
        "1/2/8w"
    );
    exp::rule();

    let mut harness = Harness {
        rows: Vec::new(),
        trace_dir: args.path(TRACE_OUT.name).map(str::to_string),
    };
    for s in shape_family(smoke) {
        harness.run(s);
    }
    failure_family(&mut harness, smoke);
    skew_family(&mut harness, smoke);
    exp::rule();
    println!(
        "every row is asserted masked-byte-identical across a re-run and across \
         {WORKER_COUNTS:?} workers; allocations and queue ops are counted on the serial run."
    );

    let report = MatrixReport {
        bench: "scenario_matrix",
        smoke,
        threads_reported: jaws_par::thread_count(),
        available_parallelism: jaws_par::hardware_parallelism(),
        worker_counts: WORKER_COUNTS.to_vec(),
        dispatch_path,
        scenarios: harness.rows,
    };
    exp::write_report(&args.out_path("BENCH_10.json"), &report);

    if let Some(path) = args.path(GUARD.name) {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read guard baseline {path}: {e}"));
        let violations = guard_violations(&report, &baseline);
        for v in &violations {
            eprintln!("# guard: {v}");
        }
        if violations.iter().any(|v| v.starts_with("FAIL")) {
            eprintln!("# guard: cost regression vs {path} (limit {GUARD_FACTOR}x)");
            std::process::exit(1);
        }
        eprintln!("# guard: within {GUARD_FACTOR}x of {path}");
    }
}
