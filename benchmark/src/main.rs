//! The repository's benchmark: one command that replays a named workload
//! through the workspace crates' public APIs, checks every replay, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! measured from outside by decorators (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_replay --seed 20090720 --seconds 45 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it
//! repeat the metrics as a table and state which percentile
//! `sim_response_tail_ms` is. `benchmark/README.md` describes the
//! workloads, the metrics and the noise findings.

mod alloc;
mod calib;
mod probe;
mod workload;

use jaws_obs::{ObsSink, Recorder};
use jaws_workload::Trace;
use probe::{now, CountingRecorder, EVENT_KINDS};
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use workload::{Outcome, Probes, Workload};

#[global_allocator]
static HEAP: alloc::Tracking = alloc::Tracking;

const USAGE: &str = "usage: jaws-benchmark --workload <paper_replay|synthetic_payload> \
                     [--seed <u64>] [--gen-seed <u64>] [--seconds <1..=600>] [--trace <0|1>]";

/// Set-ups (trace generation + system build) are timed in slots, one
/// before the warm-up pass and one before every timed pass, so that the
/// samples spread over the whole run. A slot takes at least
/// [`SETUP_SLOT_MIN_SAMPLES`], more until [`SETUP_SLOT_SECONDS`] have
/// passed, at most [`SETUP_SLOT_MAX_SAMPLES`]. `setup_s` is the median of
/// every sample of the run, each at the reference host speed.
const SETUP_SLOT_MIN_SAMPLES: usize = 2;
const SETUP_SLOT_SECONDS: f64 = 0.1;
const SETUP_SLOT_MAX_SAMPLES: usize = 50;

/// Fewest timed passes in an end-to-end run, however short `--seconds` is.
const MIN_TIMED_PASSES: usize = 3;

/// Untraced passes (and single-worker passes, where jaws-par has work) in a
/// traced run; overheads and speed-ups are taken against their median.
const TRACED_BASELINE_PASSES: usize = 2;

/// Virtual-twin passes timed on `synthetic_payload` in a traced run.
const TWIN_PASSES: usize = 5;

/// A response-time percentile is reported only with at least this many
/// samples beyond it.
const TAIL_MIN_BEYOND: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    gen_seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parses the command line. Every flag is known or the run is refused.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = jaws_bench::exp::TRACE_SEED;
    let mut gen_seed = jaws_bench::exp::TRACE_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let value = value()?;
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" | "--gen-seed" => {
                let value = value()?;
                let v = value
                    .parse()
                    .map_err(|_| format!("{flag} needs an unsigned integer, got `{value}`"))?;
                if flag == "--seed" {
                    seed = v;
                } else {
                    gen_seed = v;
                }
            }
            "--seconds" => {
                let value = value()?;
                let s: u64 = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| {
                        format!("--seconds needs a whole number 1..=600, got `{value}`")
                    })?;
                seconds = s as f64;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, got `{v}`")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        gen_seed,
        seconds,
        trace,
    })
}

/// One named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of `v` (mean of the middle two for an even count).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of ascending `sorted` (the convention of
/// `jaws_sim::Percentiles`), with the number of samples beyond it.
fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    let rank = ((q * sorted.len() as f64) - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// `a / b`, or 0 when there was nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One benchmark run: its inputs, the replays made, their checks, and the
/// failures.
struct Run {
    workload: Workload,
    seed: u64,
    gen_seed: u64,
    seconds: f64,
    /// The generated input, replaced by every set-up sample.
    trace: Option<Trace>,
    /// Queries per replay.
    queries: f64,
    /// Queries submitted across every replay of the run.
    attempted: u64,
    /// Queries that did not complete exactly once, plus every query of a
    /// replay whose masked report differed from the reference.
    failed: u64,
    /// Masked report of the first replay; every later replay, decorated,
    /// recorded, single-worker or virtual twin, must match it byte for byte.
    reference: Option<String>,
    /// The trace-generation part of every set-up sample, ms.
    generate_ms: Vec<f64>,
}

impl Run {
    fn new(workload: Workload, seed: u64, gen_seed: u64, seconds: f64) -> Run {
        Run {
            workload,
            seed,
            gen_seed,
            seconds,
            trace: None,
            queries: 0.0,
            attempted: 0,
            failed: 0,
            reference: None,
            generate_ms: Vec::new(),
        }
    }

    /// One slot of timed full set-ups: generating the trace and building
    /// the system. Keeps the last trace generated and returns the set-up
    /// times, s.
    fn setup_slot(&mut self) -> Vec<f64> {
        let begin = now();
        let mut samples = Vec::new();
        while samples.len() < SETUP_SLOT_MIN_SAMPLES
            || (samples.len() < SETUP_SLOT_MAX_SAMPLES
                && begin.elapsed().as_secs_f64() < SETUP_SLOT_SECONDS)
        {
            // Free the previous sample's trace first, so `peak_heap_mb`
            // never sees two inputs at once.
            self.trace = None;
            let start = now();
            let trace = self.workload.trace(self.gen_seed, self.seed);
            let generated = start.elapsed().as_secs_f64();
            drop(self.workload.build(None, false, None));
            samples.push(start.elapsed().as_secs_f64());
            self.generate_ms.push(generated * 1e3);
            self.queries = trace.query_count() as f64;
            self.trace = Some(trace);
        }
        samples
    }

    fn trace(&self) -> &Trace {
        self.trace.as_ref().expect("set up before replaying")
    }

    /// Builds a fresh system, replays the trace and checks the outcome.
    fn replay(
        &mut self,
        probes: Option<&Probes>,
        virtual_twin: bool,
        sink: Option<&ObsSink>,
        what: &str,
    ) -> Outcome {
        let system = self.workload.build(probes, virtual_twin, sink.cloned());
        let out = workload::replay(system, self.trace());
        self.check(&out, what);
        out
    }

    /// The correctness gate: every query completes exactly once, every job
    /// completes, the run is not truncated, and the masked report equals the
    /// reference.
    fn check(&mut self, out: &Outcome, what: &str) {
        let trace = self.trace.as_ref().expect("set up before replaying");
        let n = trace.query_count() as u64;
        self.attempted += n;
        let mut expected: Vec<_> = trace
            .jobs
            .iter()
            .flat_map(|j| j.queries.iter().map(|q| q.id))
            .collect();
        expected.sort_unstable();
        let mut logged: Vec<_> = out.response_log.iter().map(|&(q, _)| q).collect();
        logged.sort_unstable();
        let mut once = 0u64;
        let mut j = 0;
        for id in &expected {
            while j < logged.len() && logged[j] < *id {
                j += 1;
            }
            let first = j;
            while j < logged.len() && logged[j] == *id {
                j += 1;
            }
            if j - first == 1 {
                once += 1;
            }
        }
        let mut failed = n - once;
        let r = &out.report;
        let mut problems = Vec::new();
        if failed > 0 || logged.len() as u64 != n {
            problems.push(format!(
                "{failed} queries not logged exactly once ({} log entries)",
                logged.len()
            ));
        }
        if r.queries_completed != n {
            problems.push(format!("{} of {n} queries completed", r.queries_completed));
        }
        if r.jobs_completed != trace.jobs.len() as u64 {
            problems.push(format!(
                "{} of {} jobs completed",
                r.jobs_completed,
                trace.jobs.len()
            ));
        }
        if r.truncated {
            problems.push("run truncated".to_string());
        }
        match &self.reference {
            None => self.reference = Some(out.masked.clone()),
            Some(reference) if *reference != out.masked => {
                problems.push("masked report differs from the first replay's".to_string());
                failed = n;
            }
            Some(_) => {}
        }
        if !problems.is_empty() {
            failed = failed.max(1);
            eprintln!(
                "jaws-benchmark: {what} replay failed: {}",
                problems.join("; ")
            );
        }
        self.failed += failed;
    }

    /// `--trace 0`: the end-to-end metrics, tracing off.
    ///
    /// Host times are reported at the reference host speed: a calibration
    /// sample is timed before the first set-up slot and after every pass,
    /// and each slot's set-ups and the pass after it are scaled by
    /// [`calib::REFERENCE_S`] over the mean of the two samples around them.
    fn end_to_end(&mut self) -> Vec<Metric> {
        let mut calibrator = calib::Calibrator::new();
        alloc::reset_peak();
        let mut before = calibrator.sample();
        let mut calibration_ms = vec![before * 1e3];
        let mut setup_s = Vec::new();
        let mut scale = |setups: Vec<f64>, before: f64, after: f64| {
            let s = calib::REFERENCE_S / ((before + after) / 2.0);
            setup_s.extend(setups.into_iter().map(|t| t * s));
            calibration_ms.push(after * 1e3);
            s
        };

        let setups = self.setup_slot();
        let warm = self.replay(None, false, None, "warm-up");
        if self.workload == Workload::SyntheticPayload {
            // Payload independence: synthesized voxels must not change a
            // single scheduling decision.
            self.replay(None, true, None, "virtual twin");
        }
        let after = calibrator.sample();
        scale(setups, before, after);
        before = after;

        // Timed passes, each after a set-up slot, while the next one is
        // expected, at the last one's pace, to end within `--seconds`.
        let start = now();
        let mut qps = Vec::new();
        let mut raw_qps = Vec::new();
        let mut last = 0.0;
        while qps.len() < MIN_TIMED_PASSES || start.elapsed().as_secs_f64() + last <= self.seconds {
            let begin = now();
            let setups = self.setup_slot();
            let out = self.replay(None, false, None, "timed");
            let after = calibrator.sample();
            let s = scale(setups, before, after);
            before = after;
            raw_qps.push(self.queries / out.wall_s);
            qps.push(self.queries / (out.wall_s * s));
            last = begin.elapsed().as_secs_f64();
        }
        let peak = alloc::peak_bytes();

        let sorted = warm.sorted_responses();
        let (p50, _) = percentile(&sorted, 0.5);
        let (mut tail_label, (mut tail, mut beyond)) = ("p99", percentile(&sorted, 0.99));
        if beyond < TAIL_MIN_BEYOND {
            (tail_label, (tail, beyond)) = ("p95", percentile(&sorted, 0.95));
        }
        println!(
            "# sim_response_tail_ms is {tail_label} of n = {} responses ({beyond} beyond it); \
             {} set-ups, {:.3}-{:.3} ms at the reference speed; par.threads = {}",
            sorted.len(),
            setup_s.len(),
            setup_s.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            setup_s.iter().copied().fold(0.0, f64::max) * 1e3,
            jaws_par::thread_count(),
        );
        println!(
            "# per pass: replay_qps {qps:.1?}; as measured {raw_qps:.1?} (median {:.1}); \
             calibration samples {calibration_ms:.1?} ms against {:.1} ms",
            median(&raw_qps),
            calib::REFERENCE_S * 1e3,
        );
        vec![
            metric("replay_qps", median(&qps), "1/s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_heap_mb", peak as f64 / 1e6, "MB"),
            metric("sim_throughput_qps", warm.report.throughput_qps, "1/s"),
            metric("sim_response_p50_ms", p50, "ms"),
            metric("sim_response_tail_ms", tail, "ms"),
        ]
    }

    /// `--trace 1`: the per-layer metrics.
    fn traced(&mut self) -> Vec<Metric> {
        let w = self.workload;
        self.setup_slot();
        let n = self.queries;
        let warm = self.replay(None, false, None, "warm-up");

        // Untraced baseline, each pass after a set-up slot and, where
        // jaws-par has payloads to synthesize, before a single-worker pass.
        let par_used = w == Workload::SyntheticPayload;
        let mut plain = Vec::new();
        let mut one_worker = Vec::new();
        let mut first_plain = None;
        for _ in 0..TRACED_BASELINE_PASSES {
            self.setup_slot();
            let out = self.replay(None, false, None, "untraced");
            plain.push(out.wall_s);
            first_plain.get_or_insert(out);
            if par_used {
                let _one = jaws_par::override_threads(1);
                one_worker.push(self.replay(None, false, None, "single-worker").wall_s);
            }
        }
        let plain_ms = median(&plain) * 1e3;
        let first_plain = first_plain.expect("at least one untraced pass");
        let speedup = if par_used {
            median(&one_worker) / median(&plain)
        } else {
            0.0
        };

        let mut m = vec![
            metric("workload.generate_ms", median(&self.generate_ms), "ms"),
            metric("workload.jobs", self.trace().jobs.len() as f64, "count"),
            metric("workload.queries", n, "count"),
            metric(
                "workload.positions",
                self.trace().position_count() as f64,
                "count",
            ),
        ];

        // Scheduler and cache, timed by the decorators.
        let probes = Probes::default();
        let traced_ms = self.replay(Some(&probes), false, None, "decorated").wall_s * 1e3;
        let sched_ms = probes.scheduler.busy_ms();
        let cache_ms = probes.cache.busy_ms();
        let s = &probes.scheduler;
        let c = &probes.cache;
        let polls = s.next_batch.calls() as f64;
        let empty = s.next_batch_empty.load(Relaxed) as f64;
        let victims = c.victims.load(Relaxed) as f64;
        let ranks = c.oracle_ranks.load(Relaxed) as f64;
        let stats = &warm.report.scheduler_stats;
        let batches = stats.batches as f64;
        let hits = warm.report.cache.hits as f64;
        let misses = warm.report.cache.misses as f64;
        m.extend([
            metric("scheduler.next_batch.calls", polls, "count"),
            metric("scheduler.next_batch.busy_ms", s.next_batch.busy_ms(), "ms"),
            metric(
                "scheduler.next_batch.empty_ratio",
                ratio(empty, polls),
                "ratio",
            ),
            metric(
                "scheduler.job_declared.busy_ms",
                s.job_declared.busy_ms(),
                "ms",
            ),
            metric(
                "scheduler.query_available.busy_ms",
                s.query_available.busy_ms(),
                "ms",
            ),
            metric(
                "scheduler.on_query_complete.busy_ms",
                s.on_query_complete.busy_ms(),
                "ms",
            ),
            metric(
                "scheduler.utility_snapshot.calls",
                s.utility_snapshot.calls() as f64,
                "count",
            ),
            metric(
                "scheduler.utility_snapshot.busy_ms",
                s.utility_snapshot.busy_ms(),
                "ms",
            ),
            metric("scheduler.busy_ms", sched_ms, "ms"),
            metric(
                "scheduler.subqueries_per_batch",
                ratio(stats.subqueries as f64, batches),
                "count",
            ),
            metric(
                "scheduler.atoms_per_batch",
                ratio(stats.atom_groups as f64, batches),
                "count",
            ),
            metric(
                "scheduler.forced_releases",
                stats.forced_releases as f64,
                "count",
            ),
            metric(
                "cache.choose_victim.busy_ms",
                c.choose_victim.busy_ms(),
                "ms",
            ),
            metric(
                "cache.oracle_ranks_per_eviction",
                ratio(ranks, victims),
                "count",
            ),
            metric("cache.maintenance.busy_ms", c.maintenance.busy_ms(), "ms"),
            metric("cache.busy_ms", cache_ms, "ms"),
            metric("cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
            metric(
                "cache.evictions",
                warm.report.cache.evictions as f64,
                "count",
            ),
        ]);

        // turbdb: simulated I/O, and payload synthesis against the virtual
        // twin's wall time.
        let disk = &warm.report.disk;
        let reads = disk.reads as f64;
        let materializations = warm.materializations as f64;
        let synthesis_ms = if w == Workload::SyntheticPayload {
            let twin: Vec<f64> = (0..TWIN_PASSES)
                .map(|_| self.replay(None, true, None, "virtual twin").wall_s)
                .collect();
            plain_ms - median(&twin) * 1e3
        } else {
            0.0
        };
        m.extend([
            metric("turbdb.disk_reads", reads, "count"),
            metric(
                "turbdb.seek_ratio",
                ratio(disk.seeks as f64, reads),
                "ratio",
            ),
            metric("turbdb.sim_io_ms", disk.io_ms, "ms"),
            metric("turbdb.materializations", materializations, "count"),
            metric("turbdb.synthesis_ms", synthesis_ms, "ms"),
            metric(
                "turbdb.synthesis_us_per_atom",
                ratio(synthesis_ms * 1e3, materializations),
                "us",
            ),
        ]);

        // sim: the engine's own share of the traced wall time.
        m.extend([
            metric("trace.wall_ms", traced_ms, "ms"),
            metric(
                "trace.overhead_pct",
                (traced_ms / plain_ms - 1.0) * 100.0,
                "%",
            ),
            metric("sim.self_ms", traced_ms - sched_ms - cache_ms, "ms"),
            metric(
                "sim.queue_ops_per_query",
                first_plain.queue_ops as f64 / n,
                "count",
            ),
            metric(
                "sim.allocs_per_query",
                first_plain.allocations as f64 / n,
                "count",
            ),
        ]);

        // par: worker counts and the single-worker slow-down ratio.
        m.extend([
            metric("par.threads", jaws_par::thread_count() as f64, "count"),
            metric(
                "par.hardware_parallelism",
                jaws_par::hardware_parallelism() as f64,
                "count",
            ),
            metric("par.synthesis_speedup", speedup, "ratio"),
        ]);

        // obs: a counting recorder wired through the whole system.
        let recorder = Arc::new(Mutex::new(CountingRecorder::default()));
        let sink = ObsSink::new(Arc::clone(&recorder) as Arc<Mutex<dyn Recorder>>);
        let recorded = self.replay(None, false, Some(&sink), "recorded");
        drop(sink);
        let counts = Arc::into_inner(recorder)
            .expect("every sink clone is dropped with its system")
            .into_inner()
            .expect("the recorder never panics while holding its lock");
        m.push(metric(
            "obs.events_per_query",
            counts.total() as f64 / n,
            "count",
        ));
        for kind in EVENT_KINDS {
            let count = counts.by_kind.get(kind).copied().unwrap_or(0);
            m.push(metric(format!("obs.events.{kind}"), count as f64, "count"));
        }
        m.push(metric(
            "obs.record_overhead_pct",
            (recorded.wall_s * 1e3 / plain_ms - 1.0) * 100.0,
            "%",
        ));
        m
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jaws-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::new(args.workload, args.seed, args.gen_seed, args.seconds);
    let metrics = if args.trace {
        run.traced()
    } else {
        run.end_to_end()
    };
    let mut correct = run.failed == 0;
    for m in &metrics {
        println!("# {:<40} {:>18.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("jaws-benchmark: metric {} is not finite", m.name);
            correct = false;
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
