//! Shared experiment harness for the JAWS paper reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of §VI; this
//! library holds the common configuration so every experiment runs against
//! the same database geometry, cost model and calibrated trace — mirroring
//! the paper's single experimental setup (800 GB sample, 31 timesteps,
//! 4096 atoms/timestep, 2 GB external cache, 50k-query trace of ~1k jobs).
//! Every binary reads its flags through the strict [`cli`] parser.

pub mod cli;

pub mod alloc_counter {
    //! A counting global allocator for the allocation-discipline benches.
    //!
    //! Wraps [`std::alloc::System`] and counts every `alloc`/`alloc_zeroed`/
    //! `realloc` call in a relaxed [`AtomicU64`]. Bench binaries register it
    //! with `#[global_allocator]` and report allocations-per-query next to
    //! wall-clock, turning "the hot path is alloc-free" from a claim into a
    //! measured column. Frees are not counted: the discipline under test is
    //! *acquiring* memory per event, and every counted acquisition has at
    //! most one matching free.
    //!
    //! The counter is process-global, so concurrent measurements interleave;
    //! the bench binaries are single-measurement-at-a-time by construction.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that counts allocation calls.
    ///
    /// Register in a binary with:
    /// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`
    pub struct CountingAlloc;

    // SAFETY: pure pass-through to `System`; the only addition is a relaxed
    // counter increment, which cannot violate allocator invariants.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    /// Allocation calls counted since process start (or the last [`reset`]).
    pub fn count() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Zeroes the counter. Call immediately before the measured region.
    pub fn reset() {
        ALLOCATIONS.store(0, Ordering::Relaxed);
    }
}

pub mod exp {
    use jaws_sim::sweep::RunSpec;
    use jaws_sim::{CachePolicyKind, SchedulerKind};
    use jaws_turbdb::{CostModel, DbConfig};
    use jaws_workload::{GenConfig, Trace, TraceGenerator};

    /// Trace seed shared by all experiments (deterministic reproduction).
    pub const TRACE_SEED: u64 = 2009_0720; // the paper's week-of-July-20th trace

    /// The paper's 2 GB cache in 8 MB atoms.
    pub const CACHE_ATOMS: usize = 256;

    /// Run length `r` for α adaptation and SLRU promotion.
    pub const RUN_LEN: usize = 50;

    /// Gate timeout for JAWS₂'s starvation valve, ms.
    pub const GATE_TIMEOUT_MS: f64 = 180_000.0;

    /// The experimental database geometry (§VI): 31 timesteps of the 1024³
    /// grid — 4096 atoms per timestep.
    pub fn paper_db() -> DbConfig {
        DbConfig::paper_sample()
    }

    /// The cost model (T_b, T_m, seek) used everywhere.
    pub fn paper_cost() -> CostModel {
        CostModel::paper_testbed()
    }

    /// The evaluation trace: ~1k jobs, tens of thousands of queries,
    /// calibrated to §VI-A.
    pub fn paper_trace() -> Trace {
        TraceGenerator::new(GenConfig::paper_like(TRACE_SEED)).generate()
    }

    /// A smaller trace for quick smoke runs (`--quick` flag on binaries).
    pub fn quick_trace() -> Trace {
        let cfg = GenConfig {
            jobs: 150,
            ..GenConfig::paper_like(TRACE_SEED)
        };
        TraceGenerator::new(cfg).generate()
    }

    /// A fully specified run at the paper's defaults.
    pub fn base_spec(label: &str, scheduler: SchedulerKind, policy: CachePolicyKind) -> RunSpec {
        RunSpec {
            label: label.to_string(),
            db: paper_db(),
            cost: paper_cost(),
            scheduler,
            cache_policy: policy,
            cache_atoms: CACHE_ATOMS,
            run_len: RUN_LEN,
            gate_timeout_ms: GATE_TIMEOUT_MS,
            speedup: 1.0,
        }
    }

    /// The tiny database geometry used by `--smoke` runs (64 atoms per
    /// timestep — still divisible across 1/2/4 nodes).
    pub fn smoke_db() -> DbConfig {
        DbConfig {
            grid_side: 32,
            atom_side: 8,
            ghost: 2,
            timesteps: 8,
            dt: 0.002,
            seed: TRACE_SEED,
        }
    }

    /// The tiny trace used by `--smoke` runs.
    pub fn smoke_trace() -> Trace {
        TraceGenerator::new(GenConfig::small(TRACE_SEED)).generate()
    }

    /// The quick trace if `quick` (the `--quick` flag), else the paper
    /// trace; announces which.
    pub fn select_trace(quick: bool) -> Trace {
        let t = if quick { quick_trace() } else { paper_trace() };
        eprintln!(
            "# trace: {} jobs, {} queries, {} positions{}",
            t.jobs.len(),
            t.query_count(),
            t.position_count(),
            if quick { " [--quick]" } else { "" }
        );
        t
    }

    /// Writes `report` as pretty JSON to `path`, creating its directory.
    pub fn write_report(path: &str, report: &impl serde::Serialize) {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
        }
        let json = serde_json::to_string_pretty(report).expect("bench report serializes");
        std::fs::write(path, json + "\n").unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("# wrote {path}");
    }

    /// Prints a rule line for experiment tables.
    pub fn rule() {
        println!("{}", "-".repeat(100));
    }

    /// Same masking as the determinism suite: the only report fields measured
    /// in host wall-clock time are zeroed before byte comparison, so two runs
    /// of the same seeded scenario can be compared for bit-identity.
    pub fn mask_wallclock_fields(json: &str) -> String {
        let mut out = json.to_string();
        for key in ["policy_overhead_ns", "cache_overhead_ms_per_query"] {
            let pat = format!("\"{key}\":");
            assert!(out.contains(&pat), "field {key} absent from report JSON");
            let mut masked = String::with_capacity(out.len());
            let mut rest = out.as_str();
            while let Some(i) = rest.find(&pat) {
                let start = i + pat.len();
                let end = start
                    + rest[start..]
                        .find([',', '}'])
                        .expect("number is followed by a delimiter");
                masked.push_str(&rest[..start]);
                masked.push('0');
                rest = &rest[end..];
            }
            masked.push_str(rest);
            out = masked;
        }
        out
    }
}
