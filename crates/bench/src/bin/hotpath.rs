//! Hot-path wall-clock bench (perf trajectory, PR 5) — writes `BENCH_5.json`.
//!
//! Two sections:
//!
//! 1. **materialize** — fills every timestep-0 atom from the synthetic field
//!    at 1/2/4 workers. The fill is sharded by z-slice inside
//!    [`AtomData::materialize`]; a bit-exact checksum over every voxel proves
//!    the payload is identical at every thread count.
//! 2. **top_k** — bounded top-k selection (`select_nth_unstable_by` + sort of
//!    the k prefix) vs the old full `O(m log m)` sort, over the exact total
//!    order used by `Jaws::next_batch`, at dispatch-candidate counts up to
//!    the paper's 4096-atoms-per-timestep scale and beyond.
//!
//! The end-to-end materialized-mode run that used to be a third section is
//! the `bench5_e2e` row of `scenario_matrix`. The committed `BENCH_5.json`
//! still carries it as the historical trajectory anchor.
//!
//! Section 1's speedup depends on the host: on a single-core container it is
//! ~1×, which is why `threads_reported` is recorded alongside every row.
//! Section 2 is algorithmic and shows its win on any host.
//!
//! `--smoke` shrinks geometry and rep counts for CI and writes under
//! `target/`; `--out=PATH` overrides the output path.

use jaws_bench::{alloc_counter, cli, exp};
use jaws_morton::AtomId;
use jaws_turbdb::{AtomData, DbConfig, SyntheticField};
use serde::Serialize;
use std::cmp::Ordering;
use std::hint::black_box;
use std::time::Instant;

/// Every heap acquisition in the measured regions below is counted, so the
/// allocation columns are measurements, not estimates.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

#[derive(Serialize)]
struct MatRow {
    threads: usize,
    /// What the host could run, as opposed to what we asked for (`threads`):
    /// a 1.0× speedup at `threads: 4` reads very differently when this is 1.
    available_parallelism: usize,
    atoms: usize,
    voxels: usize,
    wall_ms: f64,
    speedup_vs_serial: f64,
    /// Heap acquisitions during this row's timed region.
    allocations: u64,
    checksum: String,
}

#[derive(Serialize)]
struct TopKRow {
    m: usize,
    k: usize,
    reps: usize,
    full_sort_ms: f64,
    top_k_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    smoke: bool,
    threads_reported: usize,
    materialize: Vec<MatRow>,
    top_k: Vec<TopKRow>,
}

/// The exact dispatch total order of `Jaws::next_batch`: utility descending,
/// `AtomId` ascending on exact ties.
fn rank_order(a: &(AtomId, f64), b: &(AtomId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

fn top_k(mut in_ts: Vec<(AtomId, f64)>, k: usize) -> Vec<(AtomId, f64)> {
    if k == 0 {
        in_ts.clear();
        return in_ts;
    }
    if k < in_ts.len() {
        in_ts.select_nth_unstable_by(k - 1, rank_order);
        in_ts.truncate(k);
    }
    in_ts.sort_by(rank_order);
    in_ts
}

fn full_sort(mut in_ts: Vec<(AtomId, f64)>, k: usize) -> Vec<(AtomId, f64)> {
    in_ts.sort_by(rank_order);
    in_ts.truncate(k);
    in_ts
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic dispatch candidates: distinct atoms, pseudo-random utilities.
fn candidates(m: usize) -> Vec<(AtomId, f64)> {
    (0..m)
        .map(|i| {
            let x = (i % 64) as u32;
            let y = ((i / 64) % 64) as u32;
            let z = (i / 4096) as u32;
            let u = splitmix64(i as u64 ^ exp::TRACE_SEED) as f64 / u64::MAX as f64;
            (AtomId::from_coords(0, x, y, z), u * 10_000.0)
        })
        .collect()
}

/// FNV-1a over every voxel's raw bits — anti-dead-code and a cross-thread
/// bit-identity witness in one.
fn atom_checksum(atom: &AtomData) -> u64 {
    let g = atom.ghost() as i64;
    let s = atom.side() as i64;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for lz in -g..s + g {
        for ly in -g..s + g {
            for lx in -g..s + g {
                let v = atom.velocity_at(lx, ly, lz);
                mix(v[0].to_bits() as u64);
                mix(v[1].to_bits() as u64);
                mix(v[2].to_bits() as u64);
                mix(atom.pressure_at(lx, ly, lz).to_bits() as u64);
            }
        }
    }
    h
}

fn bench_materialize(cfg: DbConfig, threads: &[usize]) -> Vec<MatRow> {
    let field = SyntheticField::new(cfg.seed, cfg.grid_side);
    let per_side = cfg.atoms_per_side();
    let ids: Vec<AtomId> = (0..per_side)
        .flat_map(|z| {
            (0..per_side)
                .flat_map(move |y| (0..per_side).map(move |x| AtomId::from_coords(0, x, y, z)))
        })
        .collect();
    let ext = (cfg.atom_side + 2 * cfg.ghost) as usize;
    let voxels = ids.len() * ext * ext * ext;
    let mut rows: Vec<MatRow> = Vec::new();
    for &t in threads {
        let _guard = jaws_par::override_threads(t);
        alloc_counter::reset();
        let start = Instant::now();
        let mut checksum = 0u64;
        for &id in &ids {
            let atom = AtomData::materialize(&cfg, &field, id);
            checksum ^= atom_checksum(black_box(&atom));
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let allocations = alloc_counter::count();
        if let Some(first) = rows.first() {
            assert_eq!(
                format!("{checksum:016x}"),
                first.checksum,
                "materialized payload differs at {t} workers"
            );
        }
        let serial_ms = rows.first().map_or(wall_ms, |r| r.wall_ms);
        rows.push(MatRow {
            threads: t,
            available_parallelism: jaws_par::hardware_parallelism(),
            atoms: ids.len(),
            voxels,
            wall_ms,
            speedup_vs_serial: serial_ms / wall_ms,
            allocations,
            checksum: format!("{checksum:016x}"),
        });
    }
    rows
}

type Selector = dyn Fn(Vec<(AtomId, f64)>, usize) -> Vec<(AtomId, f64)>;

fn bench_top_k(sizes: &[usize], k: usize, reps: usize) -> Vec<TopKRow> {
    let mut rows = Vec::new();
    for &m in sizes {
        let base = candidates(m);
        let sorted = full_sort(base.clone(), k);
        let selected = top_k(base.clone(), k);
        assert_eq!(sorted.len(), selected.len(), "m={m}");
        for (a, b) in sorted.iter().zip(&selected) {
            assert_eq!(a.0, b.0, "m={m}: selected atom differs");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "m={m}: utility bits differ");
        }
        let time_of = |f: &Selector| {
            let clones: Vec<_> = (0..reps).map(|_| base.clone()).collect();
            let start = Instant::now();
            for c in clones {
                black_box(f(c, k));
            }
            start.elapsed().as_secs_f64() * 1e3
        };
        let full_sort_ms = time_of(&full_sort);
        let top_k_ms = time_of(&top_k);
        rows.push(TopKRow {
            m,
            k,
            reps,
            full_sort_ms,
            top_k_ms,
            speedup: full_sort_ms / top_k_ms,
        });
    }
    rows
}

fn main() {
    let args = cli::args(&[cli::SMOKE, cli::OUT], &[]);
    let smoke = args.smoke();
    let threads_reported = jaws_par::thread_count();

    let (mat_cfg, threads, sizes, reps): (DbConfig, &[usize], &[usize], usize) = if smoke {
        (exp::smoke_db(), &[1, 2], &[1_000, 10_000], 5)
    } else {
        let cfg = DbConfig {
            grid_side: 64,
            atom_side: 16,
            ghost: 4,
            timesteps: 4,
            dt: 0.002,
            seed: exp::TRACE_SEED,
        };
        (cfg, &[1, 2, 4], &[1_000, 10_000, 100_000], 20)
    };

    eprintln!(
        "# hotpath: {} workers reported by jaws-par",
        threads_reported
    );

    println!("\nSection 1 — atom materialization (synthetic field, timestep 0)");
    exp::rule();
    let materialize = bench_materialize(mat_cfg, threads);
    println!(
        "{:<8} {:>5} {:>8} {:>10} {:>12} {:>10} {:>10}  checksum",
        "threads", "hw", "atoms", "voxels", "wall_ms", "speedup", "allocs"
    );
    for r in &materialize {
        println!(
            "{:<8} {:>5} {:>8} {:>10} {:>12.2} {:>9.2}x {:>10}  {}",
            r.threads,
            r.available_parallelism,
            r.atoms,
            r.voxels,
            r.wall_ms,
            r.speedup_vs_serial,
            r.allocations,
            r.checksum
        );
    }

    println!("\nSection 2 — bounded top-k vs full sort (k = 15, dispatch order)");
    exp::rule();
    let top_k = bench_top_k(sizes, 15, reps);
    println!(
        "{:<10} {:>6} {:>6} {:>14} {:>12} {:>10}",
        "m", "k", "reps", "full_sort_ms", "top_k_ms", "speedup"
    );
    for r in &top_k {
        println!(
            "{:<10} {:>6} {:>6} {:>14.3} {:>12.3} {:>9.2}x",
            r.m, r.k, r.reps, r.full_sort_ms, r.top_k_ms, r.speedup
        );
    }

    let report = BenchReport {
        bench: "hotpath",
        smoke,
        threads_reported,
        materialize,
        top_k,
    };
    exp::write_report(&args.out_path("BENCH_5.json"), &report);
}
