//! Fig. 10 — Query throughput by scheduling algorithm.
//!
//! The paper reports, on the 50k-query trace: JAWS₂ ≈ 2.6× NoShare; removing
//! job-awareness (JAWS₂ → JAWS₁) costs ~30%; two-level scheduling
//! (JAWS₁ vs LifeRaft₂) is worth ~12%; contention vs arrival order
//! (LifeRaft₂ vs LifeRaft₁) is worth ~22%.
//!
//! Run with `--quick` for a 150-job smoke trace.

use jaws_bench::{cli, exp};
use jaws_sim::{run_parallel, CachePolicyKind, SchedulerKind};

fn main() {
    let trace = exp::select_trace(cli::args(&[cli::QUICK], &[]).quick());
    let specs: Vec<_> = SchedulerKind::evaluation_set()
        .iter()
        .map(|&k| exp::base_spec(k.name(), k, CachePolicyKind::LruK))
        .collect();
    let results = run_parallel(&specs, &trace);

    println!("\nFig. 10 — Query throughput by scheduling algorithm");
    exp::rule();
    println!(
        "{:<11} {:>9} {:>12} {:>10} {:>8} {:>8} {:>8} {:>9} {:>8} {:>6}",
        "scheduler",
        "qps",
        "mean rt (s)",
        "mkspan(h)",
        "reads",
        "seeks",
        "batches",
        "cache hit",
        "forced",
        "alpha"
    );
    exp::rule();
    let mut qps = std::collections::HashMap::new();
    for (spec, r) in &results {
        qps.insert(spec.label.clone(), r.throughput_qps);
        println!(
            "{:<11} {:>9.3} {:>12.2} {:>10.2} {:>8} {:>8} {:>8} {:>8.1}% {:>8} {:>6.2}{}",
            r.scheduler,
            r.throughput_qps,
            r.mean_response_ms / 1000.0,
            r.makespan_ms / 3.6e6,
            r.disk.reads,
            r.disk.seeks,
            r.scheduler_stats.batches,
            r.cache.hit_ratio() * 100.0,
            r.scheduler_stats.forced_releases,
            r.alpha_final,
            if r.truncated { "  [TRUNCATED]" } else { "" }
        );
    }
    exp::rule();
    let ratio = |a: &str, b: &str| qps[a] / qps[b];
    println!("paper expectations vs measured:");
    println!(
        "  JAWS_2 / NoShare      paper ~2.6x   measured {:.2}x",
        ratio("JAWS_2", "NoShare")
    );
    println!(
        "  JAWS_2 / JAWS_1       paper ~1.43x  measured {:.2}x  (30% drop without job-awareness)",
        ratio("JAWS_2", "JAWS_1")
    );
    println!(
        "  JAWS_1 / LifeRaft_2   paper ~1.12x  measured {:.2}x  (two-level scheduling)",
        ratio("JAWS_1", "LifeRaft_2")
    );
    println!(
        "  LifeRaft_2/LifeRaft_1 paper ~1.22x  measured {:.2}x  (contention vs arrival order)",
        ratio("LifeRaft_2", "LifeRaft_1")
    );
    println!(
        "  JAWS_2 / LifeRaft_2   paper ~1.6x   measured {:.2}x  (overall vs LifeRaft)",
        ratio("JAWS_2", "LifeRaft_2")
    );
}
