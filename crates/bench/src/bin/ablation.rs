//! Ablation study: which substrate mechanisms give each scheduler its edge.
//!
//! DESIGN.md calls out the design choices this probes. Each row disables (or
//! stresses) one cost-model mechanism and reruns JAWS₂ against LifeRaft₂ and
//! NoShare:
//!
//! * `baseline`      — the calibrated testbed model;
//! * `free-dispatch` — per-pass submission cost zeroed: two-level batching
//!   loses its amortization edge;
//! * `free-seeks`    — seek charge zeroed: Morton-ordered execution loses its
//!   sequential-I/O edge;
//! * `stencil-2`     — kernel evaluations also read 2 neighbor atoms
//!   (§V locality of reference stress): schedulers that co-schedule nearby
//!   atoms absorb the spill-over in cache.

use jaws_bench::{cli, exp};
use jaws_sim::sweep::RunSpec;
use jaws_sim::{run_parallel, CachePolicyKind, SchedulerKind};
use jaws_turbdb::CostModel;

fn main() {
    let trace = exp::select_trace(cli::args(&[cli::QUICK], &[]).quick());
    let base = exp::paper_cost();
    let variants: Vec<(&str, CostModel)> = vec![
        ("baseline", base),
        (
            "free-dispatch",
            CostModel {
                batch_dispatch_ms: 0.0,
                ..base
            },
        ),
        (
            "free-seeks",
            CostModel {
                seek_ms: 0.0,
                ..base
            },
        ),
        (
            "stencil-2",
            CostModel {
                stencil_neighbors: 2,
                ..base
            },
        ),
    ];
    let schedulers = [
        SchedulerKind::NoShare,
        SchedulerKind::LifeRaft2,
        SchedulerKind::Jaws2 { batch_k: 15 },
    ];
    let mut specs = Vec::new();
    for (name, cost) in &variants {
        for &k in &schedulers {
            let mut s = exp::base_spec(&format!("{name}/{}", k.name()), k, CachePolicyKind::LruK);
            s.cost = *cost;
            specs.push(s);
        }
    }
    let results = run_parallel(&specs, &trace);

    println!("\nAblation — substrate mechanisms vs scheduler advantage");
    exp::rule();
    println!(
        "{:<26} {:>9} {:>12} {:>9} {:>9}",
        "variant/scheduler", "qps", "mean rt (s)", "reads", "seeks"
    );
    exp::rule();
    let mut qps: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for (spec, r) in &results {
        qps.insert(spec.label.clone(), r.throughput_qps);
        println!(
            "{:<26} {:>9.3} {:>12.1} {:>9} {:>9}",
            spec.label,
            r.throughput_qps,
            r.mean_response_ms / 1000.0,
            r.disk.reads,
            r.disk.seeks
        );
    }
    exp::rule();
    println!("JAWS_2 / LifeRaft_2 advantage per variant:");
    for (name, _) in &variants {
        let j = qps[&format!("{name}/JAWS_2")];
        let l = qps[&format!("{name}/LifeRaft_2")];
        println!("  {:<14} {:.2}x", name, j / l);
    }
}

/// The `RunSpec` import is used through `exp::base_spec`'s return type.
#[allow(dead_code)]
fn _type_anchor(_: RunSpec) {}
