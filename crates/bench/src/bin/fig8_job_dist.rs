//! Fig. 8 — Distribution of jobs by execution time.
//!
//! The paper: jobs "vary greatly by execution time in which a majority (63%)
//! persist between one and thirty minutes". This binary prints the nominal
//! execution-time histogram of the calibrated trace next to the paper's
//! published anchor.

use jaws_bench::{cli, exp};
use jaws_workload::stats::job_duration_histogram;

fn main() {
    let trace = exp::select_trace(cli::args(&[cli::QUICK], &[]).quick());
    let cost = exp::paper_cost();
    let hist = job_duration_histogram(&trace, cost.atom_read_ms, cost.position_compute_ms);

    println!("\nFig. 8 — Distribution of jobs by execution time");
    exp::rule();
    println!(
        "{:<12} {:>8} {:>10}  histogram",
        "bucket", "jobs", "fraction"
    );
    exp::rule();
    for b in &hist {
        let bar = "#".repeat((b.fraction * 60.0).round() as usize);
        println!(
            "{:<12} {:>8} {:>9.1}%  {}",
            b.label,
            b.count,
            b.fraction * 100.0,
            bar
        );
    }
    exp::rule();
    let mid = hist
        .iter()
        .filter(|b| b.label == "1-5 min" || b.label == "5-30 min")
        .map(|b| b.fraction)
        .sum::<f64>();
    println!(
        "jobs lasting 1-30 minutes: paper 63%, measured {:.0}%",
        mid * 100.0
    );
    println!(
        "jobs in the trace: {} ({} queries, {:.1}% of queries inside jobs)",
        trace.jobs.len(),
        trace.query_count(),
        trace.fraction_in_jobs() * 100.0
    );
}
