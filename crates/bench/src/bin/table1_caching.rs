//! Table I — Performance and overhead of caching algorithms.
//!
//! The paper, running JAWS with a 2 GB externally managed cache:
//!
//! | policy | cache hit | seconds/qry | overhead/qry |
//! |--------|-----------|-------------|--------------|
//! | LRU-K  | 47%       | 1.62        | —            |
//! | SLRU   | 49%       | 1.56        | < 1 ms       |
//! | URC    | 54%       | 1.39        | 7 ms         |
//!
//! Exploiting workload knowledge buys URC +7 points of hit ratio and 16%
//! better query performance; SLRU gets a modest +2 points for almost no
//! overhead. Overhead here is *measured wall-clock time inside the policy*,
//! exactly as the paper measures it against its implementation.

use jaws_bench::{cli, exp};
use jaws_sim::{run_parallel, CachePolicyKind, SchedulerKind};

fn main() {
    let trace = exp::select_trace(cli::args(&[cli::QUICK], &[]).quick());
    let specs: Vec<_> = CachePolicyKind::table1_set()
        .iter()
        .map(|&p| exp::base_spec(&format!("{p:?}"), SchedulerKind::Jaws2 { batch_k: 15 }, p))
        .collect();
    let results = run_parallel(&specs, &trace);

    println!("\nTable I — Performance and overhead of caching algorithms (JAWS_2)");
    exp::rule();
    println!(
        "{:<8} {:>10} {:>14} {:>14} {:>10} {:>12}",
        "policy", "cache hit", "seconds/qry", "overhead/qry", "qps", "disk reads"
    );
    exp::rule();
    let mut rows = Vec::new();
    for (_, r) in &results {
        println!(
            "{:<8} {:>9.1}% {:>14.3} {:>11.3} ms {:>10.3} {:>12}",
            r.cache_policy,
            r.cache.hit_ratio() * 100.0,
            r.seconds_per_query,
            r.cache_overhead_ms_per_query,
            r.throughput_qps,
            r.disk.reads
        );
        rows.push((
            r.cache_policy.clone(),
            r.cache.hit_ratio(),
            r.seconds_per_query,
        ));
    }
    exp::rule();
    println!("paper: LRU-K 47% / 1.62 s ... SLRU 49% / 1.56 s (<1 ms) ... URC 54% / 1.39 s (7 ms)");
    let find = |n: &str| rows.iter().find(|(p, _, _)| p == n).expect("policy row");
    let (_, lruk_hit, lruk_spq) = find("LRU-K");
    let (_, _slru_hit, _) = find("SLRU");
    let (_, urc_hit, urc_spq) = find("URC");
    println!(
        "URC vs LRU-K: hit {:+.1} points (paper +7), query performance {:+.1}% (paper +16%)",
        (urc_hit - lruk_hit) * 100.0,
        (lruk_spq / urc_spq - 1.0) * 100.0
    );
}
