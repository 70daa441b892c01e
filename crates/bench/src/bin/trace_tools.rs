//! Trace utility: generate, inspect and rescale workload traces on disk.
//!
//! ```text
//! trace_tools generate <out.json> [--jobs N] [--seed S] [--small]
//! trace_tools info     <trace.json>
//! trace_tools speedup  <in.json> <factor> <out.json>
//! ```
//!
//! Traces are the JSON serialization of `jaws_workload::Trace`; anything this
//! tool writes can be replayed by the experiment binaries' machinery or the
//! library's `Executor`.

use jaws_bench::cli::{self, Args, Flag, Takes};
use jaws_workload::stats::{job_duration_histogram, timestep_histogram, top_timestep_share};
use jaws_workload::{GenConfig, Trace, TraceGenerator};
use std::fs::File;
use std::process::ExitCode;

const JOBS: Flag = Flag {
    name: "--jobs",
    takes: Takes::Count,
    help: "jobs to generate",
};

const SEED: Flag = Flag {
    name: "--seed",
    takes: Takes::Count,
    help: "generator seed",
};

const SMALL: Flag = Flag {
    name: "--small",
    takes: Takes::Nothing,
    help: "the small test-scale generator",
};

fn load(path: &str) -> Result<Trace, String> {
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    Trace::load_json(f).map_err(|e| format!("parse {path}: {e}"))
}

fn save(trace: &Trace, path: &str) -> Result<(), String> {
    let f = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    trace.save_json(f).map_err(|e| format!("write {path}: {e}"))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let mut args = |flags: &[Flag], positional: &[&str]| {
        cli::args_from(
            &format!("trace_tools {cmd}"),
            flags,
            positional,
            argv.by_ref(),
        )
    };
    let result = match cmd.as_str() {
        "generate" => generate(&args(&[JOBS, SEED, SMALL], &["<out.json>"])),
        "info" => info(&args(&[], &["<trace.json>"])),
        "speedup" => speedup(&args(&[], &["<in.json>", "<factor>", "<out.json>"])),
        _ => {
            eprintln!("usage:");
            eprintln!("  trace_tools generate <out.json> [--jobs N] [--seed S] [--small]");
            eprintln!("  trace_tools info     <trace.json>");
            eprintln!("  trace_tools speedup  <in.json> <factor> <out.json>");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn generate(args: &Args) -> Result<(), String> {
    let out = &args.positional()[0];
    let seed = args.count(SEED.name);
    let mut cfg = if args.has(SMALL.name) {
        GenConfig::small(seed.unwrap_or(42))
    } else {
        GenConfig::paper_like(seed.unwrap_or(2009_0720))
    };
    if let Some(j) = args.count(JOBS.name) {
        cfg.jobs = j as usize;
    }
    let trace = TraceGenerator::new(cfg).generate();
    save(&trace, out)?;
    println!(
        "wrote {out}: {} jobs / {} queries / {} positions",
        trace.jobs.len(),
        trace.query_count(),
        trace.position_count()
    );
    Ok(())
}

fn info(args: &Args) -> Result<(), String> {
    let path = &args.positional()[0];
    let t = load(path)?;
    t.validate();
    println!("trace {path}");
    println!(
        "  geometry        {} timesteps x {}^3 atoms",
        t.timesteps, t.atoms_per_side
    );
    println!(
        "  jobs            {} ({} ordered)",
        t.jobs.len(),
        t.ordered_job_count()
    );
    println!("  queries         {}", t.query_count());
    println!("  positions       {}", t.position_count());
    println!("  in-job queries  {:.1}%", t.fraction_in_jobs() * 100.0);
    let span_ms =
        t.jobs.last().map_or(0.0, |j| j.arrival_ms) - t.jobs.first().map_or(0.0, |j| j.arrival_ms);
    println!("  arrival span    {:.2} h", span_ms / 3.6e6);
    println!(
        "  top-12 ts share {:.1}%",
        top_timestep_share(&t, 12) * 100.0
    );
    println!("  duration histogram (nominal, paper cost model):");
    for b in job_duration_histogram(&t, 80.0, 0.05) {
        println!(
            "    {:<10} {:>6} jobs {:>5.1}%",
            b.label,
            b.count,
            b.fraction * 100.0
        );
    }
    let hist = timestep_histogram(&t);
    let peak = *hist.iter().max().unwrap_or(&1) as f64;
    println!("  queries per timestep:");
    for (ts, n) in hist.iter().enumerate() {
        println!(
            "    t{ts:<3} {:>7} {}",
            n,
            "#".repeat((*n as f64 / peak * 40.0).round() as usize)
        );
    }
    Ok(())
}

fn speedup(args: &Args) -> Result<(), String> {
    let [input, factor, output] = args.positional() else {
        unreachable!("the parser checked the positional count");
    };
    let f: f64 = factor.parse().map_err(|e| format!("factor: {e}"))?;
    if f <= 0.0 {
        return Err("factor must be positive".into());
    }
    let t = load(input)?.speedup(f);
    save(&t, output)?;
    println!("wrote {output} at {f}x arrival rate");
    Ok(())
}
