//! The experiment harness: regenerates every table of the reproduction's
//! evaluation (DESIGN.md §3, EXPERIMENTS.md).
//!
//! Usage:
//!   cargo run -p eii-bench --release --bin experiments -- all
//!   cargo run -p eii-bench --release --bin experiments -- e3 e9
//!   cargo run -p eii-bench --release --bin experiments -- --json e1
//!   cargo run -p eii-bench --release --bin experiments -- trajectory
//!
//! `trajectory` prints the compact cross-experiment summary table from
//! the `BENCH_E*.json` files the gate experiments (E13–E20) wrote.

use std::time::Instant;

use eii_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let requested: Vec<String> = args
        .into_iter()
        .filter(|a| a != "--json")
        .collect();
    let ids: Vec<String> = if requested.is_empty() || requested.iter().any(|a| a == "all") {
        experiments::ALL.iter().map(|(id, _)| id.to_string()).collect()
    } else {
        requested
    };

    let mut failures = 0;
    for id in &ids {
        if id == "trajectory" {
            println!("{}", eii_bench::summary::trajectory());
            continue;
        }
        let t0 = Instant::now();
        match experiments::run(id) {
            Ok(report) => {
                if json {
                    println!("{}", report.to_json());
                } else {
                    println!("{}", report.render());
                    println!("({} regenerated in {:.1?})\n", id.to_uppercase(), t0.elapsed());
                }
            }
            Err(e) => {
                eprintln!("{id}: FAILED: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
