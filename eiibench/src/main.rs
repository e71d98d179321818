//! `eiibench` — the repository's wall-clock benchmark.
//!
//! ```text
//! eiibench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! eiibench compare <a.jsonl> <b.jsonl>
//! ```
//!
//! One run builds a workload, checks every answer against a naively planned
//! twin, measures for `--seconds`, and prints every metric by name and unit;
//! its last line of output is one JSON object. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` is the separate traced
//! run that gives the per-layer metrics. See README.md beside this crate.

mod alloc;
mod compare;
mod gen;
mod measure;
mod metrics;
mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use std::io::Write as _;
use std::process::ExitCode;

use workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: eiibench --workload <fedmark_sf1|fedmark_sf20|hub_analytics|\
dashboard_rw|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       \
eiibench compare <a.jsonl> <b.jsonl>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both, untraced first.
    trace: Option<bool>,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 24.0,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workloads = match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name}"))?],
                }
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            "--out" => parsed.out = Some(value.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// The checkout's revision when it is a git checkout, else `unknown`.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        rev => rev.chars().take(12).collect(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    // A debug build is several times slower and shifts time between layers;
    // a number from one is worse than no number.
    if cfg!(debug_assertions) {
        eprintln!(
            "eiibench: refusing to measure a build with debug assertions; \
             run it with `cargo run --release`"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("eiibench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let revision = git_revision();

    let mut all_correct = true;
    for workload in &args.workloads {
        for trace in args.trace.map_or(vec![false, true], |t| vec![t]) {
            println!(
                "eiibench profile=release nproc={nproc} seed={} rev={revision} workload={} \
                 seconds={} trace={}",
                args.seed,
                workload.name(),
                args.seconds,
                u8::from(trace)
            );
            let report = match run::run(*workload, args.seed, args.seconds, trace) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("eiibench: {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            };
            report.print_table();
            let line = report.json_line();
            if let Some(path) = &args.out {
                let record = format!(
                    "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"result\":{line}}}\n",
                    workload.name(),
                    args.seed,
                    args.seconds,
                    u8::from(trace)
                );
                let appended = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| f.write_all(record.as_bytes()));
                if let Err(e) = appended {
                    eprintln!("eiibench: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            all_correct &= report.correct();
            println!("{line}");
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("eiibench: wrong answers or errors, see the failures listed above");
        ExitCode::FAILURE
    }
}
