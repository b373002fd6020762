//! One benchmark for the whole stack. See `README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! benchmark suite   [--seed n] [--seconds s] [--repeats k] [--smoke] [--out file]
//! benchmark compare <a.json> <b.json>
//! benchmark report  <suite.json>
//! benchmark spec
//! ```

mod host;
mod loadgen;
mod mix;
mod probes;
mod report;
mod serving;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use report::{Opts, RunOutput};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
         benchmark suite [--seed n] [--seconds s] [--repeats k] [--smoke] [--out file]\n       \
         benchmark compare <a.json> <b.json>\n       benchmark report <suite.json>\n       benchmark spec",
        spec::WORKLOADS.map(|w| w.0).join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.value(key).and_then(|v| v.parse().ok())
    }
}

/// Runs one workload in this process.
fn run_workload(opts: &Opts) -> Option<RunOutput> {
    if opts.trace {
        return probes::run(opts);
    }
    let run = match opts.workload.as_str() {
        "small-closed" => workloads::small_closed::run,
        "batch-open" => workloads::batch_open::run,
        "longseq-offline" => workloads::longseq_offline::run,
        "train-codesign" => workloads::train_codesign::run,
        _ => return None,
    };
    Some(run(opts))
}

fn contract_run(args: &Args) -> ExitCode {
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        args.value("--workload"),
        args.num::<u64>("--seed"),
        args.num::<f64>("--seconds"),
        args.num::<u8>("--trace"),
    ) else {
        return usage();
    };
    if seconds.is_nan() || seconds <= 0.0 || trace > 1 {
        return usage();
    }
    let opts = Opts {
        workload: workload.to_string(),
        seed,
        seconds,
        trace: trace == 1,
        smoke: args.flag("--smoke"),
    };
    let host = host::HostProbe::start();
    let Some(out) = run_workload(&opts) else { return usage() };
    report::print_metrics(&opts, &out);
    let doc = report::result_json(&opts, &out, &host);
    let path = format!("benchmark/results/{}-seed{}-trace{}.json", opts.workload, seed, trace);
    if let Err(e) = std::fs::create_dir_all("benchmark/results")
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
    {
        eprintln!("could not write {path}: {e}");
    }
    println!("{}", report::contract_line(&opts, &out));
    ExitCode::SUCCESS
}

fn finish(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spec") => {
            println!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("suite") => {
            let args = Args(args);
            let smoke = args.flag("--smoke");
            let suite_args = suite::SuiteArgs {
                seed: args.num("--seed").unwrap_or(1),
                seconds: args.num("--seconds").unwrap_or(if smoke {
                    suite::SMOKE_SECONDS
                } else {
                    spec::RUN_SECONDS as f64
                }),
                repeats: args.num("--repeats").unwrap_or(1),
                smoke,
                out: args
                    .value("--out")
                    .map_or_else(|| "benchmark/results/suite.json".to_string(), str::to_string),
            };
            finish(suite::suite(&suite_args))
        }
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => match suite::compare(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => finish(Err(e)),
            },
            _ => usage(),
        },
        Some("report") => match args.get(1) {
            Some(path) => finish(suite::report(path)),
            None => usage(),
        },
        Some(a) if a.starts_with("--") => contract_run(&Args(args)),
        _ => usage(),
    }
}
