//! `bench` — run the benchmark, or compare two sets of its results.
//!
//! ```text
//! bench --seed S [--workload W] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
//! bench compare BASE.jsonl OTHER.jsonl
//! ```
//!
//! Without `--workload` all five run; without `--trace` both passes do.
//! Each run prints its table and then one JSON line
//! (`correct`/`attempted`/`failed`/`metrics`) — with one workload and one
//! pass that line is the last line of output. The exit status is non-zero
//! on any correctness failure.

use oma_benchmark::run::{Options, Workload};
use oma_benchmark::spec::Spec;
use oma_benchmark::{compare, report, run};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: bench --seed S [--workload W] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]\n       bench compare BASE.jsonl OTHER.jsonl";

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    passes: Vec<bool>,
    smoke: bool,
    out: Option<String>,
}

fn parse(args: &[String], spec: &Spec) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: spec.run_seconds,
        passes: vec![false, true],
        smoke: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload =
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
                cli.workloads = vec![workload];
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                cli.passes = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if cli.smoke {
        cli.seconds = cli.seconds.min(1.0);
    }
    Ok(cli)
}

/// The executable's directory — inside the build directory, which the
/// checkout ignores. Traces are left here; WAL files live in a
/// sub-directory that this process alone uses and removes.
fn artifacts_dir() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .map(std::path::Path::to_path_buf)
        .ok_or_else(|| "executable has no parent directory".to_string())
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, other] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(&spec, base, other) {
            Ok((table, any_worse)) => {
                print!("{table}");
                ExitCode::from(u8::from(any_worse))
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args, &spec) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let artifacts = match artifacts_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let scratch = artifacts.join(format!("bench-scratch-{}", std::process::id()));
    let mut ok = true;
    for workload in &cli.workloads {
        for traced in &cli.passes {
            let opts = Options {
                workload: *workload,
                seed: cli.seed,
                seconds: cli.seconds,
                traced: *traced,
                smoke: cli.smoke,
            };
            let result = run::run(&opts, &scratch, &artifacts);
            let mismatches = report::name_mismatches(&spec, &result);
            print!("{}", report::human(&spec, &result));
            for mismatch in &mismatches {
                println!("  CONTRACT: {mismatch}");
            }
            ok &= result.failed == 0 && mismatches.is_empty();
            if let Some(path) = &cli.out {
                let line = report::record(&spec, &result).render();
                let appended = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut file| writeln!(file, "{line}"));
                if let Err(e) = appended {
                    eprintln!("--out {path}: {e}");
                    ok = false;
                }
            }
            if ok || cli.workloads.len() * cli.passes.len() > 1 {
                println!("{}", report::driver_line(&spec, &result));
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
