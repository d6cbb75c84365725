//! `repro` — prints every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro               # everything
//! repro table1        # Table 1 only
//! repro fig5          # Figure 5 only
//! repro fig6          # Figure 6 only
//! repro fig7          # Figure 7 only
//! repro energy        # §3 energy estimate
//! repro measured      # measured (protocol-run) cross-check of the model
//! ```

use oma_bench::{Experiment, FIGURE6_PAPER_MS, FIGURE7_PAPER_MS};
use oma_perf::energy::EnergyModel;
use oma_perf::report;
use oma_perf::runner;
use oma_perf::usecase::UseCaseSpec;

fn print_table1(experiment: &Experiment) {
    println!("=== Table 1: execution times per cryptographic algorithm ===");
    print!("{}", report::table1(&experiment.table));
    println!();
}

fn print_fig5(experiment: &Experiment) {
    println!("=== Figure 5: relative importance of cryptographic algorithms (SW variant) ===");
    for breakdown in experiment.figure5() {
        print!("{breakdown}");
    }
    println!();
}

fn print_comparison(
    title: &str,
    comparison: &oma_perf::report::ArchitectureComparison,
    paper: &[(&str, f64)],
) {
    println!("=== {title} ===");
    print!("{comparison}");
    println!("Paper reference values:");
    for (variant, expected) in paper {
        let actual = comparison.total_millis(variant).unwrap_or(f64::NAN);
        println!(
            "  {:<8} paper {:>8.0} ms   model {:>8.1} ms   ({:+.1} %)",
            variant,
            expected,
            actual,
            (actual - expected) / expected * 100.0
        );
    }
    println!();
}

fn print_energy(experiment: &Experiment) {
    println!("=== Energy estimate (energy proportional to cycles, §3) ===");
    for spec in UseCaseSpec::paper_use_cases() {
        let energy = report::energy_comparison(
            &spec,
            &experiment.table,
            &experiment.variants,
            &EnergyModel::proportional(),
        );
        print!("{energy}");
    }
    println!("With 2x-more-efficient hardware macros (the paper's future-work hypothesis):");
    for spec in UseCaseSpec::paper_use_cases() {
        let energy = report::energy_comparison(
            &spec,
            &experiment.table,
            &experiment.variants,
            &EnergyModel::with_hardware_factor(0.5),
        );
        print!("{energy}");
    }
    println!();
}

fn print_measured(experiment: &Experiment) {
    println!("=== Measured cross-check: protocol runs on each variant's crypto backend ===");
    println!("(512-bit test keys; the cost model charges RSA per 1024-bit operation");
    println!(" regardless, exactly as the paper's Table 1 does)\n");
    let spec = UseCaseSpec::ringtone().with_rsa_modulus_bits(oma_bench::MEASURED_RSA_BITS);
    match runner::measure_use_case(&spec, 42) {
        Ok(run) => {
            let total = run.traces.total(spec.accesses());
            println!("{:<26} {:>12} {:>14}", "Algorithm", "Invocations", "Blocks");
            for (alg, count) in total.iter() {
                println!(
                    "{:<26} {:>12} {:>14}",
                    alg.label(),
                    count.invocations,
                    count.blocks
                );
            }
            println!();
        }
        Err(e) => println!("protocol run failed: {e}"),
    }
    for (name, spec) in [
        ("Figure 6 (Music Player)", UseCaseSpec::music_player()),
        ("Figure 7 (Ringtone)", UseCaseSpec::ringtone()),
    ] {
        match experiment.consistency(&spec, 42) {
            Ok(consistency) => {
                println!("--- {name}: measured backends vs analytic model ---");
                print!("{consistency}");
                println!(
                    "  max deviation {:.2} % ({})\n",
                    consistency.max_relative_error() * 100.0,
                    if consistency.agrees_within(0.10) {
                        "agrees"
                    } else {
                        "DISAGREES"
                    }
                );
            }
            Err(e) => println!("{name}: measured run failed: {e}"),
        }
    }
}

fn main() {
    let selection: Vec<String> = std::env::args().skip(1).collect();
    let experiment = Experiment::new();
    let want = |name: &str| selection.is_empty() || selection.iter().any(|s| s == name);

    if want("table1") {
        print_table1(&experiment);
    }
    if want("fig5") {
        print_fig5(&experiment);
    }
    if want("fig6") {
        print_comparison(
            "Figure 6: Music Player use case, execution time per architecture variant",
            &experiment.figure6(),
            &FIGURE6_PAPER_MS,
        );
    }
    if want("fig7") {
        print_comparison(
            "Figure 7: Ringtone use case, execution time per architecture variant",
            &experiment.figure7(),
            &FIGURE7_PAPER_MS,
        );
    }
    if want("energy") {
        print_energy(&experiment);
    }
    if want("measured") {
        print_measured(&experiment);
    }
}
