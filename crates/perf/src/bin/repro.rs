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
//!
//! Sections may be combined (`repro fig6 fig7`); an unknown one prints the
//! usage to stderr and exits with status 2. When the measured cross-check
//! fails — a protocol run errs, or a figure's measured and analytic totals
//! disagree — every section is still printed and the exit status is 1.

use oma_crypto::backend::CryptoBackend;
use oma_perf::arch;
use oma_perf::cost::CostTable;
use oma_perf::energy::EnergyModel;
use oma_perf::report::{self, ArchitectureComparison, FIGURE6_PAPER_MS, FIGURE7_PAPER_MS};
use oma_perf::runner;
use oma_perf::usecase::UseCaseSpec;
use std::sync::Arc;

/// RSA modulus of the measured runs: small test keys keep them fast, while
/// the cost model still charges per 1024-bit operation exactly as the
/// paper's Table 1 does.
const MEASURED_RSA_BITS: usize = 512;

const SECTIONS: [&str; 6] = ["table1", "fig5", "fig6", "fig7", "energy", "measured"];

const USAGE: &str = "usage: repro [SECTION]...

Prints the named sections of the paper's evaluation, or all of them:
  table1      Table 1
  fig5        Figure 5
  fig6        Figure 6
  fig7        Figure 7
  energy      §3 energy estimate
  measured    measured (protocol-run) cross-check of the model";

fn print_table1(table: &CostTable) {
    println!("=== Table 1: execution times per cryptographic algorithm ===");
    print!("{}", report::table1(table));
    println!();
}

fn print_fig5(table: &CostTable) {
    println!("=== Figure 5: relative importance of cryptographic algorithms (SW variant) ===");
    for breakdown in report::figure5(table) {
        print!("{breakdown}");
    }
    println!();
}

fn print_comparison(title: &str, comparison: &ArchitectureComparison, paper: &[(&str, f64)]) {
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

fn print_energy(variants: &[Arc<dyn CryptoBackend>]) {
    println!("=== Energy estimate (energy proportional to cycles, §3) ===");
    for spec in UseCaseSpec::paper_use_cases() {
        let energy = report::energy_comparison(&spec, variants, &EnergyModel::proportional());
        print!("{energy}");
    }
    println!("With 2x-more-efficient hardware macros (the paper's future-work hypothesis):");
    for spec in UseCaseSpec::paper_use_cases() {
        let energy =
            report::energy_comparison(&spec, variants, &EnergyModel::with_hardware_factor(0.5));
        print!("{energy}");
    }
    println!();
}

/// Prints the measured cross-check; returns whether every protocol run
/// succeeded and both figures agree with the analytic model.
fn print_measured(variants: &[Arc<dyn CryptoBackend>]) -> bool {
    let mut healthy = true;
    println!("=== Measured cross-check: protocol runs on each variant's crypto backend ===");
    println!("(512-bit test keys; the cost model charges RSA per 1024-bit operation");
    println!(" regardless, exactly as the paper's Table 1 does)\n");
    let spec = UseCaseSpec::ringtone().with_rsa_modulus_bits(MEASURED_RSA_BITS);
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
        Err(e) => {
            println!("protocol run failed: {e}");
            healthy = false;
        }
    }
    for (name, spec) in [
        ("Figure 6 (Music Player)", UseCaseSpec::music_player()),
        ("Figure 7 (Ringtone)", UseCaseSpec::ringtone()),
    ] {
        let spec = spec.with_rsa_modulus_bits(MEASURED_RSA_BITS);
        match report::measured_architecture_comparison(&spec, variants, 42) {
            Ok(measured) => {
                let analytic = report::architecture_comparison(&spec, variants);
                let consistency = report::consistency_check(&measured, &analytic);
                let agrees = consistency.agrees_within(0.10);
                healthy &= agrees;
                println!("--- {name}: measured backends vs analytic model ---");
                print!("{consistency}");
                println!(
                    "  max deviation {:.2} % ({})\n",
                    consistency.max_relative_error() * 100.0,
                    if agrees { "agrees" } else { "DISAGREES" }
                );
            }
            Err(e) => {
                println!("{name}: measured run failed: {e}");
                healthy = false;
            }
        }
    }
    healthy
}

fn main() {
    let selection: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = selection.iter().find(|s| !SECTIONS.contains(&s.as_str())) {
        eprintln!("repro: unknown section `{unknown}`\n\n{USAGE}");
        std::process::exit(2);
    }
    let want = |name: &str| selection.is_empty() || selection.iter().any(|s| s == name);
    let table = CostTable::paper();
    let variants = arch::standard_variants(&table);

    if want("table1") {
        print_table1(&table);
    }
    if want("fig5") {
        print_fig5(&table);
    }
    if want("fig6") {
        print_comparison(
            "Figure 6: Music Player use case, execution time per architecture variant",
            &report::architecture_comparison(&UseCaseSpec::music_player(), &variants),
            &FIGURE6_PAPER_MS,
        );
    }
    if want("fig7") {
        print_comparison(
            "Figure 7: Ringtone use case, execution time per architecture variant",
            &report::architecture_comparison(&UseCaseSpec::ringtone(), &variants),
            &FIGURE7_PAPER_MS,
        );
    }
    if want("energy") {
        print_energy(&variants);
    }
    if want("measured") && !print_measured(&variants) {
        std::process::exit(1);
    }
}
