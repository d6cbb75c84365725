//! The embedded performance model of OMA DRM 2 — the primary contribution of
//! Thull & Sannino, *"Performance Considerations for an Embedded
//! Implementation of OMA DRM 2"* (DATE 2005).
//!
//! The model answers one question: given the cryptographic work a DRM Agent
//! performs over the content life-cycle, how much processing time (and, to
//! first order, energy) does each hardware/software partitioning of the
//! crypto algorithms cost on a 200 MHz application processor?
//!
//! The pieces:
//!
//! * [`cost`] — the per-algorithm cycle costs of the paper's **Table 1**
//!   (software on an ARM9-class core vs dedicated hardware macros), shared
//!   with the executable crypto backends in `oma-crypto`,
//! * [`arch`] — architecture variants: pure software, AES/SHA-1 hardware
//!   with RSA in software, and full hardware; each variant is an executable
//!   [`HwMacroBackend`](oma_crypto::backend::HwMacroBackend), and a trace's
//!   cycles on it are its
//!   [`CryptoBackend::price`](oma_crypto::backend::CryptoBackend::price),
//! * [`phases`] — per-phase operation traces (Registration, Acquisition,
//!   Installation, Consumption),
//! * [`usecase`] — the two end-user use cases of the evaluation
//!   (Music Player: 3.5 MB × 5 playbacks; Ringtone: 30 KB × 25 accesses),
//! * [`analytic`] — closed-form operation counts derived from the protocol
//!   analysis (the spreadsheet model of the paper),
//! * [`runner`] — a *measured* trace source that drives the real protocol
//!   from `oma-drm` on any variant's backend and records the operations it
//!   performed,
//! * [`energy`] — the energy ∝ cycles first-order estimate,
//! * [`report`] — generators for Table 1 and Figures 5, 6 and 7, from the
//!   analytic model and from measured per-backend runs, plus the
//!   measured-vs-analytic [`consistency_check`](report::consistency_check).
//!
//! The crate's `repro` binary prints all of them
//! (`cargo run --release --bin repro [table1|fig5|fig6|fig7|energy|measured]...`).
//!
//! # Example: reproduce Figure 6
//!
//! The paper's headline: dedicating hardware macros to all six algorithms
//! cuts the Music Player's total DRM processing time by well over an order
//! of magnitude compared to the pure-software terminal.
//!
//! ```
//! use oma_perf::{arch, cost::CostTable, report};
//! use oma_perf::usecase::UseCaseSpec;
//!
//! // Each variant is a crypto backend: the same one prices the analytic
//! // trace and executes the measured protocol run.
//! let variants = arch::standard_variants(&CostTable::paper());
//! let names: Vec<&str> = variants.iter().map(|v| v.name()).collect();
//! assert_eq!(names, ["SW", "SW/HW", "HW"]);
//!
//! let figure6 = report::architecture_comparison(&UseCaseSpec::music_player(), &variants);
//! let sw = figure6.total_millis("SW").unwrap();
//! let hw = figure6.total_millis("HW").unwrap();
//! assert!(sw / hw > 20.0, "hardware acceleration must win by a wide margin");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod arch;
pub mod cost;
pub mod energy;
pub mod phases;
pub mod report;
pub mod runner;
pub mod usecase;

pub use cost::{AlgorithmCost, CostTable};
pub use phases::{Phase, PhaseTraces};
pub use usecase::UseCaseSpec;
