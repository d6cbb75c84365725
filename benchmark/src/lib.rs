//! The benchmark of the OMA DRM 2 serving stack: five seeded workloads,
//! eleven end-to-end metrics with regression bounds, and a traced pass
//! that attributes each op's time to the layer that spent it.
//!
//! The contract — names, units, directions, bounds — lives in
//! `BENCHMARK.json` at the repository root ([`spec`]); `README.md` in this
//! directory is the glossary and the how-to. The stack is driven through
//! its public surface only (`RiService::dispatch_at`, the agent's sans-io
//! methods, `RoapPdu`, `RoapEventServer`, `RiStore<L: Wal>`,
//! `oma_cluster::{Primary, Follower, replicate}`), never through
//! `oma-load`, `RightsIssuer`, `RoapTcpServer` or a `*_with` / `*_via`
//! method, so the benchmark survives their scheduled deletion.

#![warn(missing_docs)]

pub mod affinity;
pub mod compare;
pub mod json;
pub mod layers;
pub mod ops;
pub mod recovery;
pub mod report;
pub mod run;
pub mod seams;
pub mod spec;
pub mod stats;
pub mod terminal;
pub mod traffic;
pub mod world;
