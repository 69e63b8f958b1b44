//! # speakup-exp — the evaluation harness (§7)
//!
//! Reconstructs every experiment of the paper's evaluation on top of
//! `speakup-net` (the Emulab stand-in) and `speakup-core` (the system):
//!
//! * [`scenario`] — declarative run descriptions (clients, links, mode);
//! * [`agents`] — the thinner, client, and web-bystander applications;
//! * [`runner`] — build, run, and measure one scenario;
//! * [`scenarios`] — ready-made builders for Figures 2–9 and §7.4;
//! * [`registry`] — every experiment as a named entry: paper section,
//!   default duration, parameter grid, and table renderer;
//! * [`driver`] — the `speakup` CLI (`list`, `run`) over the registry,
//!   with parallel seed replicates and JSON reports;
//! * [`report`] — text tables and ideal-line computations;
//! * [`json`] — a dependency-free JSON builder for the reports.
//!
//! One binary, `speakup`, drives everything: `speakup list` names the
//! experiments; `speakup run fig3 --secs 600 --seeds 8 --json`
//! regenerates a figure. `benchmark/run.sh` times the same scenarios
//! end to end and layer by layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agents;
pub mod compare;
pub mod driver;
pub mod json;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod scenarios;
pub mod tags;

pub use registry::{Entry, RunOptions};
pub use runner::{run, run_all, run_all_pooled, run_sharded, RunReport};
pub use scenario::{BottleneckSpec, ClientSpec, Mode, Scenario, WebSpec};
