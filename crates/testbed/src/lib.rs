#![warn(missing_docs)]

//! # spotfi-testbed
//!
//! Experiment harness reproducing the SpotFi evaluation (paper Sec. 4).
//!
//! * [`deployment`] — a Fig. 6-style building: a 16 m × 10 m multipath-rich
//!   office with six APs, two connected corridors with wall-mounted APs, and
//!   a block of concrete-walled rooms whose targets see at most two APs in
//!   line of sight.
//! * [`scenario`] — a runnable scenario: floorplan + APs + targets +
//!   impairment configuration.
//! * [`runner`] — generates traces and runs SpotFi, ArrayTrack, and the
//!   selection baselines over every (target, AP) pair, in parallel across
//!   targets under the pipeline's one thread budget.
//! * [`report`] — CDFs, medians/percentiles, and aligned text tables in the
//!   shape the paper's figures report.
//! * [`experiments`] — one module per paper figure (5, 7, 8, 9) plus the
//!   ablations, each with a `run` entry point shared by `spotfi figures`
//!   and the integration tests.

pub mod apartment;
pub mod deployment;
pub mod experiments;
pub mod fleet;
pub mod report;
pub mod runner;
pub mod scenario;

pub use apartment::Apartment;
pub use deployment::Deployment;
pub use fleet::{deployed_aps, FleetScenario, FleetScenarioConfig, FleetTarget};
pub use report::FigureSeries;
pub use runner::{LinkRecord, LocalizationRecord, Runner, RunnerConfig};
pub use scenario::Scenario;
