//! One module per paper figure.
//!
//! Each experiment exposes `run(&ExperimentOptions) -> …Result` and a
//! `render(&…Result) -> String` so `spotfi figures` and the integration
//! tests share one implementation.

pub mod ablation;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod through_wall;
pub mod tracking;

use crate::runner::RunnerConfig;

/// Shared experiment knobs: full fidelity for `spotfi figures`, trimmed for
/// tests and `--fast`.
#[derive(Clone, Debug, Default)]
pub struct ExperimentOptions {
    /// Estimator/baseline configuration.
    pub runner: RunnerConfig,
    /// Cap on targets per scenario (`None` = all, as in the paper).
    pub max_targets: Option<usize>,
    /// Override packets per fix (`None` = scenario default).
    pub packets_override: Option<usize>,
}

impl ExperimentOptions {
    /// Trimmed options for unit/integration tests: coarse grids, few
    /// targets, few packets.
    pub fn fast_test() -> Self {
        ExperimentOptions {
            runner: RunnerConfig::fast_test(),
            max_targets: Some(4),
            packets_override: Some(8),
        }
    }

    /// Applies the caps to a scenario.
    pub fn trim(&self, scenario: &mut crate::scenario::Scenario) {
        if let Some(max) = self.max_targets {
            scenario.targets.truncate(max);
        }
        if let Some(p) = self.packets_override {
            scenario.packets_per_fix = p;
        }
    }
}
