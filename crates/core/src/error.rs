//! Error types for the SpotFi pipeline.

use std::fmt;

/// Errors the estimation pipeline can produce.
#[derive(Clone, Debug, PartialEq)]
pub enum SpotFiError {
    /// The CSI matrix has the wrong shape for the configuration.
    CsiShapeMismatch {
        /// Shape the configuration requires, `(antennas, subcarriers)`.
        expected: (usize, usize),
        /// Shape that was provided.
        got: (usize, usize),
    },
    /// The CSI matrix contains non-finite or all-zero data.
    DegenerateCsi,
    /// The MUSIC spectrum produced no peaks (e.g. noise-only input).
    NoPaths,
    /// Fewer than two APs produced a direct-path estimate; the target
    /// cannot be triangulated.
    InsufficientAps {
        /// How many APs had usable direct-path estimates.
        usable: usize,
    },
    /// No packets were provided.
    NoPackets,
}

impl fmt::Display for SpotFiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpotFiError::CsiShapeMismatch { expected, got } => write!(
                f,
                "CSI shape mismatch: expected {}×{}, got {}×{}",
                expected.0, expected.1, got.0, got.1
            ),
            SpotFiError::DegenerateCsi => {
                write!(f, "CSI matrix is degenerate (non-finite or zero)")
            }
            SpotFiError::NoPaths => write!(f, "MUSIC spectrum produced no path estimates"),
            SpotFiError::InsufficientAps { usable } => write!(
                f,
                "only {} AP(s) produced usable direct-path estimates; at least 2 required",
                usable
            ),
            SpotFiError::NoPackets => write!(f, "no packets provided"),
        }
    }
}

impl std::error::Error for SpotFiError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, SpotFiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SpotFiError::CsiShapeMismatch {
            expected: (3, 30),
            got: (2, 30),
        };
        assert!(e.to_string().contains("3×30"));
        assert!(SpotFiError::InsufficientAps { usable: 1 }
            .to_string()
            .contains("1 AP"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(SpotFiError::NoPaths, SpotFiError::NoPaths);
        assert_ne!(SpotFiError::NoPaths, SpotFiError::NoPackets);
    }
}
