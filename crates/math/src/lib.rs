#![warn(missing_docs)]

//! # spotfi-math
//!
//! Numerics substrate for the SpotFi localization system.
//!
//! SpotFi's signal processing is small-scale but numerically delicate: it
//! eigendecomposes 30×30 complex Hermitian matrices, fits linear models to
//! unwrapped phase, clusters parameter estimates, and solves a non-convex
//! weighted least-squares localization problem. This crate provides exactly
//! those primitives, implemented from scratch so the workspace has no
//! external linear-algebra dependencies:
//!
//! * [`c64`] — a complex double with full arithmetic ([`complex`]).
//! * [`CMat`] — dense column-major complex matrices, and two Hermitian
//!   matrices stored as their packed lower triangle in one layout:
//!   [`PackedHermitianF64`], the working form the eigensolver decomposes
//!   in place, and [`PackedHermitian`], its at-rest form in `f32` pairs
//!   ([`matrix`]).
//! * [`eigen_tridiag`] — the one Hermitian eigensolver: Householder
//!   tridiagonalization + implicit-shift QL with partial eigenvector
//!   extraction (MUSIC, the Rayleigh–Ritz step and MUSIC-AoA), one
//!   Householder reduction for every caller. A cyclic-Jacobi solver is compiled only under `cfg(test)`, as the
//!   oracle it is cross-validated against.
//! * [`subspace`] — online dominant-subspace tracking (block power step +
//!   Rayleigh–Ritz) for streaming covariances, with a drift metric that
//!   tells callers when to re-anchor on the exact solver, and
//!   [`StoredBasis`], a tracked basis at rest in `f32` pairs.
//! * [`unwrap`] — 1-D phase unwrapping and angle wrapping into `(-π, π]`.
//! * [`optimize`] — Nelder–Mead simplex minimization.
//! * [`stats`] — means, variances, percentiles, empirical CDFs, linear fit.
//!
//! Everything is deterministic and allocation-light; matrices the size SpotFi
//! uses (≤ 90×90) decompose in microseconds.

pub mod complex;
#[cfg(test)]
mod eigen;
#[cfg(test)]
mod eigen_crossvalidate;
pub mod eigen_tridiag;
pub mod matrix;
pub mod optimize;
pub mod stats;
pub mod subspace;
pub mod unwrap;

pub use complex::c64;
pub use eigen_tridiag::{
    hermitian_eigen_partial, hermitian_eigen_partial_batch_into, hermitian_eigen_partial_in_place,
    hermitian_eigen_partial_into, BatchTridiagWorkspace, PartialHermitianEigen, TridiagWorkspace,
    BATCH_LANES,
};
pub use matrix::{CMat, PackedHermitian, PackedHermitianF64};
pub use subspace::{StoredBasis, SubspaceTracker};
