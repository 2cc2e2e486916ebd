//! Joint AoA/ToF MUSIC over the smoothed CSI matrix (Algorithm 2, steps
//! 4–6).
//!
//! The smoothed measurement matrix `X` (30 × 32) has covariance
//! `R = X·Xᴴ` whose eigenvectors split into a *signal subspace* (eigenvalues
//! comparable to λ_max, one per path) and a *noise subspace* (eigenvalues
//! near zero). Steering vectors of true paths are orthogonal to the noise
//! subspace, so the pseudospectrum
//!
//! ```text
//! P(θ, τ) = 1 / (a(θ,τ)ᴴ · E_N·E_Nᴴ · a(θ,τ))
//! ```
//!
//! peaks sharply at each path's `(θ, τ)`.
//!
//! ### Eigendecomposition
//!
//! The projector is formed as the signal-subspace complement
//! `G = I − E_S·E_Sᴴ`, so only the top `max_paths` eigenvectors are ever
//! needed. Every solve therefore uses the tridiagonalization + QL +
//! inverse-iteration *partial* solver ([`spotfi_math::eigen_tridiag`]),
//! the workspace's one production eigensolver.
//!
//! ### Factored evaluation
//!
//! `a(θ,τ)` has Kronecker structure (antenna ⊗ subcarrier), so with
//! `G` partitioned into antenna blocks `G[ma][mb]` (each `N_s × N_s`), the
//! denominator factors as
//! `Σ_{ma,mb} Φ̄^ma·Φ^mb · (ωᴴ·G[ma][mb]·ω)`. The distinct antenna blocks
//! of `G` are packed contiguously (`G` is Hermitian, so only `ma ≥ mb` is
//! stored); the block quadratic forms `ωᴴ·G[ma][mb]·ω` then cost
//! O(M_s²·N_s²) per τ, and each `(θ, τ)` cell costs O(M_s²) on top of its
//! τ column's forms.
//!
//! Every packet reaches these blocks through one hand-off,
//! `prepare_from_basis`: given a signal basis — exact eigenvectors, or
//! the streaming path's tracked Ritz vectors — it applies the
//! noise-threshold rule and writes the packed blocks of `G` straight from
//! the signal vectors. The dense `n × n` projector is never formed.
//!
//! ### Coarse-to-fine search
//!
//! The pipeline only consumes the *peaks* of `P(θ, τ)`, so it skips the
//! dense grid entirely ([`music_paths_coarse_to_fine`]): a cheap detection
//! level — AoA decimated by the coarse factor, τ at full fine resolution
//! with block forms rebuilt from the few signal eigenvectors — seeds
//! candidate basins at its local maxima, each basin zooms through
//! successively finer fine-grid-aligned AoA patches (values there are
//! computed by the *same* packed-block kernels as the dense sweep, so they
//! are bit-identical to the dense grid's), hill-climbs to a genuine
//! fine-grid local maximum, and is finally polished *off-grid* with Newton
//! iterations over the 9-point log-power paraboloid fit shared with
//! [`crate::peaks`]. The detection level is asymmetric on purpose: MUSIC τ
//! peaks are super-resolved and can be one fine cell wide, which a
//! decimated τ axis would straddle, while per-τ AoA profiles of the small
//! smoothed subarrays are broad single lobes that decimate safely. The
//! off-grid Newton stencils are evaluated from the packed Hermitian
//! `G`-blocks with steering phases generated by the incremental
//! recurrences in [`crate::steering`] — one `cis` per axis per point, no
//! per-subcarrier transcendentals. Block quadratic
//! forms `ωᴴ·G[ma][mb]·ω` depend only on τ, so they are memoized per
//! fine-grid τ index for the duration of a packet and shared across
//! basins, levels, and the coarse sweep. The dense sweep
//! ([`music_spectrum_cached`]) stays as the reference the search is
//! checked against.

use spotfi_channel::constants::half_wavelength_spacing;
use spotfi_math::eigen_tridiag::hermitian_eigen_partial_into;
use spotfi_math::{c64, CMat, TridiagWorkspace};

use crate::config::{GridSpec, MusicConfig, SpotFiConfig};
use crate::error::{Result, SpotFiError};
use crate::peaks::{paraboloid_offset, PathEstimate};
use crate::steering::{omega_powers_into, phi_powers_into, SteeringCache};

/// AoA decimation of the coarse-to-fine detection level, in fine cells.
const COARSE_FACTOR: usize = 4;

/// Zoom levels between the detection level and the fine grid: with
/// [`COARSE_FACTOR`] 4, AoA strides of 2 then 1 fine cells.
const ZOOM_LEVELS: usize = 2;

/// Half-width of each zoom patch, in that level's stride (a patch spans
/// `2·BASIN_RADIUS + 1` points per axis).
const BASIN_RADIUS: usize = 2;

/// A sampled MUSIC pseudospectrum over the (AoA, ToF) grid.
#[derive(Clone, Debug)]
pub struct MusicSpectrum {
    /// AoA grid (degrees).
    pub aoa_grid: GridSpec,
    /// ToF grid (nanoseconds, relative — STO shifts the origin).
    pub tof_grid: GridSpec,
    /// Pseudospectrum values, indexed `[i_aoa · tof_len + i_tof]`.
    pub values: Vec<f64>,
    /// Number of signal-subspace eigenvectors used.
    pub signal_dimension: usize,
}

impl MusicSpectrum {
    /// Builds a spectrum from raw values (indexed
    /// `[i_aoa · tof_len + i_tof]`).
    ///
    /// # Panics
    /// Panics if `values.len() != aoa_grid.len() * tof_grid.len()`.
    pub fn new(
        aoa_grid: GridSpec,
        tof_grid: GridSpec,
        values: Vec<f64>,
        signal_dimension: usize,
    ) -> Self {
        assert_eq!(
            values.len(),
            aoa_grid.len() * tof_grid.len(),
            "values length must match the grid"
        );
        MusicSpectrum {
            aoa_grid,
            tof_grid,
            values,
            signal_dimension,
        }
    }

    /// Value at grid indices.
    #[inline]
    pub fn at(&self, i_aoa: usize, i_tof: usize) -> f64 {
        self.values[i_aoa * self.tof_grid.len() + i_tof]
    }

    /// The global maximum as `(aoa_deg, tof_ns, value)`: the first strict
    /// maximum in `(i_aoa, i_tof)` scan order.
    pub fn argmax(&self) -> (f64, f64, f64) {
        let mut best = (0, f64::MIN);
        for (i, &v) in self.values.iter().enumerate() {
            if v > best.1 {
                best = (i, v);
            }
        }
        let n_tof = self.tof_grid.len();
        (
            self.aoa_grid.value(best.0 / n_tof),
            self.tof_grid.value(best.0 % n_tof),
            self.values[best.0],
        )
    }
}

/// Reusable per-worker buffers for the per-packet MUSIC chain: the
/// covariance `X·Xᴴ`, the eigensolver workspace, and the sweep buffers
/// that `prepare_from_basis` fills from a signal basis. One packet's
/// analysis fully overwrites all of them, so a scratch can be reused
/// across any number of packets (the pipeline keeps one per worker thread).
#[derive(Clone, Debug, Default)]
pub struct MusicScratch {
    /// Covariance buffer. The streaming pipeline builds a fresh product or
    /// unpacks a stream's rolling covariance here once per packet; the
    /// subspace tracker and [`eigen_of_cov`](Self::eigen_of_cov) read it.
    pub(crate) cov: CMat,
    /// Exact eigendecomposition of `cov`, solved into it by
    /// [`eigen_of_cov`](Self::eigen_of_cov) for every exact packet, batch
    /// or streaming anchor.
    pub(crate) eig: TridiagWorkspace,
    /// Packed `G`-blocks and the searches' buffers.
    pub(crate) sweep: SweepScratch,
}

/// The sweep half of a [`MusicScratch`]: the packed `G`-blocks of the
/// current packet's basis and every buffer the searches evaluate with.
/// Kept apart from the eigensolver workspace so a basis held in that
/// workspace can be read while these buffers are written.
#[derive(Clone, Debug, Default)]
pub(crate) struct SweepScratch {
    /// Packed projector blocks (layout at [`prepare_from_basis`]).
    gblocks: Vec<c64>,
    /// Per-τ-index memo of the block quadratic forms `b_p(τ) = ωᴴ·G_p·ω`
    /// (`npairs` entries per fine-grid τ), valid for the packet whose
    /// projector is currently packed in `gblocks`.
    tau_forms: Vec<c64>,
    /// Which `tau_forms` rows are filled for the current packet.
    tau_ready: Vec<bool>,
    /// `G_p·ω` work column (length `ns`).
    col: Vec<c64>,
    /// Off-grid Φ powers, 3 stencil rows (length `3·ms`).
    phi_buf: Vec<c64>,
    /// Off-grid Ω powers, 3 stencil rows (length `3·ns`).
    omega_buf: Vec<c64>,
    /// Off-grid block quadratic forms, 3 stencil rows (length `3·npairs`).
    /// The detection level borrows the first row for each τ column's
    /// detector forms before any stencil runs.
    forms_buf: Vec<c64>,
    /// Signal-eigenvector ω-projections `u_{k,m}` for one τ column of the
    /// coarse detection level (length `max_paths · ms`).
    u_buf: Vec<c64>,
    /// The coarse detection level's last three τ columns, one value per
    /// decimated AoA row, column `j` in slot `j mod 3` (`3 · n_rows`
    /// values, sized lazily by [`music_paths_coarse_to_fine`]). A column's
    /// local-maximum test reads only its two τ neighbours, so the
    /// `n_rows × n_tof` level is streamed through this window, never
    /// stored.
    det_ring: Vec<f64>,
}

impl MusicScratch {
    /// Allocates buffers sized for `cfg`'s smoothed-matrix dimension.
    pub fn new(cfg: &SpotFiConfig) -> Self {
        let n = cfg.smoothed_rows();
        let mut s = MusicScratch {
            cov: CMat::zeros(n, n),
            ..MusicScratch::default()
        };
        s.sweep.ensure_buffers(cfg);
        s
    }

    /// Exact partial eigensolve of the covariance buffer into the
    /// eigensolver workspace: the top `max_paths` eigenpairs plus the full
    /// spectrum.
    pub(crate) fn eigen_of_cov(&mut self, max_paths: usize) {
        hermitian_eigen_partial_into(&self.cov, max_paths, &mut self.eig);
    }

    /// The one-shot exact chain: covariance of `smoothed`, partial
    /// eigensolve, then [`prepare_from_basis`] on the eigenvectors in place.
    fn prepare_exact(&mut self, smoothed: &CMat, cfg: &SpotFiConfig) -> Result<usize> {
        let _span = spotfi_obs::span("stage.eigen");
        covariance_into(smoothed, &mut self.cov)?;
        self.eigen_of_cov(cfg.music.max_paths);
        prepare_from_basis(cfg, &mut self.sweep, self.eig.values(), self.eig.vectors())
    }
}

impl SweepScratch {
    /// Sizes the sweep/evaluation buffers for `cfg` (no-op once sized, so
    /// a worker's scratch allocates exactly once).
    fn ensure_buffers(&mut self, cfg: &SpotFiConfig) {
        let ms = cfg.smoothing.sub_antennas;
        let ns = cfg.smoothing.sub_subcarriers;
        let npairs = ms * (ms + 1) / 2;
        let n_tof = cfg.music.tof_grid_ns.len();
        self.gblocks.resize(npairs * ns * ns, c64::ZERO);
        self.tau_forms.resize(npairs * n_tof, c64::ZERO);
        self.tau_ready.resize(n_tof, false);
        self.col.resize(ns, c64::ZERO);
        // 3 rows each: an off-grid 3×3 polish stencil shares its Φ/Ω powers
        // and τ-forms across the row/column it belongs to.
        self.phi_buf.resize(3 * ms, c64::ZERO);
        self.omega_buf.resize(3 * ns, c64::ZERO);
        self.forms_buf.resize(3 * npairs, c64::ZERO);
        self.u_buf.resize(cfg.music.max_paths * ms, c64::ZERO);
    }
}

/// The covariance `X·Xᴴ` of a smoothed measurement matrix, with the
/// finite-ness check that rejects NaN/Inf CSI as degenerate. Every fresh
/// product is built here, one packet at a time: a batch packet's before its
/// own eigensolve, a stream's when it starts (or, at `λ = 0`, replaces) its
/// rolling sum.
pub(crate) fn covariance_into(smoothed: &CMat, cov: &mut CMat) -> Result<()> {
    smoothed.mul_hermitian_self_into(cov);
    if !cov.as_slice().iter().all(|z| z.is_finite()) {
        return Err(SpotFiError::DegenerateCsi);
    }
    Ok(())
}

/// Algorithm 2's noise-threshold rule: the number of descending `values`
/// at least `noise_threshold_ratio · λ_max`, capped at `max_paths` and at
/// least 1. Counting over the full spectrum or only its top `max_paths`
/// values gives the same answer, since the cap applies either way. A
/// non-positive `λ_max` means the covariance carries no signal.
pub(crate) fn signal_dimension(music: &MusicConfig, values: &[f64]) -> Result<usize> {
    let lmax = values.first().copied().unwrap_or(0.0).max(0.0);
    if lmax <= 0.0 {
        return Err(SpotFiError::DegenerateCsi);
    }
    let threshold = music.noise_threshold_ratio * lmax;
    let by_threshold = values.iter().filter(|&&l| l >= threshold).count();
    Ok(by_threshold.min(music.max_paths).max(1))
}

/// Prepares `sweep` for a packet from its signal basis: `vectors` are the
/// orthonormal basis columns ordered by descending `values` (an exact
/// eigendecomposition, or the subspace tracker's Ritz pairs), from which
/// [`signal_dimension`] picks the leading `d`. Returns `d`.
///
/// The noise projector is the signal-subspace complement
/// `G = I − E_S·E_Sᴴ`, which equals the sum over the noise eigenvectors
/// (the eigenbasis is orthonormal and complete) but needs only `d ≤
/// max_paths` outer products, and so only the top eigenvectors. Only the
/// distinct antenna blocks of `G` are stored, column-major per block:
/// `gblocks[p·ns² + j·ns + i] = G[ma·ns + i, mb·ns + j]` for pair
/// `p ↔ (ma, mb)`, `ma ≥ mb` (`G` is Hermitian, the upper blocks are
/// conjugate mirrors), so evaluation kernels read only unit-stride slices.
/// Each entry is `δ(r, c)` minus `v_k[r]·conj(v_k[c])` for `k` ascending.
/// The per-packet τ-forms memo is invalidated.
pub(crate) fn prepare_from_basis(
    cfg: &SpotFiConfig,
    sweep: &mut SweepScratch,
    values: &[f64],
    vectors: &CMat,
) -> Result<usize> {
    let signal_dimension = signal_dimension(&cfg.music, values)?;
    spotfi_obs::value("eigen.signal_dimension", signal_dimension as f64);
    let ms = cfg.smoothing.sub_antennas;
    let ns = cfg.smoothing.sub_subcarriers;
    debug_assert_eq!(vectors.rows(), ms * ns);
    sweep.ensure_buffers(cfg);
    let mut blocks = sweep.gblocks.chunks_exact_mut(ns * ns);
    for ma in 0..ms {
        for mb in 0..=ma {
            let block = blocks.next().expect("gblocks sized for every antenna pair");
            block.fill(c64::ZERO);
            if ma == mb {
                for i in 0..ns {
                    block[i * ns + i] = c64::ONE;
                }
            }
            for k in 0..signal_dimension {
                let v = vectors.col(k);
                let rows = &v[ma * ns..(ma + 1) * ns];
                for (j, gcol) in block.chunks_exact_mut(ns).enumerate() {
                    let vc = v[mb * ns + j].conj();
                    for (g, &vr) in gcol.iter_mut().zip(rows) {
                        *g -= vr * vc;
                    }
                }
            }
        }
    }
    sweep.tau_ready.fill(false);
    Ok(signal_dimension)
}

/// Computes the `M_s(M_s+1)/2` block quadratic forms
/// `b_p = ωᴴ·G[ma][mb]·ω` (pair `p ↔ (ma, mb)`, `ma ≥ mb`) for one ω row
/// from the packed `G`-blocks. `col` is an `ns`-length work buffer; the
/// forms land in `out[..npairs]`.
///
/// This is the τ-dependent inner kernel shared by the dense sweep,
/// the coarse-to-fine search (which memoizes its output per fine-grid τ),
/// and the off-grid point evaluator.
#[inline]
fn block_quadforms(gb: &[c64], ms: usize, ns: usize, w: &[c64], col: &mut [c64], out: &mut [c64]) {
    let mut p = 0;
    for _ma in 0..ms {
        for _mb in 0.._ma + 1 {
            let base = p * ns * ns;
            // col = G_block·ω as an axpy over contiguous block columns,
            // then b = ωᴴ·col.
            col.fill(c64::ZERO);
            for j in 0..ns {
                let wj = w[j];
                let gcol = &gb[base + j * ns..base + (j + 1) * ns];
                for i in 0..ns {
                    col[i] += gcol[i] * wj;
                }
            }
            let mut acc = c64::ZERO;
            for i in 0..ns {
                acc += w[i].conj() * col[i];
            }
            out[p] = acc;
            p += 1;
        }
    }
}

/// Combines one AoA row's Φ powers with precomputed block quadratic forms
/// into the pseudospectrum denominator `a(θ,τ)ᴴ·G·a(θ,τ)`. The Hermitian
/// mirror pairs contribute `2·Re(Φ̄^ma·b·Φ^mb)`; diagonal blocks are real
/// quadratic forms.
#[inline]
fn denom_from_forms(ph: &[c64], b: &[c64], ms: usize) -> f64 {
    let mut denom = 0.0f64;
    let mut p = 0;
    for ma in 0..ms {
        for mb in 0..ma {
            let z = ph[ma].conj() * b[p] * ph[mb];
            denom += 2.0 * z.re;
            p += 1;
        }
        denom += ph[ma].norm_sqr() * b[p].re;
        p += 1;
    }
    denom
}

/// Evaluates the MUSIC pseudospectrum on the configured grid using the
/// factored Kronecker evaluation.
///
/// Convenience wrapper around [`music_spectrum_cached`] that builds the
/// steering table and scratch buffers for this one call; callers that
/// sweep many packets reuse both instead.
pub fn music_spectrum(smoothed: &CMat, cfg: &SpotFiConfig) -> Result<MusicSpectrum> {
    let cache = SteeringCache::new(cfg);
    let mut scratch = MusicScratch::new(cfg);
    music_spectrum_cached(smoothed, cfg, &cache, &mut scratch)
}

/// Evaluates the MUSIC pseudospectrum on the whole configured grid with
/// precomputed steering factors and reusable scratch buffers.
///
/// This is the dense reference the coarse-to-fine and warm searches are
/// checked against; the serving path never builds the full grid. It is one
/// serial pass over the same kernels those searches read: the block
/// quadratic forms once per τ column (into the scratch's τ-forms rows),
/// then one `O(M_s²)` denominator per cell, so every cell carries the bits
/// a sparse search computes for it.
///
/// # Panics
/// Panics if `cache` was built for a different grid/subarray shape.
pub fn music_spectrum_cached(
    smoothed: &CMat,
    cfg: &SpotFiConfig,
    cache: &SteeringCache,
    scratch: &mut MusicScratch,
) -> Result<MusicSpectrum> {
    assert!(
        cache.matches(cfg),
        "SteeringCache built for a different SpotFiConfig"
    );
    let signal_dimension = scratch.prepare_exact(smoothed, cfg)?;
    let ns = cfg.smoothing.sub_subcarriers;
    let ms = cfg.smoothing.sub_antennas;
    let _span = spotfi_obs::span("stage.sweep");
    let npairs = ms * (ms + 1) / 2;

    let aoa_grid = cfg.music.aoa_grid_deg;
    let tof_grid = cfg.music.tof_grid_ns;
    let n_aoa = aoa_grid.len();
    let n_tof = tof_grid.len();
    if spotfi_obs::enabled() {
        spotfi_obs::counter("music.dense_sweeps", 1);
        spotfi_obs::counter("music.sweep_cells", (n_aoa * n_tof) as u64);
    }

    let SweepScratch {
        gblocks,
        tau_forms,
        col,
        ..
    } = &mut scratch.sweep;
    for (it, forms) in tau_forms.chunks_exact_mut(npairs).enumerate() {
        block_quadforms(gblocks, ms, ns, cache.omega_row(it), col, forms);
    }
    let mut values = Vec::with_capacity(n_aoa * n_tof);
    for ia in 0..n_aoa {
        let ph = cache.phi_row(ia);
        values.extend(
            tau_forms
                .chunks_exact(npairs)
                .map(|b| 1.0 / denom_from_forms(ph, b, ms).max(1e-12)),
        );
    }
    Ok(MusicSpectrum {
        aoa_grid,
        tof_grid,
        values,
        signal_dimension,
    })
}

/// Disjoint borrows of a prepared [`SweepScratch`] plus the constants the
/// sparse-search kernels need: the working state of one coarse-to-fine
/// search.
struct EvalCtx<'a> {
    gb: &'a [c64],
    tau_forms: &'a mut [c64],
    tau_ready: &'a mut [bool],
    col: &'a mut [c64],
    phi: &'a mut [c64],
    omega: &'a mut [c64],
    forms: &'a mut [c64],
    cache: &'a SteeringCache,
    ms: usize,
    ns: usize,
    npairs: usize,
    spacing_m: f64,
    carrier_hz: f64,
    subcarrier_spacing_hz: f64,
    /// τ-forms memo hits/misses, accumulated locally (plain integer adds on
    /// the hot path) and emitted as observability counters once per search.
    memo_hits: u64,
    memo_misses: u64,
}

impl<'a> EvalCtx<'a> {
    /// The search state over a `sweep` that [`prepare_from_basis`] filled.
    fn new(cfg: &SpotFiConfig, cache: &'a SteeringCache, sweep: &'a mut SweepScratch) -> Self {
        let ms = cfg.smoothing.sub_antennas;
        let SweepScratch {
            gblocks,
            tau_forms,
            tau_ready,
            col,
            phi_buf,
            omega_buf,
            forms_buf,
            ..
        } = sweep;
        EvalCtx {
            gb: gblocks,
            tau_forms,
            tau_ready,
            col,
            phi: phi_buf,
            omega: omega_buf,
            forms: forms_buf,
            cache,
            ms,
            ns: cfg.smoothing.sub_subcarriers,
            npairs: ms * (ms + 1) / 2,
            spacing_m: half_wavelength_spacing(cfg.ofdm.carrier_hz),
            carrier_hz: cfg.ofdm.carrier_hz,
            subcarrier_spacing_hz: cfg.ofdm.subcarrier_spacing_hz,
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    /// Pseudospectrum value at fine-grid indices `(ia, it)` — identical
    /// arithmetic to the dense sweep, so identical bits. The τ block
    /// quadratic forms are memoized per fine τ index for the lifetime of
    /// the packet (they are shared by every AoA and every basin that
    /// touches this τ column).
    fn grid_value(&mut self, ia: usize, it: usize) -> f64 {
        let np = self.npairs;
        if self.tau_ready[it] {
            self.memo_hits += 1;
        } else {
            self.memo_misses += 1;
            block_quadforms(
                self.gb,
                self.ms,
                self.ns,
                self.cache.omega_row(it),
                self.col,
                &mut self.tau_forms[it * np..(it + 1) * np],
            );
            self.tau_ready[it] = true;
        }
        let b = &self.tau_forms[it * np..(it + 1) * np];
        1.0 / denom_from_forms(self.cache.phi_row(ia), b, self.ms).max(1e-12)
    }

    /// 3×3 pseudospectrum stencil centered at the off-grid point
    /// `(aoa_deg, tof_ns)` with half-steps `(ha_deg, ht_ns)`:
    /// `out[i][j] = P(aoa + (i−1)·ha, tof + (j−1)·ht)`.
    ///
    /// The Kronecker factoring makes this cost 3 block-quadform columns
    /// (one per distinct τ) plus 9 cheap `O(M_s²)` denominators — not 9
    /// full evaluations.
    fn off_grid_stencil(
        &mut self,
        aoa_deg: f64,
        tof_ns: f64,
        ha_deg: f64,
        ht_ns: f64,
    ) -> [[f64; 3]; 3] {
        let (ms, ns, np) = (self.ms, self.ns, self.npairs);
        for k in 0..3 {
            let theta = (aoa_deg + (k as f64 - 1.0) * ha_deg).to_radians();
            phi_powers_into(
                theta.sin(),
                self.spacing_m,
                self.carrier_hz,
                &mut self.phi[k * ms..(k + 1) * ms],
            );
            let tau = (tof_ns + (k as f64 - 1.0) * ht_ns) * 1e-9;
            omega_powers_into(
                tau,
                self.subcarrier_spacing_hz,
                &mut self.omega[k * ns..(k + 1) * ns],
            );
        }
        for k in 0..3 {
            block_quadforms(
                self.gb,
                ms,
                ns,
                &self.omega[k * ns..(k + 1) * ns],
                self.col,
                &mut self.forms[k * np..(k + 1) * np],
            );
        }
        let mut out = [[0.0f64; 3]; 3];
        for (i, row) in out.iter_mut().enumerate() {
            let ph = &self.phi[i * ms..(i + 1) * ms];
            for (j, v) in row.iter_mut().enumerate() {
                *v = 1.0 / denom_from_forms(ph, &self.forms[j * np..(j + 1) * np], ms).max(1e-12);
            }
        }
        out
    }
}

/// Paths extracted by the hierarchical coarse-to-fine sweep, plus the
/// eigendecomposition bookkeeping a caller of the dense path would have
/// read off the [`MusicSpectrum`].
#[derive(Clone, Debug)]
pub struct CoarseFinePaths {
    /// Extracted paths, strongest first — the same contract as
    /// [`crate::peaks::find_peaks_filtered`] on the dense spectrum
    /// (`max_paths` cap and `min_relative_peak_power` floor applied).
    pub paths: Vec<PathEstimate>,
    /// Number of signal-subspace eigenvectors used.
    pub signal_dimension: usize,
    /// Fine-grid `(i_aoa, i_tof)` cell of each reported path, in `paths`
    /// order (before the off-grid polish displaced it). The streaming path
    /// seeds the next packet's warm-started search from these cells.
    pub grid_peaks: Vec<(usize, usize)>,
}

/// Extracts MUSIC path peaks by hierarchical coarse-to-fine search instead
/// of a dense grid sweep.
///
/// 1. **Detection level.** AoA rows are sampled at `COARSE_FACTOR×` the
///    configured step (boundary row always included) while τ stays at full
///    fine resolution — super-resolved τ basins can be one fine cell wide,
///    so the τ axis must not be decimated, whereas per-τ AoA profiles are
///    broad lobes. Full-τ detection stays cheap by rebuilding the τ block
///    forms from the `signal_dimension` signal eigenvectors
///    (`O(K·M_s·N_s)` per column instead of the exact `O(M_s²·N_s²)`
///    kernels). 8-neighborhood local maxima of the detection grid seed
///    candidate basins, strongest first, capped at `max_paths + 4`. The
///    level is streamed by τ column through a three-column window, never
///    stored whole.
/// 2. **Zoom.** Each basin walks through `ZOOM_LEVELS` patches of
///    `(2·BASIN_RADIUS + 1)²` points whose AoA steps shrink geometrically
///    to one fine cell (τ offsets stay at one fine cell — the detector
///    already resolved τ). Every zoom evaluation is fine-grid-aligned,
///    computed by the dense sweep's own kernels with the τ block quadratic
///    forms memoized per fine τ index — values are bit-identical to the
///    dense grid's, and basins share τ columns.
/// 3. **Summit.** Each zoomed candidate hill-climbs to a genuine fine-grid
///    local maximum under the dense peak scan's exact plateau tie-break,
///    so the surviving set is a subset of the dense sweep's peaks (grid
///    boundary and flat plateaus excluded alike). Duplicates merge; the
///    survivors are ranked by value exactly like the dense path and
///    filtered by `min_relative_peak_power`.
/// 4. **Polish.** Each peak is refined with the shared 9-point log-power
///    paraboloid fit ([`crate::peaks::paraboloid_offset`]) — first for free
///    on the already-evaluated fine stencil (the dense path's own
///    refinement), then up to two Newton steps on shrinking off-grid
///    stencils (three block-quadform columns and nine `O(M_s²)`
///    denominators each), displacement clamped to one fine cell. The
///    reported `power` is the fine-grid cell value, bit-identical to the
///    dense sweep's.
///
/// # Panics
/// Panics if `cache` was built for a different grid/subarray shape.
pub fn music_paths_coarse_to_fine(
    smoothed: &CMat,
    cfg: &SpotFiConfig,
    cache: &SteeringCache,
    scratch: &mut MusicScratch,
) -> Result<CoarseFinePaths> {
    assert!(
        cache.matches(cfg),
        "SteeringCache built for a different SpotFiConfig"
    );
    let signal_dimension = scratch.prepare_exact(smoothed, cfg)?;
    coarse_to_fine_prepared(cfg, cache, scratch, signal_dimension)
}

/// The hierarchical search of [`music_paths_coarse_to_fine`] over a scratch
/// that [`prepare_from_basis`] already prepared from its own eigensolver
/// workspace (the detection level reads the signal eigenvectors there).
pub(crate) fn coarse_to_fine_prepared(
    cfg: &SpotFiConfig,
    cache: &SteeringCache,
    scratch: &mut MusicScratch,
    signal_dimension: usize,
) -> Result<CoarseFinePaths> {
    assert!(
        cache.matches(cfg),
        "SteeringCache built for a different SpotFiConfig"
    );
    let _span = spotfi_obs::span("stage.sweep");
    let MusicScratch { eig, sweep, .. } = &mut *scratch;
    let cands = detection_candidates(cfg, cache, eig.vectors(), signal_dimension, sweep);

    // Zoom steps shrink geometrically from the coarse AoA stride to one
    // fine cell: coarse = 4, levels = 2 → strides of 2 then 1 fine cells.
    // All strides are integer fine cells, so every evaluation hits the τ
    // memo. Only the AoA axis zooms — the detector already resolved τ to
    // a fine index, so τ patch offsets stay at one fine cell per level
    // (drift while the AoA refines is absorbed by patches + hill-climb).
    let steps: Vec<usize> = (1..=ZOOM_LEVELS)
        .map(|l| {
            if l == ZOOM_LEVELS {
                1
            } else {
                (COARSE_FACTOR as f64)
                    .powf((ZOOM_LEVELS - l) as f64 / ZOOM_LEVELS as f64)
                    .round()
                    .max(1.0) as usize
            }
        })
        .collect();

    search_candidates_prepared(cfg, cache, scratch, signal_dimension, &cands, &steps, false)
}

/// The detection level of [`coarse_to_fine_prepared`]: its local maxima
/// as basin seeds `(value, i_aoa, i_tof)`, sorted by value descending then
/// `(i_aoa, i_tof)` ascending, and capped at `max_paths + 4`. `vectors`
/// holds the signal basis in its leading `signal_dimension` columns.
///
/// AoA rows are decimated by `COARSE_FACTOR` (boundary row always
/// sampled), τ stays at FULL fine resolution. The axes are deliberately
/// asymmetric: MUSIC τ peaks are super-resolved — on a clean channel a
/// basin can be a single fine τ column wide, so *any* τ decimation can
/// straddle it — while the AoA profile of each τ column is a handful of
/// broad lobes for the small smoothed subarrays (for `M_s = 2` it is
/// provably a single cosine lobe in `sin θ`), so the AoA axis decimates
/// safely. Full-τ detection is affordable because the detector evaluates
/// the τ block forms from the `signal_dimension` signal eigenvectors
/// instead of the packed projector: with `G = I − E_S·E_Sᴴ`,
///
/// ```text
/// b_p(τ) = δ_{ma,mb}·N_s − Σ_k u_{k,ma}·ū_{k,mb},
/// u_{k,m} = Σ_i ω̄_i·e_k[m·N_s + i]
/// ```
///
/// which is `O(K·M_s·N_s)` per column against the exact kernels'
/// `O(M_s²·N_s²)`. Detector values differ from the exact ones only by
/// floating-point rounding, and they only *seed* basins — every value
/// that ranks, dedups, or gets reported downstream comes from the exact
/// memoized dense-sweep kernels.
///
/// The level streams by τ column: column `j + 1` is built before column
/// `j`'s peak test runs, and only the last three columns are kept, so the
/// working set is `3 × n_rows` values (1.1 KB at the default grid); the
/// `n_rows × n_tof` level (92 KB there) is never stored.
fn detection_candidates(
    cfg: &SpotFiConfig,
    cache: &SteeringCache,
    vectors: &CMat,
    signal_dimension: usize,
    sweep: &mut SweepScratch,
) -> Vec<(f64, usize, usize)> {
    let ms = cfg.smoothing.sub_antennas;
    let ns = cfg.smoothing.sub_subcarriers;
    let npairs = ms * (ms + 1) / 2;
    let na = cfg.music.aoa_grid_deg.len();
    let nt = cfg.music.tof_grid_ns.len();
    let mut ca: Vec<usize> = (0..na).step_by(COARSE_FACTOR).collect();
    if *ca.last().unwrap() != na - 1 {
        ca.push(na - 1);
    }
    let nca = ca.len();
    // Per-row constants of the `ms == 2` arm, hoisted out of the τ loop so
    // each column's fill is one call-free pass over the rows.
    let rows2: Vec<(f64, f64, c64, c64)> = if ms == 2 {
        ca.iter()
            .map(|&ia| {
                let ph = cache.phi_row(ia);
                (ph[0].norm_sqr(), ph[1].norm_sqr(), ph[0], ph[1].conj())
            })
            .collect()
    } else {
        Vec::new()
    };
    // Hoist the eigenvector segment slices out of the τ loop; each dot
    // keeps the sequential i-ascending register accumulation.
    let mut segs: Vec<&[c64]> = Vec::with_capacity(signal_dimension * ms);
    for k in 0..signal_dimension {
        let e = vectors.col(k);
        for m in 0..ms {
            segs.push(&e[m * ns..(m + 1) * ns]);
        }
    }
    let SweepScratch {
        u_buf,
        forms_buf,
        det_ring,
        ..
    } = sweep;
    let u = &mut u_buf[..signal_dimension * ms];
    let bf = &mut forms_buf[..npairs];
    det_ring.resize(3 * nca, 0.0);
    let mut cands: Vec<(f64, usize, usize)> = Vec::new();
    for it in 0..nt {
        let w = cache.omega_row(it);
        for (um, seg) in u.iter_mut().zip(segs.iter()) {
            let mut acc = c64::ZERO;
            for (wi, ei) in w.iter().zip(seg.iter()) {
                acc += wi.conj() * *ei;
            }
            *um = acc;
        }
        let mut p = 0;
        for ma in 0..ms {
            for mb in 0..=ma {
                let mut acc = if ma == mb {
                    c64::new(ns as f64, 0.0)
                } else {
                    c64::ZERO
                };
                for k in 0..signal_dimension {
                    acc -= u[k * ms + ma] * u[k * ms + mb].conj();
                }
                bf[p] = acc;
                p += 1;
            }
        }
        // Column `it` into ring slot `it mod 3`, one value per coarse row.
        // The `ms == 2` arm replays `denom_from_forms`'s exact operation
        // sequence for that shape (diagonal term, cross term, diagonal
        // term), so both arms produce bit-identical values; with the forms
        // broadcast and the loop body free of calls it vectorizes across
        // rows.
        let slot = &mut det_ring[(it % 3) * nca..(it % 3 + 1) * nca];
        if ms == 2 {
            let (b0, b1, b2) = (bf[0].re, bf[1], bf[2].re);
            for (rv, &(n0, n1, ph0, ph1c)) in slot.iter_mut().zip(&rows2) {
                let mut denom = 0.0f64;
                denom += n0 * b0;
                let z = ph1c * b1 * ph0;
                denom += 2.0 * z.re;
                denom += n1 * b2;
                *rv = 1.0 / denom.max(1e-12);
            }
        } else {
            for (rv, &ia) in slot.iter_mut().zip(&ca) {
                *rv = 1.0 / denom_from_forms(cache.phi_row(ia), bf, ms).max(1e-12);
            }
        }
        // Column `it − 1` now has both τ neighbours in the ring.
        if it > 0 {
            let col = |j: usize| &det_ring[(j % 3) * nca..(j % 3 + 1) * nca];
            let prev = (it > 1).then(|| col(it - 2));
            column_peaks(col(it - 1), prev, Some(col(it)), &ca, it - 1, &mut cands);
        }
    }
    let col = |j: usize| &det_ring[(j % 3) * nca..(j % 3 + 1) * nca];
    let prev = (nt > 1).then(|| col(nt - 2));
    column_peaks(col(nt - 1), prev, None, &ca, nt - 1, &mut cands);

    // The sort key is total over distinct cells, so the column-major push
    // order leaves no trace in the ranking.
    cands.sort_by(|x, y| {
        y.0.partial_cmp(&x.0)
            .unwrap()
            .then((x.1, x.2).cmp(&(y.1, y.2)))
    });
    cands.truncate(cfg.music.max_paths + 4);
    cands
}

/// Appends the detection-level local maxima of τ column `j` to `cands`.
/// `cur` holds the column's values by coarse row, `prev` and `next` its τ
/// neighbours (absent at the grid's edges), and `ca` maps coarse rows to
/// AoA indices.
///
/// Unlike the dense peak scan, *boundary* cells may qualify (missing
/// neighbours are simply absent): an interior fine peak can sit inside a
/// boundary cell's basin. The fine-boundary exclusion is applied after
/// the zoom instead. Ties break by the row-major (`(row, τ)`) scan order:
/// a neighbour earlier in that order — the left one in the same row, or
/// any of the three in the row above — rejects on `nv >= v`, every other
/// neighbour on `nv > v`, and a peak needs one strictly lower neighbour.
/// The same-row neighbours are checked first, since they reject almost
/// every cell before the rows above and below are read; the outcome per
/// cell is that of the full 8-neighbour loop in any order.
fn column_peaks(
    cur: &[f64],
    prev: Option<&[f64]>,
    next: Option<&[f64]>,
    ca: &[usize],
    j: usize,
    cands: &mut Vec<(f64, usize, usize)>,
) {
    let cols = [prev, Some(cur), next];
    'row: for (r, &v) in cur.iter().enumerate() {
        let mut any_below = false;
        if let Some(p) = prev {
            // (0, −1): earlier in scan order, equal values reject.
            if p[r] >= v {
                continue;
            }
            any_below = true;
        }
        if let Some(n) = next {
            if n[r] > v {
                continue;
            }
            any_below |= n[r] < v;
        }
        if r > 0 {
            // Row above: all three are earlier in scan order.
            for c in cols.iter().flatten() {
                if c[r - 1] >= v {
                    continue 'row;
                }
                any_below = true;
            }
        }
        if r + 1 < cur.len() {
            for c in cols.iter().flatten() {
                let nv = c[r + 1];
                if nv > v {
                    continue 'row;
                }
                any_below |= nv < v;
            }
        }
        if any_below {
            cands.push((v, ca[r], j));
        }
    }
}

/// Extracts MUSIC path peaks by a warm-started search (the streaming path):
/// instead of running the detection level, candidate basins are seeded from
/// the previous packet's fine-grid peak cells, zoomed once at fine
/// resolution (a `(2·BASIN_RADIUS + 1)²` patch absorbs inter-packet
/// movement of a cell or two), hill-climbed, and polished by exactly the
/// machinery [`coarse_to_fine_prepared`] uses — all reported values come
/// from the same memoized dense-sweep kernels. A peak that appears where no
/// previous-packet peak existed is *not* discoverable on this path; the
/// caller's periodic exact re-anchor (which runs the full detection level)
/// bounds how long such a peak can stay missed.
///
/// `scratch` must already be prepared by [`prepare_from_basis`], from an
/// exact or a tracked basis.
pub(crate) fn music_paths_warm_prepared(
    cfg: &SpotFiConfig,
    cache: &SteeringCache,
    scratch: &mut MusicScratch,
    signal_dimension: usize,
    seeds: &[(usize, usize)],
) -> Result<CoarseFinePaths> {
    assert!(
        cache.matches(cfg),
        "SteeringCache built for a different SpotFiConfig"
    );
    let _span = spotfi_obs::span("stage.sweep");
    // Seeds arrive strongest-first from the previous packet; the rank key
    // is unused past this point, so carry the order through a descending
    // dummy value.
    let cands: Vec<(f64, usize, usize)> = seeds
        .iter()
        .enumerate()
        .map(|(rank, &(ia, it))| (-(rank as f64), ia, it))
        .collect();
    search_candidates_prepared(cfg, cache, scratch, signal_dimension, &cands, &[1], true)
}

/// The zoom → hill-climb → rank → polish tail shared by the cold
/// ([`coarse_to_fine_prepared`]) and warm-started
/// ([`music_paths_warm_prepared`]) searches: refines an ordered candidate
/// list into the final peak set using the dense sweep's exact memoized
/// kernels. `steps` is the per-level AoA zoom stride schedule (fine cells);
/// `warm` only switches which observability counter names the search
/// reports under.
fn search_candidates_prepared(
    cfg: &SpotFiConfig,
    cache: &SteeringCache,
    scratch: &mut MusicScratch,
    signal_dimension: usize,
    cands: &[(f64, usize, usize)],
    steps: &[usize],
    warm: bool,
) -> Result<CoarseFinePaths> {
    let radius = BASIN_RADIUS as i64;
    let aoa_grid = cfg.music.aoa_grid_deg;
    let tof_grid = cfg.music.tof_grid_ns;
    let na = aoa_grid.len();
    let nt = tof_grid.len();

    let mut ctx = EvalCtx::new(cfg, cache, &mut scratch.sweep);
    let mut patches_zoomed = 0u64;
    let mut hill_climb_steps = 0u64;
    let mut newton_iterations = 0u64;

    let mut found: Vec<(usize, usize, f64)> = Vec::new();
    'cand: for &(_, ia0, it0) in cands {
        let (mut pa, mut pt) = (ia0, it0);
        for &step in steps {
            patches_zoomed += 1;
            // Patch argmax, ties to the lexicographically first cell (the
            // dense scan-order convention).
            let mut best = (f64::MIN, pa, pt);
            for da in -radius..=radius {
                for dt in -radius..=radius {
                    let a = pa as i64 + da * step as i64;
                    let t = pt as i64 + dt;
                    if a < 0 || a >= na as i64 || t < 0 || t >= nt as i64 {
                        continue;
                    }
                    let (a, t) = (a as usize, t as usize);
                    let v = ctx.grid_value(a, t);
                    if v > best.0 || (v == best.0 && (a, t) < (best.1, best.2)) {
                        best = (v, a, t);
                    }
                }
            }
            pa = best.1;
            pt = best.2;
        }
        // Hill-climb to a fixed point of the dense peak condition: move to
        // the best 8-neighbor whenever it is strictly higher, or equal and
        // lexicographically earlier (the dense plateau tie-break). A fixed
        // point is exactly a cell the dense scan would call a peak.
        let mut moves = 0usize;
        loop {
            let v = ctx.grid_value(pa, pt);
            let mut next = (v, pa, pt);
            for da in -1i64..=1 {
                for dt in -1i64..=1 {
                    if da == 0 && dt == 0 {
                        continue;
                    }
                    let a = pa as i64 + da;
                    let t = pt as i64 + dt;
                    if a < 0 || a >= na as i64 || t < 0 || t >= nt as i64 {
                        continue;
                    }
                    let (a, t) = (a as usize, t as usize);
                    let nv = ctx.grid_value(a, t);
                    if nv > next.0 || (nv == next.0 && (a, t) < (next.1, next.2)) {
                        next = (nv, a, t);
                    }
                }
            }
            if (next.1, next.2) == (pa, pt) {
                break;
            }
            pa = next.1;
            pt = next.2;
            moves += 1;
            hill_climb_steps += 1;
            if moves > na * nt {
                // Unreachable (each move strictly increases (value, −lex));
                // defensive bail so a logic bug cannot hang the pipeline.
                continue 'cand;
            }
        }
        // Mirror the dense scan's membership rules: no boundary peaks, no
        // flat plateaus (a peak needs a strictly smaller neighbor).
        if pa == 0 || pa + 1 >= na || pt == 0 || pt + 1 >= nt {
            continue;
        }
        let v = ctx.grid_value(pa, pt);
        let mut any_below = false;
        for da in -1i64..=1 {
            for dt in -1i64..=1 {
                if da == 0 && dt == 0 {
                    continue;
                }
                let a = (pa as i64 + da) as usize;
                let t = (pt as i64 + dt) as usize;
                if ctx.grid_value(a, t) < v {
                    any_below = true;
                }
            }
        }
        if !any_below {
            continue;
        }
        if !found.iter().any(|&(a, t, _)| (a, t) == (pa, pt)) {
            found.push((pa, pt, v));
        }
    }

    // Rank exactly like the dense path: stable sort by value descending
    // over scan-ordered peaks, cap at max_paths, then the relative-power
    // floor.
    found.sort_by_key(|x| (x.0, x.1));
    found.sort_by(|x, y| y.2.partial_cmp(&x.2).unwrap());
    found.truncate(cfg.music.max_paths);
    if let Some(strongest) = found.first().map(|p| p.2) {
        let floor = strongest * cfg.music.min_relative_peak_power;
        found.retain(|p| p.2 >= floor);
    }

    // Polish: free paraboloid on the fine stencil (all nine cells already
    // memoized by the summit check), then Newton steps on shrinking
    // off-grid stencils. The displacement is clamped to the fit's one-cell
    // trust region, matching the dense refinement's clamp.
    let (step_a, step_t) = (aoa_grid.step, tof_grid.step);
    let paths: Vec<PathEstimate> = found
        .iter()
        .map(|&(ia, it, v)| {
            let (ga, gt) = (aoa_grid.value(ia), tof_grid.value(it));
            let (mut aoa, mut tof) = (ga, gt);
            let mut s = [[0.0f64; 3]; 3];
            for (di, row) in s.iter_mut().enumerate() {
                for (dj, sv) in row.iter_mut().enumerate() {
                    *sv = ctx.grid_value(ia + di - 1, it + dj - 1).max(1e-300).ln();
                }
            }
            if let Some((dx, dy)) = paraboloid_offset(&s) {
                aoa += dx * step_a;
                tof += dy * step_t;
                let (mut ha, mut ht) = (0.5 * step_a, 0.5 * step_t);
                for _ in 0..2 {
                    newton_iterations += 1;
                    let sv = ctx.off_grid_stencil(aoa, tof, ha, ht);
                    let mut ls = [[0.0f64; 3]; 3];
                    for (lrow, srow) in ls.iter_mut().zip(sv.iter()) {
                        for (l, &p) in lrow.iter_mut().zip(srow.iter()) {
                            *l = p.max(1e-300).ln();
                        }
                    }
                    match paraboloid_offset(&ls) {
                        Some((dx, dy)) => {
                            aoa += dx * ha;
                            tof += dy * ht;
                            if dx.abs() < 0.05 && dy.abs() < 0.05 {
                                break;
                            }
                        }
                        None => break,
                    }
                    ha *= 0.5;
                    ht *= 0.5;
                }
                aoa = aoa.clamp(
                    (ga - step_a).max(aoa_grid.min),
                    (ga + step_a).min(aoa_grid.max),
                );
                tof = tof.clamp(
                    (gt - step_t).max(tof_grid.min),
                    (gt + step_t).min(tof_grid.max),
                );
            }
            PathEstimate {
                aoa_deg: aoa,
                tof_ns: tof,
                power: v,
            }
        })
        .collect();

    if spotfi_obs::enabled() {
        if warm {
            spotfi_obs::counter("music.warm_searches", 1);
            spotfi_obs::counter("music.warm_seeds", cands.len() as u64);
        } else {
            spotfi_obs::counter("music.c2f_searches", 1);
            spotfi_obs::counter("music.basins_seeded", cands.len() as u64);
        }
        spotfi_obs::counter("music.patches_zoomed", patches_zoomed);
        spotfi_obs::counter("music.hill_climb_steps", hill_climb_steps);
        spotfi_obs::counter("music.newton_iterations", newton_iterations);
        spotfi_obs::counter("music.tau_memo_hits", ctx.memo_hits);
        spotfi_obs::counter("music.tau_memo_misses", ctx.memo_misses);
        spotfi_obs::counter("peaks.extracted", paths.len() as u64);
    }

    let grid_peaks = found.iter().map(|&(ia, it, _)| (ia, it)).collect();
    Ok(CoarseFinePaths {
        paths,
        signal_dimension,
        grid_peaks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoothing::smoothed_csi;
    use crate::steering::steering_vector;
    use spotfi_channel::constants::{DEFAULT_CARRIER_HZ, INTEL5300_SUBCARRIER_SPACING_HZ};
    use spotfi_math::hermitian_eigen_partial;

    fn cfg() -> SpotFiConfig {
        SpotFiConfig::fast_test()
    }

    fn csi_for_paths(paths: &[(f64, f64, c64)]) -> CMat {
        let spacing = spotfi_channel::constants::half_wavelength_spacing(DEFAULT_CARRIER_HZ);
        let mut csi = CMat::zeros(3, 30);
        for &(aoa_deg, tof_ns, gain) in paths {
            let v = steering_vector(
                aoa_deg.to_radians().sin(),
                tof_ns * 1e-9,
                3,
                30,
                spacing,
                DEFAULT_CARRIER_HZ,
                INTEL5300_SUBCARRIER_SPACING_HZ,
            );
            for m in 0..3 {
                for n in 0..30 {
                    csi[(m, n)] += v[m * 30 + n] * gain;
                }
            }
        }
        csi
    }

    #[test]
    fn single_path_peak_at_truth() {
        let c = cfg();
        let csi = csi_for_paths(&[(20.0, 60.0, c64::ONE)]);
        let x = smoothed_csi(&csi, &c).unwrap();
        let spec = music_spectrum(&x, &c).unwrap();
        let (aoa, tof, _) = spec.argmax();
        assert!((aoa - 20.0).abs() <= 2.0, "aoa {}", aoa);
        assert!((tof - 60.0).abs() <= 5.0, "tof {}", tof);
        assert_eq!(spec.signal_dimension, 1);
    }

    #[test]
    fn negative_aoa_and_small_tof() {
        let c = cfg();
        let csi = csi_for_paths(&[(-55.0, 12.0, c64::ONE)]);
        let x = smoothed_csi(&csi, &c).unwrap();
        let spec = music_spectrum(&x, &c).unwrap();
        let (aoa, tof, _) = spec.argmax();
        assert!((aoa + 55.0).abs() <= 2.0, "aoa {}", aoa);
        assert!((tof - 12.0).abs() <= 5.0, "tof {}", tof);
    }

    #[test]
    fn three_coherent_paths_all_resolved() {
        // Coherent multipath (same packet, fixed gains) is exactly what
        // defeats plain MUSIC and what smoothing must fix.
        let c = cfg();
        let truth = [
            (-40.0, 25.0, c64::ONE),
            (10.0, 110.0, c64::new(0.0, 0.8)),
            (50.0, 220.0, c64::new(-0.5, 0.3)),
        ];
        let csi = csi_for_paths(&truth);
        let x = smoothed_csi(&csi, &c).unwrap();
        let spec = music_spectrum(&x, &c).unwrap();
        assert_eq!(spec.signal_dimension, 3);
        // The spectrum value at each truth point must dwarf the median.
        let mut sorted = spec.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        for (aoa, tof, _) in truth {
            let ia = ((aoa - spec.aoa_grid.min) / spec.aoa_grid.step).round() as usize;
            let it = ((tof - spec.tof_grid.min) / spec.tof_grid.step).round() as usize;
            // Check a small neighborhood (truth may fall between grid
            // points).
            let mut best: f64 = 0.0;
            for da in -1i64..=1 {
                for dt in -1i64..=1 {
                    let a = (ia as i64 + da).clamp(0, spec.aoa_grid.len() as i64 - 1) as usize;
                    let t = (it as i64 + dt).clamp(0, spec.tof_grid.len() as i64 - 1) as usize;
                    best = best.max(spec.at(a, t));
                }
            }
            assert!(
                best > 50.0 * median,
                "path ({}, {}) not a peak: {} vs median {}",
                aoa,
                tof,
                best,
                median
            );
        }
    }

    /// `G = Σ_{k ≥ signal_dimension} v_k·v_kᴴ` over the noise eigenvectors
    /// of a full eigendecomposition: the projector built the textbook way,
    /// sharing no code with the pipeline's signal-complement build.
    fn textbook_noise_projector(x: &CMat, signal_dimension: usize) -> CMat {
        let r = x.mul_hermitian_self();
        let dim = r.rows();
        let eig = hermitian_eigen_partial(&r, dim);
        let mut g = CMat::zeros(dim, dim);
        for k in signal_dimension..dim {
            let v = eig.vectors.col(k);
            for j in 0..dim {
                let vj = v[j].conj();
                for i in 0..dim {
                    g[(i, j)] += v[i] * vj;
                }
            }
        }
        g
    }

    /// Packs a dense projector's distinct antenna blocks in the layout
    /// [`prepare_from_basis`] writes.
    fn packed_blocks(g: &CMat, c: &SpotFiConfig) -> Vec<c64> {
        let (ms, ns) = (c.smoothing.sub_antennas, c.smoothing.sub_subcarriers);
        let mut out = Vec::new();
        for ma in 0..ms {
            for mb in 0..=ma {
                for j in 0..ns {
                    out.extend_from_slice(&g.col(mb * ns + j)[ma * ns..(ma + 1) * ns]);
                }
            }
        }
        out
    }

    /// Runs the one-shot exact chain on `x`, leaving `s` prepared; returns
    /// the signal dimension.
    fn prepare(x: &CMat, c: &SpotFiConfig, s: &mut MusicScratch) -> usize {
        let cache = SteeringCache::new(c);
        music_spectrum_cached(x, c, &cache, s)
            .unwrap()
            .signal_dimension
    }

    #[test]
    fn factored_matches_naive_evaluation() {
        // Every grid cell of the dense sweep against the naive quadratic
        // form a(θ,τ)ᴴ·G·a(θ,τ), with G summed over the textbook noise
        // eigenvectors and a(θ,τ) built entry by entry.
        let c = cfg();
        let csi = csi_for_paths(&[(15.0, 80.0, c64::ONE), (-30.0, 180.0, c64::new(0.3, 0.4))]);
        let x = smoothed_csi(&csi, &c).unwrap();
        let spec = music_spectrum(&x, &c).unwrap();
        let g = textbook_noise_projector(&x, spec.signal_dimension);
        let spacing = spotfi_channel::constants::half_wavelength_spacing(c.ofdm.carrier_hz);
        for ia in 0..spec.aoa_grid.len() {
            for it in 0..spec.tof_grid.len() {
                let a = steering_vector(
                    spec.aoa_grid.value(ia).to_radians().sin(),
                    spec.tof_grid.value(it) * 1e-9,
                    c.smoothing.sub_antennas,
                    c.smoothing.sub_subcarriers,
                    spacing,
                    c.ofdm.carrier_hz,
                    c.ofdm.subcarrier_spacing_hz,
                );
                let naive = 1.0 / g.quadratic_form(&a).re.max(1e-12);
                let fast = spec.at(ia, it);
                assert!(
                    (naive - fast).abs() <= 1e-6 * naive.abs().max(1.0),
                    "({}, {}): naive {} fast {}",
                    ia,
                    it,
                    naive,
                    fast
                );
            }
        }
    }

    #[test]
    fn wrapper_matches_cached_spectrum() {
        // The one-shot wrapper (fresh cache + scratch) and the cached form
        // are the same sweep.
        let c = cfg();
        let csi = csi_for_paths(&[(20.0, 60.0, c64::ONE), (-10.0, 150.0, c64::new(0.2, 0.5))]);
        let x = smoothed_csi(&csi, &c).unwrap();
        let cache = SteeringCache::new(&c);
        let mut s = MusicScratch::new(&c);
        let cached = music_spectrum_cached(&x, &c, &cache, &mut s).unwrap();
        let wrapper = music_spectrum(&x, &c).unwrap();
        assert_eq!(cached.values, wrapper.values);
        assert_eq!(cached.signal_dimension, wrapper.signal_dimension);
    }

    #[test]
    fn scratch_reuse_does_not_contaminate_results() {
        let c = cfg();
        let a = csi_for_paths(&[(35.0, 90.0, c64::ONE)]);
        let b = csi_for_paths(&[(-60.0, 210.0, c64::new(0.1, 0.9))]);
        let xa = smoothed_csi(&a, &c).unwrap();
        let xb = smoothed_csi(&b, &c).unwrap();
        let cache = SteeringCache::new(&c);
        // One scratch reused for a → b → a again.
        let mut s = MusicScratch::new(&c);
        let first = music_spectrum_cached(&xa, &c, &cache, &mut s).unwrap();
        let _other = music_spectrum_cached(&xb, &c, &cache, &mut s).unwrap();
        let again = music_spectrum_cached(&xa, &c, &cache, &mut s).unwrap();
        assert_eq!(first.values, again.values);
        // And a reused scratch matches a fresh one exactly.
        let mut fresh = MusicScratch::new(&c);
        let clean = music_spectrum_cached(&xb, &c, &cache, &mut fresh).unwrap();
        assert_eq!(_other.values, clean.values);
    }

    #[test]
    #[should_panic(expected = "different SpotFiConfig")]
    fn mismatched_cache_panics() {
        let c = cfg();
        let mut other = c.clone();
        other.music.tof_grid_ns = crate::config::GridSpec::new(-50.0, 200.0, 5.0);
        let cache = SteeringCache::new(&other);
        let csi = csi_for_paths(&[(0.0, 50.0, c64::ONE)]);
        let x = smoothed_csi(&csi, &c).unwrap();
        let mut s = MusicScratch::new(&c);
        let _ = music_spectrum_cached(&x, &c, &cache, &mut s);
    }

    #[test]
    fn signal_complement_projector_matches_noise_sum() {
        // The packed blocks of G = I − E_S·E_Sᴴ must equal those of
        // Σ_{k ≥ signal} v_k·v_kᴴ up to orthonormality error of the
        // eigenbasis.
        let c = cfg();
        let csi = csi_for_paths(&[(15.0, 80.0, c64::ONE), (-30.0, 180.0, c64::new(0.3, 0.4))]);
        let x = smoothed_csi(&csi, &c).unwrap();
        let mut s = MusicScratch::new(&c);
        let signal_dimension = prepare(&x, &c, &mut s);
        let want = packed_blocks(&textbook_noise_projector(&x, signal_dimension), &c);
        assert_eq!(s.sweep.gblocks.len(), want.len());
        let diff = s
            .sweep
            .gblocks
            .iter()
            .zip(&want)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(diff < 1e-9, "projector mismatch {}", diff);
    }

    #[test]
    fn zero_csi_rejected() {
        let c = cfg();
        let x = CMat::zeros(30, 32);
        assert!(music_spectrum(&x, &c).is_err());
    }

    #[test]
    fn signal_dimension_capped_by_max_paths() {
        let mut c = cfg();
        c.music.max_paths = 2;
        let csi = csi_for_paths(&[
            (-40.0, 25.0, c64::ONE),
            (10.0, 110.0, c64::ONE),
            (50.0, 220.0, c64::ONE),
        ]);
        let x = smoothed_csi(&csi, &c).unwrap();
        let cache = SteeringCache::new(&c);
        let mut s = MusicScratch::new(&c);
        let swept = music_paths_coarse_to_fine(&x, &c, &cache, &mut s).unwrap();
        assert_eq!(swept.signal_dimension, 2);
    }

    #[test]
    fn argmax_resolves_ties_to_first_in_scan_order() {
        // Two equal maxima: the first in (i_aoa, i_tof) scan order wins.
        let aoa = GridSpec::new(0.0, 2.0, 1.0); // 3 points
        let tof = GridSpec::new(0.0, 3.0, 1.0); // 4 points
        let mut values = vec![1.0; 12];
        values[6] = 7.0; // (ia, it) = (1, 2)
        values[9] = 7.0; // (ia, it) = (2, 1)
        let spec = MusicSpectrum::new(aoa, tof, values, 1);
        let (a, t, v) = spec.argmax();
        assert_eq!((a, t, v), (1.0, 2.0, 7.0));
    }

    #[test]
    fn off_grid_stencil_matches_naive_quadratic_form() {
        // The Newton polish's 3×3 stencil vs. naive 1/(a(θ,τ)ᴴ·G·a(θ,τ))
        // at seeded off-grid centres, all nine points ≤ 1e-10 relative,
        // with G summed over the textbook noise eigenvectors.
        let c = cfg();
        let csi = csi_for_paths(&[(22.0, 65.0, c64::ONE), (-48.0, 190.0, c64::new(0.4, 0.6))]);
        let x = smoothed_csi(&csi, &c).unwrap();
        let mut scratch = MusicScratch::new(&c);
        let g = textbook_noise_projector(&x, prepare(&x, &c, &mut scratch));
        let cache = SteeringCache::new(&c);
        let mut ctx = EvalCtx::new(&c, &cache, &mut scratch.sweep);
        let spacing = spotfi_channel::constants::half_wavelength_spacing(c.ofdm.carrier_hz);
        let (ha, ht) = (
            0.5 * c.music.aoa_grid_deg.step,
            0.5 * c.music.tof_grid_ns.step,
        );
        let mut rng = spotfi_channel::Rng::seed_from_u64(0xC0FFEE);
        for k in 0..40 {
            let aoa = rng.gen_range(-89.9..89.9);
            let tof = rng.gen_range(-99.0..399.0);
            let stencil = ctx.off_grid_stencil(aoa, tof, ha, ht);
            for (i, row) in stencil.iter().enumerate() {
                for (j, &fast) in row.iter().enumerate() {
                    let (a_deg, t_ns) = (aoa + (i as f64 - 1.0) * ha, tof + (j as f64 - 1.0) * ht);
                    let a = steering_vector(
                        a_deg.to_radians().sin(),
                        t_ns * 1e-9,
                        c.smoothing.sub_antennas,
                        c.smoothing.sub_subcarriers,
                        spacing,
                        c.ofdm.carrier_hz,
                        c.ofdm.subcarrier_spacing_hz,
                    );
                    let naive = 1.0 / g.quadratic_form(&a).re.max(1e-12);
                    assert!(
                        (naive - fast).abs() <= 1e-10 * naive.abs().max(1.0),
                        "sample {k} ({a_deg}, {t_ns}): naive {naive} fast {fast}"
                    );
                }
            }
        }
    }

    #[test]
    fn off_grid_stencil_is_bit_identical_on_grid_points() {
        // Centred on a grid coordinate, the stencil's recurrences receive
        // the very same inputs as the SteeringCache rows, so its centre
        // value must be bit-identical to the dense sweep's cell.
        let c = cfg();
        let csi = csi_for_paths(&[(10.0, 120.0, c64::ONE)]);
        let x = smoothed_csi(&csi, &c).unwrap();
        let cache = SteeringCache::new(&c);
        let mut scratch = MusicScratch::new(&c);
        let spec = music_spectrum_cached(&x, &c, &cache, &mut scratch).unwrap();
        let mut ctx = EvalCtx::new(&c, &cache, &mut scratch.sweep);
        let (ha, ht) = (0.5 * spec.aoa_grid.step, 0.5 * spec.tof_grid.step);
        for &(ia, it) in &[(1usize, 1usize), (50, 44), (72, 100), (89, 99)] {
            let (aoa, tof) = (spec.aoa_grid.value(ia), spec.tof_grid.value(it));
            let v = ctx.off_grid_stencil(aoa, tof, ha, ht)[1][1];
            assert_eq!(v.to_bits(), spec.at(ia, it).to_bits(), "cell ({ia}, {it})");
        }
    }

    /// The detection level as it ran before it was streamed: the whole
    /// `n_rows × n_tof` grid filled row-major from every column's staged
    /// forms, a batched reciprocal, then a row-major local-maximum scan.
    fn full_grid_candidates(
        cfg: &SpotFiConfig,
        cache: &SteeringCache,
        vectors: &CMat,
        signal_dimension: usize,
    ) -> Vec<(f64, usize, usize)> {
        let ms = cfg.smoothing.sub_antennas;
        let ns = cfg.smoothing.sub_subcarriers;
        let npairs = ms * (ms + 1) / 2;
        let na = cfg.music.aoa_grid_deg.len();
        let nt = cfg.music.tof_grid_ns.len();
        let mut ca: Vec<usize> = (0..na).step_by(COARSE_FACTOR).collect();
        if *ca.last().unwrap() != na - 1 {
            ca.push(na - 1);
        }
        let nca = ca.len();
        let mut u = vec![c64::ZERO; signal_dimension * ms];
        let mut dforms = vec![c64::ZERO; nt * npairs];
        let mut det = vec![0.0f64; nca * nt];
        for it in 0..nt {
            let w = cache.omega_row(it);
            for k in 0..signal_dimension {
                let e = vectors.col(k);
                for m in 0..ms {
                    let mut acc = c64::ZERO;
                    for (wi, ei) in w.iter().zip(&e[m * ns..(m + 1) * ns]) {
                        acc += wi.conj() * *ei;
                    }
                    u[k * ms + m] = acc;
                }
            }
            let bf = &mut dforms[it * npairs..(it + 1) * npairs];
            let mut p = 0;
            for ma in 0..ms {
                for mb in 0..=ma {
                    let mut acc = if ma == mb {
                        c64::new(ns as f64, 0.0)
                    } else {
                        c64::ZERO
                    };
                    for k in 0..signal_dimension {
                        acc -= u[k * ms + ma] * u[k * ms + mb].conj();
                    }
                    bf[p] = acc;
                    p += 1;
                }
            }
        }
        for (r, &ia) in ca.iter().enumerate() {
            let ph = cache.phi_row(ia);
            let row = &mut det[r * nt..(r + 1) * nt];
            if ms == 2 {
                let (ph0, ph1) = (ph[0], ph[1]);
                let (n0, n1) = (ph0.norm_sqr(), ph1.norm_sqr());
                let ph1c = ph1.conj();
                for (rv, bf) in row.iter_mut().zip(dforms.chunks_exact(npairs)) {
                    let mut denom = 0.0f64;
                    denom += n0 * bf[0].re;
                    let z = ph1c * bf[1] * ph0;
                    denom += 2.0 * z.re;
                    denom += n1 * bf[2].re;
                    *rv = denom.max(1e-12);
                }
            } else {
                for (rv, bf) in row.iter_mut().zip(dforms.chunks_exact(npairs)) {
                    *rv = denom_from_forms(ph, bf, ms).max(1e-12);
                }
            }
        }
        for v in det.iter_mut() {
            *v = 1.0 / *v;
        }
        let mut cands = Vec::new();
        for (i, &cai) in ca.iter().enumerate() {
            'cell: for j in 0..nt {
                let v = det[i * nt + j];
                let mut any_below = false;
                for di in -1i64..=1 {
                    for dj in -1i64..=1 {
                        let (ii, jj) = (i as i64 + di, j as i64 + dj);
                        if (di, dj) == (0, 0)
                            || ii < 0
                            || ii >= nca as i64
                            || jj < 0
                            || jj >= nt as i64
                        {
                            continue;
                        }
                        let nv = det[ii as usize * nt + jj as usize];
                        // Neighbours earlier in row-major scan order reject
                        // on equality too.
                        if nv > v || (nv == v && (di, dj) < (0, 0)) {
                            continue 'cell;
                        }
                        any_below |= nv < v;
                    }
                }
                if any_below {
                    cands.push((v, cai, j));
                }
            }
        }
        cands.sort_by(|x, y| {
            y.0.partial_cmp(&x.0)
                .unwrap()
                .then((x.1, x.2).cmp(&(y.1, y.2)))
        });
        cands.truncate(cfg.music.max_paths + 4);
        cands
    }

    /// Runs the streamed detection level and the full-grid oracle on one
    /// basis and requires bit-identical candidate lists; returns how many
    /// candidates there were.
    fn assert_streamed_detection_matches(
        c: &SpotFiConfig,
        vectors: &CMat,
        signal_dimension: usize,
        what: &str,
    ) -> usize {
        let cache = SteeringCache::new(c);
        let mut scratch = MusicScratch::new(c);
        let bits = |v: Vec<(f64, usize, usize)>| -> Vec<(u64, usize, usize)> {
            v.into_iter().map(|(x, a, t)| (x.to_bits(), a, t)).collect()
        };
        let streamed = bits(detection_candidates(
            c,
            &cache,
            vectors,
            signal_dimension,
            &mut scratch.sweep,
        ));
        let full = bits(full_grid_candidates(c, &cache, vectors, signal_dimension));
        assert_eq!(streamed, full, "{what}");
        streamed.len()
    }

    /// A seeded basis of `d` columns with arbitrary (non-orthonormal)
    /// entries: the detector's arithmetic does not assume orthonormality.
    fn random_basis(c: &SpotFiConfig, d: usize, rng: &mut spotfi_channel::Rng) -> CMat {
        let n = c.smoothed_rows();
        CMat::from_fn(n, d, |_, _| {
            c64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)) * 0.3
        })
    }

    #[test]
    fn streamed_detection_matches_full_grid_on_seeded_packets() {
        let mut rng = spotfi_channel::Rng::seed_from_u64(0xDE7EC7);
        for c in [SpotFiConfig::default(), SpotFiConfig::fast_test()] {
            for packet in 0..6 {
                let paths: Vec<(f64, f64, c64)> = (0..1 + packet % 4)
                    .map(|_| {
                        (
                            rng.gen_range(-80.0..80.0),
                            rng.gen_range(-50.0..350.0),
                            c64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
                        )
                    })
                    .collect();
                let mut csi = csi_for_paths(&paths);
                for z in csi.as_mut_slice() {
                    *z += c64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)) * 0.03;
                }
                let x = smoothed_csi(&csi, &c).unwrap();
                let mut s = MusicScratch::new(&c);
                let d = s.prepare_exact(&x, &c).unwrap();
                let found = assert_streamed_detection_matches(
                    &c,
                    s.eig.vectors(),
                    d,
                    &format!("packet {packet}, {} τ points", c.music.tof_grid_ns.len()),
                );
                assert!(found > 0, "packet {packet} seeded no basin");
            }
        }
    }

    #[test]
    fn streamed_detection_matches_full_grid_on_tiny_grids() {
        // τ grids of 1–3 points put every column at an edge; AoA grids of
        // up to `COARSE_FACTOR + 1` points keep one or two coarse rows, the
        // second of them the appended boundary row whenever `na − 1` is
        // not a multiple of the factor. The generic arm runs for
        // `M_s ≠ 2`.
        let mut rng = spotfi_channel::Rng::seed_from_u64(0x7119);
        for (ms, ns) in [(2, 15), (1, 10), (3, 10)] {
            for nt in 1..=3 {
                for na in 1..=COARSE_FACTOR + 1 {
                    let mut c = SpotFiConfig::fast_test();
                    c.smoothing.sub_antennas = ms;
                    c.smoothing.sub_subcarriers = ns;
                    c.music.aoa_grid_deg = GridSpec {
                        min: -20.0,
                        max: -20.0 + 7.0 * (na - 1) as f64,
                        step: 7.0,
                    };
                    c.music.tof_grid_ns = GridSpec {
                        min: 30.0,
                        max: 30.0 + 3.0 * (nt - 1) as f64,
                        step: 3.0,
                    };
                    for d in [1, c.music.max_paths] {
                        let basis = random_basis(&c, d, &mut rng);
                        assert_streamed_detection_matches(
                            &c,
                            &basis,
                            d,
                            &format!("ms {ms}, {na} × {nt} grid, d {d}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn streamed_detection_keeps_the_scan_order_tie_break() {
        // Signal vectors supported on each subarray's first subcarrier,
        // where every Ω power is exactly 1, give τ-constant forms: each AoA
        // row is a plateau and only the scan-order rule picks its cell.
        // Supported on the first antenna only, the rows tie too wherever
        // |Φ|² rounds alike.
        let mut rng = spotfi_channel::Rng::seed_from_u64(0x71E5);
        for c in [SpotFiConfig::fast_test(), SpotFiConfig::default()] {
            let ns = c.smoothing.sub_subcarriers;
            for antennas in [c.smoothing.sub_antennas, 1] {
                for d in 1..=3 {
                    let mut basis = CMat::zeros(c.smoothed_rows(), d);
                    for k in 0..d {
                        for m in 0..antennas {
                            basis[(m * ns, k)] =
                                c64::new(rng.gen_range(0.1..0.5), rng.gen_range(0.1..0.5));
                        }
                    }
                    let found = assert_streamed_detection_matches(
                        &c,
                        &basis,
                        d,
                        &format!("plateau basis on {antennas} antennas, d {d}"),
                    );
                    if antennas > 1 {
                        assert!(found > 0, "plateau basis, d {d}: no candidate");
                    }
                }
            }
        }
    }

    #[test]
    fn coarse_to_fine_matches_dense_peaks() {
        let c = cfg();
        let truth = [
            (-40.0, 25.0, c64::ONE),
            (10.0, 110.0, c64::new(0.0, 0.8)),
            (50.0, 220.0, c64::new(-0.5, 0.3)),
        ];
        let csi = csi_for_paths(&truth);
        let x = smoothed_csi(&csi, &c).unwrap();
        let spec = music_spectrum(&x, &c).unwrap();
        let dense = crate::peaks::find_peaks_filtered(
            &spec,
            c.music.max_paths,
            c.music.min_relative_peak_power,
        );
        let cache = SteeringCache::new(&c);
        let mut scratch = MusicScratch::new(&c);
        let sparse = music_paths_coarse_to_fine(&x, &c, &cache, &mut scratch).unwrap();
        assert_eq!(sparse.signal_dimension, spec.signal_dimension);
        assert_eq!(sparse.paths.len(), dense.len(), "{:?}", sparse.paths);
        for (s, d) in sparse.paths.iter().zip(dense.iter()) {
            // Same grid cells found by the same kernels ⇒ identical power.
            assert_eq!(s.power, d.power);
            assert!(
                (s.aoa_deg - d.aoa_deg).abs() <= c.music.aoa_grid_deg.step,
                "aoa {} vs {}",
                s.aoa_deg,
                d.aoa_deg
            );
            assert!(
                (s.tof_ns - d.tof_ns).abs() <= c.music.tof_grid_ns.step,
                "tof {} vs {}",
                s.tof_ns,
                d.tof_ns
            );
        }
    }

    #[test]
    fn coarse_to_fine_scratch_reuse_is_clean() {
        let c = cfg();
        let a = csi_for_paths(&[(35.0, 90.0, c64::ONE)]);
        let b = csi_for_paths(&[(-60.0, 210.0, c64::new(0.1, 0.9))]);
        let xa = smoothed_csi(&a, &c).unwrap();
        let xb = smoothed_csi(&b, &c).unwrap();
        let cache = SteeringCache::new(&c);
        let mut s = MusicScratch::new(&c);
        let first = music_paths_coarse_to_fine(&xa, &c, &cache, &mut s).unwrap();
        let _other = music_paths_coarse_to_fine(&xb, &c, &cache, &mut s).unwrap();
        let again = music_paths_coarse_to_fine(&xa, &c, &cache, &mut s).unwrap();
        assert_eq!(first.paths, again.paths);
        let mut fresh = MusicScratch::new(&c);
        let clean = music_paths_coarse_to_fine(&xb, &c, &cache, &mut fresh).unwrap();
        assert_eq!(_other.paths, clean.paths);
    }

    #[test]
    fn coarse_to_fine_rejects_zero_csi() {
        let c = cfg();
        let cache = SteeringCache::new(&c);
        let mut s = MusicScratch::new(&c);
        let x = CMat::zeros(30, 32);
        assert!(music_paths_coarse_to_fine(&x, &c, &cache, &mut s).is_err());
    }

    #[test]
    fn reused_scratch_packs_bit_identical_blocks() {
        let c = cfg();
        let csi = csi_for_paths(&[(25.0, 70.0, c64::ONE)]);
        let x = smoothed_csi(&csi, &c).unwrap();
        let mut fresh = MusicScratch::new(&c);
        let fresh_dim = prepare(&x, &c, &mut fresh);
        // Dirty the scratch with a wider basis first, so stale signal
        // columns would show if any block entry were not rewritten.
        let other = csi_for_paths(&[
            (-50.0, 200.0, c64::new(0.2, 0.7)),
            (30.0, 20.0, c64::ONE),
            (-5.0, 300.0, c64::new(0.6, -0.3)),
        ]);
        let xo = smoothed_csi(&other, &c).unwrap();
        let mut reused = MusicScratch::new(&c);
        assert!(prepare(&xo, &c, &mut reused) > fresh_dim);
        assert_eq!(prepare(&x, &c, &mut reused), fresh_dim);
        let bits = |s: &MusicScratch| -> Vec<(u64, u64)> {
            s.sweep
                .gblocks
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        assert_eq!(
            bits(&fresh),
            bits(&reused),
            "a reused scratch must give bit-identical blocks"
        );
    }
}
