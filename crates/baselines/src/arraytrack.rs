//! ArrayTrack-style localization from per-AP AoA pseudospectra.
//!
//! ArrayTrack (Xiong & Jamieson, NSDI '13) localizes by treating each AP's
//! MUSIC AoA spectrum as a bearing likelihood and searching the floor for
//! the point whose bearings to all APs are jointly most likely:
//!
//! ```text
//! x̂ = argmax_x Σ_i log P_i(θ_i(x))
//! ```
//!
//! Here — as in the paper's comparison — each `P_i` comes from the
//! 3-antenna [`crate::music_aoa`] estimator, averaged over packets, making
//! this the "practical implementation of ArrayTrack" used throughout the
//! SpotFi evaluation. The argmax is found with SpotFi's own Eq. 9 search,
//! [`grid_then_polish`], so both systems get the same optimizer.

use spotfi_channel::{AntennaArray, CsiPacket, Point};
use spotfi_core::error::{Result, SpotFiError};
use spotfi_core::localize::{grid_then_polish, SearchBounds};

use crate::music_aoa::{averaged_spectrum, MusicAoaConfig, MusicAoaSpectrum};

/// ArrayTrack localization configuration.
#[derive(Clone, Copy, Debug)]
pub struct ArrayTrackConfig {
    /// The per-AP AoA estimator.
    pub music: MusicAoaConfig,
    /// Location grid step, meters.
    pub grid_step_m: f64,
    /// Nelder–Mead polish iterations.
    pub polish_iterations: usize,
}

impl ArrayTrackConfig {
    /// Defaults matching the SpotFi comparison setup.
    pub fn intel5300() -> Self {
        ArrayTrackConfig {
            music: MusicAoaConfig::intel5300(),
            grid_step_m: 0.25,
            polish_iterations: 200,
        }
    }
}

/// One AP's aggregated bearing likelihood.
pub struct ApSpectrum {
    /// The AP array.
    pub array: AntennaArray,
    /// Packet-averaged AoA pseudospectrum.
    pub spectrum: MusicAoaSpectrum,
}

/// Computes the packet-averaged AoA spectrum for one AP.
pub fn ap_spectrum(
    array: AntennaArray,
    packets: &[CsiPacket],
    cfg: &MusicAoaConfig,
) -> Result<ApSpectrum> {
    if packets.is_empty() {
        return Err(SpotFiError::NoPackets);
    }
    let spectrum = averaged_spectrum(packets, cfg).ok_or(SpotFiError::NoPaths)?;
    Ok(ApSpectrum { array, spectrum })
}

/// Joint log-likelihood of a candidate location under all AP spectra.
fn log_likelihood(spectra: &[ApSpectrum], pos: Point) -> f64 {
    spectra
        .iter()
        .map(|s| {
            let bearing = s.array.aoa_from_deg(pos);
            s.spectrum.value_at_deg(bearing).max(1e-12).ln()
        })
        .sum()
}

/// Localizes a target ArrayTrack-style within explicit search bounds (e.g.
/// the building outline).
///
/// APs whose packets all fail spectrum estimation are skipped; at least two
/// must survive.
pub fn arraytrack_localize_in_bounds(
    aps: &[(AntennaArray, &[CsiPacket])],
    bounds: SearchBounds,
    cfg: &ArrayTrackConfig,
) -> Result<Point> {
    let spectra: Vec<ApSpectrum> = aps
        .iter()
        .filter_map(|(array, packets)| ap_spectrum(*array, packets, &cfg.music).ok())
        .collect();
    if spectra.len() < 2 {
        return Err(SpotFiError::InsufficientAps {
            usable: spectra.len(),
        });
    }

    // Maximize the joint log-likelihood with Eq. 9's search.
    let (position, ..) = grid_then_polish(bounds, cfg.grid_step_m, cfg.polish_iterations, |p| {
        -log_likelihood(&spectra, p)
    });
    Ok(position)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotfi_channel::Rng;
    use spotfi_channel::{Floorplan, PacketTrace, TraceConfig};

    fn ap_array(x: f64, y: f64) -> AntennaArray {
        let angle = (Point::new(5.0, 5.0) - Point::new(x, y)).angle();
        AntennaArray::intel5300(
            Point::new(x, y),
            angle,
            spotfi_channel::constants::DEFAULT_CARRIER_HZ,
        )
    }

    /// The AP bounding box `[0, 10]²` plus a 3 m margin.
    fn bounds() -> SearchBounds {
        SearchBounds {
            min_x: -3.0,
            max_x: 13.0,
            min_y: -3.0,
            max_y: 13.0,
        }
    }

    fn fast_cfg() -> ArrayTrackConfig {
        let mut c = ArrayTrackConfig::intel5300();
        c.music.aoa_grid_deg = spotfi_core::GridSpec::new(-90.0, 90.0, 2.0);
        c.grid_step_m = 0.5;
        c
    }

    #[test]
    fn free_space_localization_works() {
        // In free space (single path) even 3-antenna ArrayTrack is fine —
        // the gap to SpotFi only opens under multipath.
        let plan = Floorplan::empty();
        let target = Point::new(3.5, 6.0);
        let tc = TraceConfig::commodity();
        let mut rng = Rng::seed_from_u64(3);
        let arrays = [
            ap_array(0.0, 0.0),
            ap_array(10.0, 0.0),
            ap_array(10.0, 10.0),
            ap_array(0.0, 10.0),
        ];
        let traces: Vec<PacketTrace> = arrays
            .iter()
            .map(|a| PacketTrace::generate(&plan, target, a, &tc, 8, &mut rng).unwrap())
            .collect();
        let aps: Vec<(AntennaArray, &[CsiPacket])> = arrays
            .iter()
            .zip(&traces)
            .map(|(a, t)| (*a, t.packets.as_slice()))
            .collect();
        let est = arraytrack_localize_in_bounds(&aps, bounds(), &fast_cfg()).unwrap();
        let err = est.distance(target);
        assert!(err < 1.5, "error {} m at {:?}", err, est);
    }

    #[test]
    fn needs_two_aps() {
        let plan = Floorplan::empty();
        let tc = TraceConfig::commodity();
        let mut rng = Rng::seed_from_u64(4);
        let a = ap_array(0.0, 0.0);
        let t = PacketTrace::generate(&plan, Point::new(3.0, 3.0), &a, &tc, 4, &mut rng).unwrap();
        let aps: Vec<(AntennaArray, &[CsiPacket])> = vec![(a, t.packets.as_slice())];
        assert!(matches!(
            arraytrack_localize_in_bounds(&aps, bounds(), &fast_cfg()),
            Err(SpotFiError::InsufficientAps { usable: 1 })
        ));
    }

    #[test]
    fn ap_spectrum_rejects_empty() {
        let a = ap_array(0.0, 0.0);
        assert!(matches!(
            ap_spectrum(a, &[], &fast_cfg().music),
            Err(SpotFiError::NoPackets)
        ));
    }

    #[test]
    fn spectrum_peak_matches_bearing() {
        let plan = Floorplan::empty();
        let tc = TraceConfig::commodity();
        let mut rng = Rng::seed_from_u64(5);
        let a = ap_array(0.0, 0.0);
        let target = Point::new(2.0, 7.0);
        let t = PacketTrace::generate(&plan, target, &a, &tc, 6, &mut rng).unwrap();
        let s = ap_spectrum(a, &t.packets, &fast_cfg().music).unwrap();
        let truth = a.aoa_from_deg(target);
        let peak = s.spectrum.peaks(1)[0].0;
        assert!(
            (peak - truth).abs() < 5.0,
            "peak {} vs truth {}",
            peak,
            truth
        );
    }
}
