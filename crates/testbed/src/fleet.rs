//! Fleet-scale scenarios: many moving targets on one floorplan, their
//! packets interleaved into a single arrival schedule.
//!
//! This is the ingest shape a central SpotFi server sees — per-(target,
//! AP) CSI streams from every deployed AP, multiplexed by arrival time —
//! and what the fleet engine ([`spotfi_core::fleet`]) consumes. Targets
//! walk seeded-random straight legs through the apartment at a configured
//! speed; each link's channel is re-traced as the target moves
//! ([`spotfi_channel::trajectory::generate_moving`]), and per-target phase
//! offsets spread packet arrivals across the capture interval so the
//! schedule interleaves realistically instead of arriving in target-major
//! bursts.

use spotfi_channel::trajectory::{generate_moving, Waypath};
use spotfi_channel::{Floorplan, Point, Rng, TraceConfig};
use spotfi_core::fleet::FleetPacket;
use spotfi_core::{parallel_map_with, RuntimeConfig};

use crate::apartment::Apartment;
use crate::deployment::NamedAp;

/// Parameters of a generated fleet scenario.
#[derive(Clone, Debug)]
pub struct FleetScenarioConfig {
    /// Number of concurrent targets.
    pub targets: usize,
    /// How many APs to deploy (≥ 2). Up to 4 uses the apartment's standard
    /// in-room APs; more switches to the dense perimeter ring
    /// ([`Apartment::perimeter_aps`]), supporting 8/16/32-AP deployments.
    pub aps: usize,
    /// Packets each audible (target, AP) link contributes.
    pub packets_per_link: usize,
    /// Walking speed of every target, m/s (0 = static fleet).
    pub speed_mps: f64,
    /// Channel re-trace distance for moving targets, meters.
    pub regen_distance_m: f64,
    /// Independent per-packet delivery loss in \[0, 1): each scheduled
    /// packet is dropped with this probability (seeded per link), modeling
    /// a lossy backhaul between receivers and the fusion server.
    pub loss_rate: f64,
    /// Per-AP capture-clock drift, ± parts-per-million: each AP's
    /// timestamps are scaled by a seeded factor in `1 ± ppm·1e-6`,
    /// modeling unsynchronized receiver oscillators.
    pub clock_drift_ppm: f64,
    /// Root seed; targets and links derive deterministically from it.
    pub seed: u64,
    /// Per-packet channel/impairment model.
    pub trace: TraceConfig,
}

impl FleetScenarioConfig {
    /// The standard fleet load: `targets` slow-walking phones in the
    /// apartment, heard by three APs, 24 packets per link at the commodity
    /// 100 ms cadence.
    ///
    /// The 0.35 m/s amble with a 0.7 m re-trace keeps the channel jumps
    /// ~20 packets apart, so the streaming path stays warm-start dominated
    /// — the regime the fleet throughput contract is specified in.
    pub fn apartment(targets: usize) -> Self {
        FleetScenarioConfig {
            targets,
            aps: 3,
            packets_per_link: 24,
            speed_mps: 0.35,
            regen_distance_m: 0.7,
            loss_rate: 0.0,
            clock_drift_ppm: 0.0,
            seed: 0xF1EE7,
            trace: TraceConfig::commodity(),
        }
    }
}

/// One target of the fleet: its identity, its walk, and when its first
/// packet leaves relative to scenario start.
#[derive(Clone, Debug)]
pub struct FleetTarget {
    /// The id every [`FleetPacket`] of this target carries.
    pub target_id: u64,
    /// The walk (ground truth for evaluation).
    pub path: Waypath,
    /// Transmit phase offset, seconds — spreads arrivals across the
    /// packet interval.
    pub start_offset_s: f64,
}

/// A generated fleet scenario: the environment, the fleet, and the full
/// interleaved packet schedule in arrival order.
#[derive(Clone, Debug)]
pub struct FleetScenario {
    /// Scenario label for reports.
    pub name: String,
    /// The environment.
    pub floorplan: Floorplan,
    /// Deployed APs (`ap_id` = index into this list).
    pub aps: Vec<NamedAp>,
    /// The fleet, in ascending `target_id` order. Targets inaudible at
    /// ≥ 2 APs from their start position are not included.
    pub targets: Vec<FleetTarget>,
    /// Every packet of every audible link, sorted by arrival time.
    pub schedule: Vec<FleetPacket>,
    /// The capture cadence the schedule was built on, seconds.
    pub packet_interval_s: f64,
}

/// The AP set for an `n`-AP deployment: up to 4 draws from the
/// apartment's standard in-room APs, beyond that the dense perimeter ring
/// ([`Apartment::perimeter_aps`]). `ap_id`/`receiver_id` is the index
/// into the returned list in both regimes.
pub fn deployed_aps(n: usize) -> Vec<NamedAp> {
    if n <= 4 {
        Apartment::standard().aps.into_iter().take(n).collect()
    } else {
        Apartment::perimeter_aps(n)
    }
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + a))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(101 + b));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds target `t`'s walk and traces its links: the target and its
/// packets in link order with global arrival times, or `None` when fewer
/// than two APs hear its start position. Draws only from `t`'s own seeded
/// streams, so targets trace independently.
fn trace_target(
    cfg: &FleetScenarioConfig,
    t: usize,
    plan: &Floorplan,
    aps: &[NamedAp],
    drifts: &[f64],
) -> Option<(FleetTarget, Vec<FleetPacket>)> {
    let interval = cfg.trace.packet_interval_s;
    let mut trng = Rng::seed_from_u64(mix(cfg.seed, t as u64, 0));
    // A straight leg between two random interior points, clear of the
    // outer walls.
    let pt = |rng: &mut Rng| Point::new(rng.gen_range(0.8..13.2), rng.gen_range(0.8..7.2));
    let (start, end) = (pt(&mut trng), pt(&mut trng));
    let path = if cfg.speed_mps > 0.0 {
        Waypath::new(vec![start, end], cfg.speed_mps)
    } else {
        Waypath::stationary(start)
    };
    let start_offset_s = trng.gen_range(0.0..interval);

    // Trace each link; a link whose start position the AP cannot hear
    // contributes nothing.
    let mut links: Vec<(u32, Vec<spotfi_channel::CsiPacket>)> = Vec::new();
    for (a, ap) in aps.iter().enumerate() {
        let mut lrng = Rng::seed_from_u64(mix(cfg.seed, 1 + t as u64, 1 + a as u64));
        if let Some(trace) = generate_moving(
            plan,
            &path,
            &ap.array,
            &cfg.trace,
            cfg.regen_distance_m,
            cfg.packets_per_link,
            &mut lrng,
        ) {
            links.push((a as u32, trace.packets));
        }
    }
    if links.len() < 2 {
        return None;
    }
    let target_id = t as u64;
    let mut packets_out = Vec::new();
    for (ap_id, packets) in links {
        // A sub-interval per-AP skew keeps same-instant arrivals from
        // different APs deterministically ordered without perturbing the
        // motion model measurably.
        let skew = ap_id as f64 * 1e-4;
        let drift = drifts[ap_id as usize];
        let mut loss_rng = Rng::seed_from_u64(mix(cfg.seed, 0x1055 ^ (t as u64), ap_id as u64));
        for mut packet in packets {
            if cfg.loss_rate > 0.0 && loss_rng.gen::<f64>() < cfg.loss_rate {
                continue;
            }
            packet.timestamp_s += start_offset_s + skew;
            packet.timestamp_s *= 1.0 + drift;
            packets_out.push(FleetPacket {
                target_id,
                ap_id,
                array: aps[ap_id as usize].array,
                packet,
            });
        }
    }
    let target = FleetTarget {
        target_id,
        path,
        start_offset_s,
    };
    Some((target, packets_out))
}

impl FleetScenario {
    /// Generates the scenario: seeds each target's walk, traces every
    /// (target, AP) link with the moving-target generator, stamps global
    /// arrival times, and sorts the interleaved schedule.
    ///
    /// Targets are traced in parallel on the host's default thread budget
    /// ([`RuntimeConfig::default`]'s effective threads). Deterministic in
    /// `cfg` at any thread count — the same config always produces the
    /// same schedule, byte for byte: every target draws only from its own
    /// seeded streams, and per-target packets are concatenated in target
    /// order before the stable arrival sort.
    pub fn generate(cfg: &FleetScenarioConfig) -> FleetScenario {
        Self::generate_with_threads(cfg, RuntimeConfig::default().effective_threads())
    }

    fn generate_with_threads(cfg: &FleetScenarioConfig, threads: usize) -> FleetScenario {
        assert!(cfg.aps >= 2, "a fleet scenario needs ≥ 2 APs");
        let apartment = Apartment::standard();
        let aps = deployed_aps(cfg.aps);
        let plan = apartment.floorplan;
        // Per-AP clock-drift factors, fixed for the scenario's lifetime.
        let drifts: Vec<f64> = (0..aps.len())
            .map(|a| {
                if cfg.clock_drift_ppm == 0.0 {
                    return 0.0;
                }
                let mut drng = Rng::seed_from_u64(mix(cfg.seed, 0xD51F7, a as u64));
                (drng.gen::<f64>() * 2.0 - 1.0) * cfg.clock_drift_ppm * 1e-6
            })
            .collect();
        let interval = cfg.trace.packet_interval_s;

        let traced = parallel_map_with(
            cfg.targets,
            threads,
            || (),
            |_, t| trace_target(cfg, t, &plan, &aps, &drifts),
        );
        let mut targets = Vec::with_capacity(traced.len());
        let mut schedule: Vec<FleetPacket> = Vec::new();
        for (target, packets) in traced.into_iter().flatten() {
            targets.push(target);
            schedule.extend(packets);
        }
        schedule.sort_by(|x, y| {
            x.packet
                .timestamp_s
                .total_cmp(&y.packet.timestamp_s)
                .then(x.target_id.cmp(&y.target_id))
                .then(x.ap_id.cmp(&y.ap_id))
        });
        FleetScenario {
            name: format!("fleet-apartment-{}tgt", cfg.targets),
            floorplan: plan,
            aps,
            targets,
            schedule,
            packet_interval_s: interval,
        }
    }

    /// Ground-truth position of `target_id` at scheduled time `time_s`
    /// (the walk, offset by the target's transmit phase).
    pub fn truth_at(&self, target_id: u64, time_s: f64) -> Option<Point> {
        self.targets
            .binary_search_by_key(&target_id, |t| t.target_id)
            .ok()
            .map(|i| {
                let t = &self.targets[i];
                t.path.position_at(time_s - t.start_offset_s)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_sorted_and_per_link_ordered() {
        let s = FleetScenario::generate(&FleetScenarioConfig {
            targets: 4,
            packets_per_link: 6,
            ..FleetScenarioConfig::apartment(4)
        });
        assert!(!s.targets.is_empty());
        assert_eq!(s.aps.len(), 3);
        for w in s.schedule.windows(2) {
            assert!(w[0].packet.timestamp_s <= w[1].packet.timestamp_s);
        }
        // Per (target, AP), timestamps must strictly increase: the fleet
        // engine's determinism contract needs in-order link streams.
        use std::collections::HashMap;
        let mut last: HashMap<(u64, u32), f64> = HashMap::new();
        for p in &s.schedule {
            let key = (p.target_id, p.ap_id);
            if let Some(&prev) = last.get(&key) {
                assert!(p.packet.timestamp_s > prev, "link {:?} went backwards", key);
            }
            last.insert(key, p.packet.timestamp_s);
        }
    }

    /// Every bit of a scenario's targets and schedule, in order.
    fn scenario_bits(s: &FleetScenario) -> Vec<u64> {
        let mut bits = Vec::new();
        for t in &s.targets {
            bits.extend([t.target_id, t.start_offset_s.to_bits()]);
        }
        for p in &s.schedule {
            bits.extend([p.target_id, u64::from(p.ap_id)]);
            let c = &p.packet;
            bits.extend(
                c.csi
                    .as_slice()
                    .iter()
                    .flat_map(|z| [z.re.to_bits(), z.im.to_bits()]),
            );
            bits.extend([
                c.rssi_dbm.to_bits(),
                c.timestamp_s.to_bits(),
                c.injected_sto_s.to_bits(),
            ]);
        }
        bits
    }

    #[test]
    fn generation_is_bit_identical_at_any_thread_count() {
        // Re-traces (24 packets at 0.35 m/s), loss and clock drift all draw
        // from per-target streams, so the pooled schedule equals the serial
        // one to the bit however targets land on workers.
        let cfg = FleetScenarioConfig {
            targets: 6,
            loss_rate: 0.2,
            clock_drift_ppm: 50.0,
            ..FleetScenarioConfig::apartment(6)
        };
        let serial = FleetScenario::generate_with_threads(&cfg, 1);
        assert!(serial.targets.len() > 1 && !serial.schedule.is_empty());
        let serial_bits = scenario_bits(&serial);
        for threads in [2, 4] {
            let pooled = FleetScenario::generate_with_threads(&cfg, threads);
            assert!(
                scenario_bits(&pooled) == serial_bits,
                "{threads}-thread schedule differs from the serial one"
            );
        }
        assert!(scenario_bits(&FleetScenario::generate(&cfg)) == serial_bits);
    }

    #[test]
    fn loss_thins_the_schedule_deterministically() {
        let base = FleetScenarioConfig {
            targets: 3,
            packets_per_link: 8,
            ..FleetScenarioConfig::apartment(3)
        };
        let clean = FleetScenario::generate(&base);
        let lossy_cfg = FleetScenarioConfig {
            loss_rate: 0.3,
            ..base.clone()
        };
        let lossy = FleetScenario::generate(&lossy_cfg);
        assert!(
            lossy.schedule.len() < clean.schedule.len(),
            "30% loss must thin the schedule ({} vs {})",
            lossy.schedule.len(),
            clean.schedule.len()
        );
        assert!(!lossy.schedule.is_empty());
        let again = FleetScenario::generate(&lossy_cfg);
        assert_eq!(lossy.schedule.len(), again.schedule.len());
    }

    #[test]
    fn clock_drift_skews_timestamps_without_losing_packets() {
        let base = FleetScenarioConfig {
            targets: 2,
            packets_per_link: 6,
            ..FleetScenarioConfig::apartment(2)
        };
        let clean = FleetScenario::generate(&base);
        let drifted = FleetScenario::generate(&FleetScenarioConfig {
            clock_drift_ppm: 1000.0,
            ..base
        });
        assert_eq!(clean.schedule.len(), drifted.schedule.len());
        let sum =
            |s: &FleetScenario| -> f64 { s.schedule.iter().map(|p| p.packet.timestamp_s).sum() };
        let (a, b) = (sum(&clean), sum(&drifted));
        assert!(a != b, "drift must move timestamps");
        // ±1000 ppm is a relative skew, not a reshuffle: totals agree to 1%.
        assert!((a - b).abs() / a.abs().max(1e-12) < 0.01);
    }

    #[test]
    fn perimeter_deployment_supports_eight_aps() {
        let s = FleetScenario::generate(&FleetScenarioConfig {
            targets: 2,
            aps: 8,
            packets_per_link: 4,
            ..FleetScenarioConfig::apartment(2)
        });
        assert_eq!(s.aps.len(), 8);
        let heard: std::collections::HashSet<u32> = s.schedule.iter().map(|p| p.ap_id).collect();
        assert!(
            heard.len() > 4,
            "a ring of 8 must contribute links beyond the standard 4: {heard:?}"
        );
    }

    #[test]
    fn truth_tracks_the_walk() {
        let s = FleetScenario::generate(&FleetScenarioConfig {
            targets: 2,
            packets_per_link: 4,
            ..FleetScenarioConfig::apartment(2)
        });
        let t = &s.targets[0];
        let p0 = s.truth_at(t.target_id, t.start_offset_s).unwrap();
        assert!(p0.distance(t.path.position_at(0.0)) < 1e-9);
        assert!(s.truth_at(u64::MAX, 0.0).is_none());
    }

    #[test]
    fn truth_finds_every_present_target_and_no_missing_one() {
        // Ids 0, 2, 5: the gaps are targets dropped as inaudible.
        let targets: Vec<FleetTarget> = [0u64, 2, 5]
            .iter()
            .map(|&id| FleetTarget {
                target_id: id,
                path: Waypath::stationary(Point::new(id as f64, 1.0)),
                start_offset_s: 0.0,
            })
            .collect();
        let s = FleetScenario {
            name: "gaps".into(),
            floorplan: Floorplan::empty(),
            aps: Vec::new(),
            targets,
            schedule: Vec::new(),
            packet_interval_s: 0.1,
        };
        for id in [0u64, 2, 5] {
            assert_eq!(s.truth_at(id, 3.0).map(|p| p.x), Some(id as f64));
        }
        for id in [1u64, 3, 4, 6] {
            assert!(s.truth_at(id, 3.0).is_none(), "id {id}");
        }
    }
}
