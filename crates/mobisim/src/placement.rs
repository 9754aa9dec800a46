//! Initial car placement.
//!
//! The paper: "There are 10,000 cars randomly generated along the roads
//! based on Gaussian distribution." We sample planar points from a 2-D
//! Gaussian centered on the map and snap each to the nearest road segment
//! through a [`SegmentIndex`], built for the placement and dropped when
//! it returns. `Simulation::new` places its cars first, so the index is
//! gone before the trip planner's router graph is built.

use rand::Rng;
use rand_distr_shim::sample_standard_normal;
use roadnet::{RoadNetwork, SegmentId, SegmentIndex};

/// How initial car positions are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementModel {
    /// 2-D Gaussian centered on the map; `sigma_fraction` scales the
    /// standard deviation relative to the map half-extent (the paper's
    /// model). Cars cluster downtown.
    Gaussian {
        /// Standard deviation as a fraction of the map half-extent.
        sigma_fraction: f64,
    },
    /// Uniform over segments, weighted by segment length.
    UniformByLength,
}

impl Default for PlacementModel {
    fn default() -> Self {
        PlacementModel::Gaussian {
            sigma_fraction: 0.35,
        }
    }
}

/// Draws `count` initial positions `(segment, offset-meters)`. The
/// Gaussian model snaps each sample to its nearest road by `(distance,
/// segment id)`.
///
/// # Panics
///
/// Panics if the network has no segments.
pub fn place_cars<R: Rng + ?Sized>(
    net: &RoadNetwork,
    model: PlacementModel,
    count: usize,
    rng: &mut R,
) -> Vec<(SegmentId, f64)> {
    assert!(net.segment_count() > 0, "cannot place cars on an empty map");
    match model {
        PlacementModel::Gaussian { sigma_fraction } => {
            let index = SegmentIndex::new(net);
            let bb = net.bounding_box();
            let center = bb.center();
            let sx = (bb.width() / 2.0) * sigma_fraction.max(1e-6);
            let sy = (bb.height() / 2.0) * sigma_fraction.max(1e-6);
            (0..count)
                .map(|_| {
                    let gx = sample_standard_normal(rng);
                    let gy = sample_standard_normal(rng);
                    let p = roadnet::Point::new(center.x + gx * sx, center.y + gy * sy);
                    let (seg, _) = index
                        .nearest_segment(p)
                        .expect("non-empty network has a nearest segment");
                    let len = net.segment(seg).length();
                    (seg, rng.gen_range(0.0..=1.0) * len)
                })
                .collect()
        }
        PlacementModel::UniformByLength => {
            // Cumulative length table for weighted sampling.
            let mut cum = Vec::with_capacity(net.segment_count());
            let mut total = 0.0;
            for s in net.segments() {
                total += s.length().max(1e-9);
                cum.push(total);
            }
            (0..count)
                .map(|_| {
                    let x = rng.gen_range(0.0..total);
                    let i = cum.partition_point(|&c| c <= x);
                    let seg = SegmentId(i.min(net.segment_count() - 1) as u32);
                    let len = net.segment(seg).length();
                    (seg, rng.gen_range(0.0..=1.0) * len)
                })
                .collect()
        }
    }
}

/// A tiny standard-normal sampler (Marsaglia polar method) so we do not
/// need the `rand_distr` crate.
mod rand_distr_shim {
    use rand::Rng;

    /// One sample from N(0, 1).
    pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u = rng.gen_range(-1.0f64..1.0);
            let v = rng.gen_range(-1.0f64..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use roadnet::grid_city;

    #[test]
    fn gaussian_placement_clusters_downtown() {
        let net = grid_city(9, 9, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let placements = place_cars(
            &net,
            PlacementModel::Gaussian {
                sigma_fraction: 0.25,
            },
            2000,
            &mut rng,
        );
        assert_eq!(placements.len(), 2000);
        let center = net.bounding_box().center();
        let half = net.bounding_box().diagonal() / 2.0;
        // Most cars should sit within half the radius of downtown.
        let near = placements
            .iter()
            .filter(|(s, off)| {
                let len = net.segment(*s).length().max(1e-9);
                let p = net.point_along(*s, off / len);
                p.distance(center) < half * 0.5
            })
            .count();
        assert!(
            near as f64 > 0.6 * placements.len() as f64,
            "only {near} of {} near downtown",
            placements.len()
        );
    }

    #[test]
    fn offsets_are_within_segment_lengths() {
        let net = grid_city(5, 5, 100.0);
        let mut rng = StdRng::seed_from_u64(2);
        for model in [PlacementModel::default(), PlacementModel::UniformByLength] {
            for (seg, off) in place_cars(&net, model, 500, &mut rng) {
                assert!(off >= 0.0 && off <= net.segment(seg).length() + 1e-9);
            }
        }
    }

    #[test]
    fn uniform_by_length_covers_many_segments() {
        let net = grid_city(6, 6, 100.0);
        let mut rng = StdRng::seed_from_u64(3);
        let placements = place_cars(&net, PlacementModel::UniformByLength, 3000, &mut rng);
        let distinct: std::collections::HashSet<_> = placements.iter().map(|(s, _)| *s).collect();
        // 60 segments, 3000 cars: expect nearly all segments hit.
        assert!(distinct.len() > net.segment_count() * 9 / 10);
    }

    #[test]
    fn far_junction_keeps_the_grid_small() {
        // Ten 1 m roads and a lone junction 10 km away: a grid sized
        // from the road length alone, or from any small requested cell,
        // would hold millions of cells.
        let mut b = roadnet::RoadNetworkBuilder::new();
        let mut prev = b.add_junction(roadnet::Point::new(0.0, 0.0));
        for i in 1..=10 {
            let next = b.add_junction(roadnet::Point::new(f64::from(i), 0.0));
            b.add_segment(prev, next).unwrap();
            prev = next;
        }
        b.add_junction(roadnet::Point::new(10_000.0, 10_000.0));
        let net = b.build().unwrap();
        for index in [SegmentIndex::new(&net), SegmentIndex::build(&net, 1e-6)] {
            let (cols, rows) = index.grid_size();
            assert!(
                cols * rows <= 4 * net.segment_count(),
                "{cols} × {rows} cells"
            );
        }
        let mut rng = StdRng::seed_from_u64(5);
        let placements = place_cars(&net, PlacementModel::default(), 100, &mut rng);
        assert_eq!(placements.len(), 100);
        for (seg, off) in placements {
            assert!(off >= 0.0 && off <= net.segment(seg).length());
        }
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| super::rand_distr_shim::sample_standard_normal(&mut rng))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
