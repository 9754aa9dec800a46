//! Cars and their positions on the road network.

use roadnet::{RoadNetwork, SegmentId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a simulated car (mobile user).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CarId(pub u32);

impl CarId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "car{}", self.0)
    }
}

/// A position on the network: a segment plus the distance travelled along
/// it from endpoint `a`, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoadPosition {
    /// The occupied segment.
    pub segment: SegmentId,
    /// Distance from the segment's `a` endpoint, clamped to its length.
    pub offset: f64,
}

impl RoadPosition {
    /// A position at the start of a segment.
    pub fn at_start(segment: SegmentId) -> Self {
        RoadPosition {
            segment,
            offset: 0.0,
        }
    }

    /// The fraction `offset / length` in `[0, 1]`.
    pub fn fraction(&self, net: &RoadNetwork) -> f64 {
        let len = net.segment(self.segment).length();
        if len <= 0.0 {
            0.0
        } else {
            (self.offset / len).clamp(0.0, 1.0)
        }
    }

    /// The planar point of this position.
    pub fn point(&self, net: &RoadNetwork) -> roadnet::Point {
        net.point_along(self.segment, self.fraction(net))
    }
}

/// A simulated car: current position, speed and remaining route.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Car {
    id: CarId,
    position: RoadPosition,
    /// Cruise speed in meters per second.
    speed: f64,
    /// Remaining segments to traverse after the current one, stored
    /// reversed: the next segment is last, so `advance` pops it.
    route: Vec<SegmentId>,
    /// Total distance driven so far, in meters.
    odometer: f64,
    /// Number of completed trips.
    trips_completed: u32,
}

impl Car {
    /// Creates a parked car at `position` with the given cruise speed.
    pub(crate) fn new(id: CarId, position: RoadPosition, speed: f64) -> Self {
        Car {
            id,
            position,
            speed: speed.max(0.1),
            route: Vec::new(),
            odometer: 0.0,
            trips_completed: 0,
        }
    }

    /// The car id.
    pub fn id(&self) -> CarId {
        self.id
    }

    /// Current position.
    pub fn position(&self) -> RoadPosition {
        self.position
    }

    /// The segment currently occupied — what the anonymizer sees as `L0`.
    pub fn segment(&self) -> SegmentId {
        self.position.segment
    }

    /// Cruise speed in m/s.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Remaining route after the current segment, in reverse driving
    /// order: the next segment is the last element and the destination
    /// segment the first. Walk it with `.iter().rev()` for driving order.
    pub fn route(&self) -> &[SegmentId] {
        &self.route
    }

    /// Whether the car has a trip in progress.
    pub fn is_en_route(&self) -> bool {
        !self.route.is_empty()
    }

    /// Total distance driven.
    pub fn odometer(&self) -> f64 {
        self.odometer
    }

    /// Completed trip count.
    pub fn trips_completed(&self) -> u32 {
        self.trips_completed
    }

    pub(crate) fn assign_route(&mut self, route: &[SegmentId]) {
        // Stored reversed: pop() from the back is the next segment.
        self.route = route.iter().rev().copied().collect();
    }

    pub(crate) fn finish_trip(&mut self) {
        self.trips_completed += 1;
    }

    /// Advances the car by `dt` seconds along its route. Returns `true`
    /// when the trip finished during this step (or there was no trip).
    pub(crate) fn advance(&mut self, net: &RoadNetwork, dt: f64) -> bool {
        let mut budget = self.speed * dt;
        loop {
            let seg_len = net.segment(self.position.segment).length();
            let remaining = (seg_len - self.position.offset).max(0.0);
            if budget < remaining {
                self.position.offset += budget;
                self.odometer += budget;
                return false;
            }
            // Reach the end of the current segment.
            budget -= remaining;
            self.odometer += remaining;
            match self.route.pop() {
                Some(next) => {
                    self.position = RoadPosition::at_start(next);
                }
                None => {
                    self.position.offset = seg_len;
                    return true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::grid_city;

    #[test]
    fn car_advances_within_segment() {
        let net = grid_city(2, 2, 100.0);
        let mut car = Car::new(CarId(0), RoadPosition::at_start(SegmentId(0)), 10.0);
        let done = car.advance(&net, 3.0);
        assert!(!done);
        assert_eq!(car.position().offset, 30.0);
        assert!((car.odometer() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn car_crosses_to_next_segment() {
        let net = grid_city(3, 3, 100.0);
        let mut car = Car::new(CarId(0), RoadPosition::at_start(SegmentId(0)), 10.0);
        car.assign_route(&[SegmentId(2)]);
        // 100 m segment + 50 m into the next = 15 s at 10 m/s.
        let done = car.advance(&net, 15.0);
        assert!(!done);
        assert_eq!(car.segment(), SegmentId(2));
        assert_eq!(car.position().offset, 50.0);
        assert!(!car.is_en_route()); // route consumed, still finishing s2
    }

    #[test]
    fn route_is_returned_with_the_next_segment_last() {
        let net = grid_city(3, 3, 100.0);
        let mut car = Car::new(CarId(0), RoadPosition::at_start(SegmentId(0)), 10.0);
        car.assign_route(&[SegmentId(2), SegmentId(5), SegmentId(7)]);
        assert_eq!(car.route(), [SegmentId(7), SegmentId(5), SegmentId(2)]);
        car.advance(&net, 10.0);
        assert_eq!(car.segment(), SegmentId(2));
        assert_eq!(car.route(), [SegmentId(7), SegmentId(5)]);
    }

    #[test]
    fn car_finishes_at_route_end_and_clamps() {
        let net = grid_city(2, 2, 100.0);
        let mut car = Car::new(CarId(1), RoadPosition::at_start(SegmentId(0)), 10.0);
        let done = car.advance(&net, 1000.0);
        assert!(done);
        assert_eq!(car.position().offset, 100.0);
        assert_eq!(car.position().fraction(&net), 1.0);
    }

    #[test]
    fn speed_is_clamped_positive() {
        let net = grid_city(2, 2, 100.0);
        let car = Car::new(CarId(2), RoadPosition::at_start(SegmentId(0)), -5.0);
        assert!(car.speed() > 0.0);
        let _ = &net;
    }

    #[test]
    fn fraction_and_point() {
        let net = grid_city(2, 2, 100.0);
        let pos = RoadPosition {
            segment: SegmentId(0),
            offset: 25.0,
        };
        assert_eq!(pos.fraction(&net), 0.25);
        let p = pos.point(&net);
        let a = net.junction(net.segment(SegmentId(0)).a()).position();
        let b = net.junction(net.segment(SegmentId(0)).b()).position();
        assert!((p.distance(a) - 25.0).abs() < 1e-9);
        assert!((p.distance(b) - 75.0).abs() < 1e-9);
    }
}
