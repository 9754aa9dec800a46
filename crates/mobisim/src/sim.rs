//! The discrete-time traffic simulation.
//!
//! GTMobiSim semantics, per the paper: "Once a car is generated, the
//! associated destination is also randomly chosen and the route selection
//! is based on shortest path routing." Cars drive their route at a cruise
//! speed; on arrival a fresh random destination is chosen.
//!
//! [`Simulation::new`] places the cars first: [`place_cars`] builds a
//! [`roadnet::SegmentIndex`], snaps every car to its nearest road and
//! drops the index, all before the trip planner's router graph is built.
//!
//! Every trip goes through one batch planner, built with the simulation:
//! the setup trips and commuter anchors of [`Simulation::new`] (in
//! batches of a few hundred cars) and the trips of each
//! [`Simulation::step`]. Under a heterogeneous mix, parked cars and
//! commuters still draw a first trip in the legacy order, and commuters
//! draw a work anchor, but only the draws are kept: those trips are
//! draw-only, routed only on a map whose component labels cannot stand
//! in for a route. A batch runs in three passes. The cars advance
//! and draw their destinations in car order, with the draws they always
//! made; reachability comes from component labels, not a search. The
//! drawn trips are then routed on the simulation's
//! [`roadnet::fanout::Pool`], one worker per available core: the calling
//! thread, and the pool's threads, which the simulation keeps for its
//! lifetime and joins when it is dropped (the route pass spawns none on
//! one core). A caller that fans out between steps, like a continuous
//! pipeline's tick, runs on the same pool ([`Simulation::pool`]), which
//! then keeps threads for the wider of the two. The routes, commuter
//! phases and commuter moves are then committed in car order. Each
//! worker is a [`roadnet::TripRouter`] over one shared router graph, so
//! every route is the one [`roadnet::shortest_path`] returns and the
//! simulation is the same at any worker count. On a map small enough for
//! [`roadnet::SourceTrees`] the calling thread reads every route from
//! its start's shortest-path tree instead, the same routes without a
//! search or a fan-out. Where a route's float length overflows
//! (only on a map that runs plain Dijkstra), the planner replays the
//! rest of the batch in sequence.
//!
//! The router reads the landmark table of the network's
//! [`roadnet::GraphIndex`]. On a network with no index yet,
//! [`Simulation::new`] builds one, computing its landmark rows on
//! [`roadnet::fanout`] with one worker per core. A caller that already
//! holds an indexed network hands the simulation a
//! [`RoadNetwork::share_index`] copy rather than a plain clone, which
//! would build a second index.

use crate::behavior::{BehaviorKind, BehaviorMix, CarBehavior, CommutePhase, RushSchedule};
use crate::car::{Car, CarId, RoadPosition};
use crate::placement::{place_cars, PlacementModel};
use crate::plan::TripPlanner;
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::{RoadNetwork, SegmentId};

/// Cars per setup batch in [`Simulation::new`]: enough trips to keep
/// every routing worker busy, few enough that the planner's buffers stay
/// near a step's size.
const SETUP_BATCH: usize = 512;

/// Configuration of a [`Simulation`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of cars (the paper uses 10,000).
    pub cars: usize,
    /// Placement model for initial positions.
    pub placement: PlacementModel,
    /// Cruise speed range in m/s (sampled uniformly per car).
    pub speed_range: (f64, f64),
    /// PRNG seed for reproducible traffic.
    pub seed: u64,
    /// Population behavior composition. The [`BehaviorMix::Uniform`]
    /// default reproduces the legacy homogeneous traffic with the exact
    /// legacy RNG draw sequence (receipt digests are pinned against it).
    pub behavior: BehaviorMix,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cars: 10_000,
            placement: PlacementModel::default(),
            speed_range: (8.0, 20.0), // ~30–70 km/h
            seed: 42,
            behavior: BehaviorMix::Uniform,
        }
    }
}

/// A running traffic simulation over a road network.
///
/// ```
/// use mobisim::{SimConfig, Simulation};
/// use roadnet::grid_city;
///
/// let net = grid_city(6, 6, 100.0);
/// let mut sim = Simulation::new(net, SimConfig { cars: 100, ..Default::default() });
/// sim.step(5.0);
/// assert_eq!(sim.cars().len(), 100);
/// ```
#[derive(Debug)]
pub struct Simulation {
    net: RoadNetwork,
    /// Plans every trip: built once from `net`, reused by every batch.
    planner: TripPlanner,
    cars: Vec<Car>,
    rng: StdRng,
    clock: f64,
    /// Per-car behavior state; empty under [`BehaviorMix::Uniform`],
    /// where the legacy step loop runs untouched.
    behaviors: Vec<CarBehavior>,
    /// The heterogeneous mixes' rush schedule (`None` for uniform).
    rush: Option<RushSchedule>,
    /// Steps taken so far — the phase clock of the rush schedule.
    tick: u64,
}

impl Simulation {
    /// Creates a simulation: places cars, assigns destinations and routes.
    ///
    /// # Panics
    ///
    /// Panics if the network has no segments.
    pub fn new(net: RoadNetwork, cfg: SimConfig) -> Self {
        Simulation::with_workers(net, cfg, roadnet::fanout::workers(0), false)
    }

    /// [`new`](Self::new) with `workers` routing workers;
    /// `route_every_trip` routes the draw-only setup trips too, the
    /// reference the skip is tested against.
    fn with_workers(
        net: RoadNetwork,
        cfg: SimConfig,
        workers: usize,
        route_every_trip: bool,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let placements = place_cars(&net, cfg.placement, cfg.cars, &mut rng);
        let mut planner = TripPlanner::new(&net, workers);
        if route_every_trip {
            planner.route_every_trip();
        }
        // Each car draws its speed, then its first trip, whose route only
        // a taxi keeps: parked cars and commuters anchor where they were
        // placed. The cars go in batches of SETUP_BATCH: the planner's
        // buffers keep their capacity for the whole run, so they should
        // never hold every setup route at once.
        let is_taxi = |car: usize| cfg.behavior.kind_for(car) == BehaviorKind::Taxi;
        let mut cars = Vec::with_capacity(cfg.cars);
        for batch in placements.chunks(SETUP_BATCH) {
            planner.clear();
            for (i, &(segment, _)) in batch.iter().enumerate() {
                let (car, start) = (cars.len() + i, net.segment(segment).b());
                if is_taxi(car) {
                    planner.push(car, start, None);
                } else {
                    planner.push_draw_only(car, start);
                }
            }
            planner.plan(&mut rng, Some(cfg.speed_range));
            for (&(segment, offset), trip) in batch.iter().zip(planner.trips()) {
                let id = CarId(trip.car as u32);
                let mut car = Car::new(id, RoadPosition { segment, offset }, trip.speed);
                if is_taxi(trip.car) {
                    car.assign_route(planner.route(trip).unwrap_or_default());
                }
                cars.push(car);
            }
        }
        // Heterogeneous mixes layer behavior state on top of the shared
        // placement/speed/first-trip draws above (which stay in the
        // legacy order); each commuter then draws its work anchor like a
        // trip, keeping only the destination.
        let rush = cfg.behavior.rush();
        let mut behaviors = Vec::new();
        if rush.is_some() {
            behaviors.reserve(cars.len());
            for first in (0..cars.len()).step_by(SETUP_BATCH) {
                planner.clear();
                for (i, car) in cars.iter().enumerate().skip(first).take(SETUP_BATCH) {
                    let mut state = CarBehavior::new(cfg.behavior.kind_for(i));
                    if state.kind == BehaviorKind::Commuter {
                        let home = net.segment(car.segment()).b();
                        state.home = Some(home);
                        state.phase = CommutePhase::AtHome;
                        planner.push_draw_only(i, home);
                    }
                    behaviors.push(state);
                }
                planner.plan(&mut rng, None);
                for trip in planner.trips() {
                    behaviors[trip.car].work = trip.dest;
                }
            }
        }
        Simulation {
            net,
            planner,
            cars,
            rng,
            clock: 0.0,
            behaviors,
            rush,
            tick: 0,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// All cars.
    pub fn cars(&self) -> &[Car] {
        &self.cars
    }

    /// A car by id.
    pub fn car(&self, id: CarId) -> Option<&Car> {
        self.cars.get(id.index())
    }

    /// The segment a car currently occupies — what the anonymizer sees as
    /// its true location (`None` for unknown ids).
    pub fn car_segment(&self, id: CarId) -> Option<SegmentId> {
        self.car(id).map(|c| c.segment())
    }

    /// The pool the simulation routes its trips on, for a caller that
    /// fans out between steps: one set of kept threads then serves both.
    pub fn pool(&mut self) -> &mut roadnet::fanout::Pool {
        &mut self.planner.pool
    }

    /// Simulation time in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advances the simulation by `dt` seconds. Cars that arrive get a new
    /// random destination (continuous traffic, as in GTMobiSim); under a
    /// heterogeneous [`BehaviorMix`] each car instead follows its
    /// archetype (taxis hop, commuters follow the rush schedule, parked
    /// cars stay put).
    pub fn step(&mut self, dt: f64) {
        self.clock += dt;
        self.tick += 1;
        self.planner.clear();
        let Some(rush) = self.rush else {
            // The homogeneous loop: every car that arrives draws a trip,
            // in car order (the digest-pinned draw sequence).
            for (i, car) in self.cars.iter_mut().enumerate() {
                if car.advance(&self.net, dt) {
                    car.finish_trip();
                    self.planner
                        .push(i, self.net.segment(car.segment()).b(), None);
                }
            }
            self.planner.plan(&mut self.rng, None);
            for trip in self.planner.trips() {
                let route = self.planner.route(trip).unwrap_or_default();
                self.cars[trip.car].assign_route(route);
            }
            return;
        };
        // Phase of the step that is now elapsing.
        let phase = (self.tick - 1) % rush.period;
        for (i, car) in self.cars.iter_mut().enumerate() {
            let state = &self.behaviors[i];
            match state.kind {
                BehaviorKind::Parked => {}
                BehaviorKind::Taxi => {
                    if car.advance(&self.net, dt) {
                        car.finish_trip();
                        self.planner
                            .push(i, self.net.segment(car.segment()).b(), None);
                    }
                }
                BehaviorKind::Commuter => {
                    // Departure decisions happen at anchors, before any
                    // movement this step. Each commuter waits for its own
                    // staggered phase inside the window, so the
                    // population departs as a rolling wave.
                    let depart_to = match state.phase {
                        CommutePhase::AtHome
                            if rush.in_morning(phase)
                                && phase >= rush.departure_phase(car.id(), rush.morning) =>
                        {
                            state.work
                        }
                        CommutePhase::AtWork
                            if rush.in_evening(phase)
                                && phase >= rush.departure_phase(car.id(), rush.evening) =>
                        {
                            state.home
                        }
                        _ => None,
                    };
                    if let Some(dest) = depart_to {
                        let start = self.net.segment(car.segment()).b();
                        self.planner.push(i, start, Some(dest));
                    }
                }
            }
        }
        self.planner.plan(&mut self.rng, None);
        // Commit in car order: a taxi's new route, or a commuter's
        // departure and its movement along the new route.
        let mut trips = self.planner.trips().iter().peekable();
        for (i, car) in self.cars.iter_mut().enumerate() {
            let trip = trips.next_if(|t| t.car == i);
            let route = trip.and_then(|t| self.planner.route(t));
            let state = &mut self.behaviors[i];
            match state.kind {
                BehaviorKind::Parked => {}
                BehaviorKind::Taxi => {
                    if trip.is_some() {
                        car.assign_route(route.unwrap_or_default());
                    }
                }
                BehaviorKind::Commuter => {
                    // No route (anchor unreachable or already here):
                    // stay parked and retry next step in the window.
                    if let Some(route) = route {
                        state.phase = match state.phase {
                            CommutePhase::AtHome => CommutePhase::ToWork,
                            _ => CommutePhase::ToHome,
                        };
                        car.assign_route(route);
                    }
                    if matches!(state.phase, CommutePhase::ToWork | CommutePhase::ToHome)
                        && car.advance(&self.net, dt)
                    {
                        car.finish_trip();
                        state.phase = match state.phase {
                            CommutePhase::ToWork => CommutePhase::AtWork,
                            _ => CommutePhase::AtHome,
                        };
                    }
                }
            }
        }
    }

    /// Runs `steps` steps of `dt` seconds each.
    pub fn run(&mut self, steps: usize, dt: f64) {
        for _ in 0..steps {
            self.step(dt);
        }
    }

    /// Current number of users on each segment, indexed by segment id.
    pub fn occupancy(&self) -> Vec<u32> {
        let mut counts = Vec::new();
        self.occupancy_into(&mut counts);
        counts
    }

    /// Like [`occupancy`](Self::occupancy), writing into a caller-owned
    /// buffer (resized and zeroed first) — the snapshot-recapture path
    /// that reuses one counts buffer across cadences.
    pub fn occupancy_into(&self, counts: &mut Vec<u32>) {
        counts.clear();
        counts.resize(self.net.segment_count(), 0);
        for car in &self.cars {
            counts[car.segment().index()] += 1;
        }
    }

    /// Captures the current occupancy into an existing snapshot, reusing
    /// its counts buffer (see [`crate::OccupancySnapshot::recapture`]).
    pub fn capture_into(&self, snap: &mut crate::OccupancySnapshot) {
        snap.recapture(self);
    }

    /// Steps taken so far (the rush schedule's phase clock).
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// The behavior archetype of a car ([`BehaviorKind::Taxi`] for every
    /// car under the uniform mix; `None` for unknown ids).
    pub fn behavior_kind(&self, id: CarId) -> Option<BehaviorKind> {
        if id.index() >= self.cars.len() {
            return None;
        }
        Some(match self.behaviors.get(id.index()) {
            Some(state) => state.kind,
            None => BehaviorKind::Taxi,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::grid_city;

    fn small_sim(cars: usize, seed: u64) -> Simulation {
        Simulation::new(
            grid_city(6, 6, 100.0),
            SimConfig {
                cars,
                seed,
                ..Default::default()
            },
        )
    }

    #[test]
    fn all_cars_have_routes_initially() {
        let sim = small_sim(200, 1);
        let en_route = sim.cars().iter().filter(|c| c.is_en_route()).count();
        // A connected grid: virtually every car gets a route (cars whose
        // random destination equaled their start 8 times would park —
        // astronomically unlikely here).
        assert_eq!(en_route, 200);
    }

    #[test]
    fn occupancy_sums_to_car_count() {
        let mut sim = small_sim(300, 2);
        assert_eq!(sim.occupancy().iter().sum::<u32>(), 300);
        sim.run(20, 10.0);
        assert_eq!(sim.occupancy().iter().sum::<u32>(), 300);
    }

    #[test]
    fn clock_advances() {
        let mut sim = small_sim(10, 3);
        sim.run(5, 2.5);
        assert!((sim.clock() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn cars_actually_move() {
        let mut sim = small_sim(100, 4);
        let before: Vec<_> = sim
            .cars()
            .iter()
            .map(|c| (c.segment(), c.position().offset))
            .collect();
        sim.run(30, 10.0);
        let moved = sim
            .cars()
            .iter()
            .zip(&before)
            .filter(|(c, (s, o))| c.segment() != *s || (c.position().offset - o).abs() > 1.0)
            .count();
        assert!(moved > 90, "only {moved} cars moved");
        let total_odometer: f64 = sim.cars().iter().map(|c| c.odometer()).sum();
        assert!(total_odometer > 0.0);
    }

    #[test]
    fn trips_complete_over_time() {
        let mut sim = small_sim(50, 5);
        sim.run(400, 10.0); // over an hour of driving on a small grid
        let trips: u32 = sim.cars().iter().map(|c| c.trips_completed()).sum();
        assert!(trips > 0, "no car completed a trip");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = small_sim(100, 7);
        let mut b = small_sim(100, 7);
        a.run(10, 5.0);
        b.run(10, 5.0);
        assert_eq!(a.occupancy(), b.occupancy());
        let mut c = small_sim(100, 8);
        c.run(10, 5.0);
        assert_ne!(a.occupancy(), c.occupancy());
    }

    fn mixed_sim(mix: BehaviorMix, cars: usize, seed: u64) -> Simulation {
        Simulation::new(
            grid_city(6, 6, 100.0),
            SimConfig {
                cars,
                seed,
                behavior: mix,
                ..Default::default()
            },
        )
    }

    #[test]
    fn uniform_mix_is_bit_identical_to_legacy_default() {
        // The digest-pinning guarantee at the simulation layer: adding
        // the behavior field must not change a single draw of the
        // default configuration.
        let mut legacy = small_sim(200, 11);
        let mut uniform = mixed_sim(BehaviorMix::uniform(), 200, 11);
        legacy.run(15, 10.0);
        uniform.run(15, 10.0);
        assert_eq!(legacy.occupancy(), uniform.occupancy());
    }

    #[test]
    fn parked_cars_never_move() {
        let mut sim = mixed_sim(BehaviorMix::rush_hour(), 200, 12);
        let parked: Vec<(usize, SegmentId, f64)> = sim
            .cars()
            .iter()
            .enumerate()
            .filter(|(i, _)| sim.behavior_kind(CarId(*i as u32)) == Some(BehaviorKind::Parked))
            .map(|(i, c)| (i, c.segment(), c.position().offset))
            .collect();
        assert!(!parked.is_empty(), "rush-hour mix must park some cars");
        sim.run(40, 10.0);
        for (i, seg, off) in parked {
            let car = &sim.cars()[i];
            assert_eq!(car.segment(), seg);
            assert_eq!(car.position().offset, off);
        }
    }

    #[test]
    fn commuters_cycle_between_anchors() {
        let mut sim = mixed_sim(BehaviorMix::commuter_city(), 300, 13);
        // Two simulated days: every reachable commuter should complete
        // at least one leg (home→work counts as a trip).
        sim.run(48, 10.0);
        let commuter_trips: u32 = sim
            .cars()
            .iter()
            .enumerate()
            .filter(|(i, _)| sim.behavior_kind(CarId(*i as u32)) == Some(BehaviorKind::Commuter))
            .map(|(_, c)| c.trips_completed())
            .sum();
        assert!(commuter_trips > 0, "no commuter completed a leg");
    }

    #[test]
    fn heterogeneous_occupancy_still_sums_to_car_count() {
        for mix in [
            BehaviorMix::commuter_city(),
            BehaviorMix::taxi_fleet(),
            BehaviorMix::rush_hour(),
        ] {
            let mut sim = mixed_sim(mix, 250, 14);
            sim.run(30, 10.0);
            assert_eq!(sim.occupancy().iter().sum::<u32>(), 250);
        }
    }

    #[test]
    fn rush_hour_creates_a_density_wave() {
        // During a rush window, moving commuters concentrate along
        // shortest paths; between windows they sit at anchors. The
        // en-route count must visibly oscillate across a day.
        let mut sim = mixed_sim(BehaviorMix::rush_hour(), 400, 15);
        let mut en_route = Vec::new();
        for _ in 0..16 {
            sim.step(10.0);
            en_route.push(sim.cars().iter().filter(|c| c.is_en_route()).count());
        }
        let max = *en_route.iter().max().unwrap();
        let min = *en_route.iter().min().unwrap();
        assert!(
            max >= min + 20,
            "no departure wave: en-route counts {en_route:?}"
        );
    }

    #[test]
    fn worker_counts_give_identical_simulations() {
        // 1,100 cars: three setup batches, the last one short. The
        // reference routes every setup trip, draw-only ones included.
        for mix in [
            BehaviorMix::uniform(),
            BehaviorMix::commuter_city(),
            BehaviorMix::taxi_fleet(),
            BehaviorMix::rush_hour(),
        ] {
            let run = |workers, route_every_trip| {
                let cfg = SimConfig {
                    cars: 1_100,
                    seed: 16,
                    behavior: mix.clone(),
                    ..Default::default()
                };
                let net = roadnet::city_map(5, 600);
                let mut sim = Simulation::with_workers(net, cfg, workers, route_every_trip);
                let mut states = vec![sim.cars().to_vec()];
                for _ in 0..20 {
                    sim.step(10.0);
                    states.push(sim.cars().to_vec());
                }
                states
            };
            let reference = run(1, true);
            for workers in 1..=3 {
                assert_eq!(
                    run(workers, false),
                    reference,
                    "{mix:?} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn setup_routes_only_the_trips_it_keeps() {
        // On a map that keeps the goal-directed bound, setup routes the
        // taxis' first trips and nothing else: no parked car's or
        // commuter's first trip, and no commuter anchor.
        for mix in [
            BehaviorMix::commuter_city(),
            BehaviorMix::rush_hour(),
            BehaviorMix::taxi_fleet(),
        ] {
            let cfg = SimConfig {
                cars: 1_100,
                seed: 17,
                behavior: mix.clone(),
                ..Default::default()
            };
            let sim = Simulation::with_workers(roadnet::city_map(5, 600), cfg, 2, false);
            let taxis = (0..sim.cars().len())
                .filter(|&i| sim.behavior_kind(CarId(i as u32)) == Some(BehaviorKind::Taxi))
                .collect::<Vec<_>>();
            let en_route = taxis
                .iter()
                .filter(|&&i| sim.cars()[i].is_en_route())
                .count();
            assert!(
                en_route > taxis.len() * 9 / 10,
                "{mix:?}: {en_route} taxis en route"
            );
            assert_eq!(sim.planner.routed(), en_route, "{mix:?}");
        }
    }

    #[test]
    fn setup_routes_every_trip_where_routes_can_overflow() {
        // A line of roads 1e308 m long runs plain Dijkstra: a connected
        // trip can lack a route, so every setup trip is routed, parked
        // cars', commuters' and anchors included.
        let mut b = roadnet::RoadNetworkBuilder::new();
        let mut prev = b.add_junction(roadnet::Point::new(0.0, 0.0));
        for i in 1..8 {
            let next = b.add_junction(roadnet::Point::new(100.0 * f64::from(i), 0.0));
            b.add_segment_with_length(prev, next, 1e308).unwrap();
            prev = next;
        }
        let cfg = SimConfig {
            cars: 60,
            seed: 18,
            behavior: BehaviorMix::commuter_city(),
            ..Default::default()
        };
        let sim = Simulation::with_workers(b.build().unwrap(), cfg, 2, false);
        let commuters = (0..60)
            .filter(|&i| sim.behavior_kind(CarId(i)) == Some(BehaviorKind::Commuter))
            .count();
        assert!(commuters > 30);
        assert_eq!(sim.planner.routed(), 60 + commuters);
    }

    #[test]
    fn car_lookup() {
        let sim = small_sim(10, 9);
        assert!(sim.car(CarId(9)).is_some());
        assert!(sim.car(CarId(10)).is_none());
        assert_eq!(
            sim.car_segment(CarId(9)),
            Some(sim.car(CarId(9)).unwrap().segment())
        );
        assert!(sim.car_segment(CarId(10)).is_none());
    }
}
