//! Batch trip planning.
//!
//! A [`TripPlanner`] plans one batch of trips, listed in car order, in
//! three passes, and gives every car the route the sequential planner
//! gave it: draw a destination, route it, assign it, car by car.
//!
//! 1. **Draw** ([`TripPlanner::plan`]). Every drawn trip makes exactly
//!    the draws of the sequential planner: up to eight uniform
//!    junctions, skipping its start, keeping the first one in the start's
//!    component. The components come from [`TripRouter::connected`], not
//!    from a search.
//! 2. **Route.** On a map small enough for [`SourceTrees`] (a rule
//!    derived from the map, see [`SourceTrees::new`]), the calling
//!    thread reads every trip's route from its start's shortest-path
//!    tree, in trip order: a read copies a route's few segments, far
//!    less than a fan-out costs. On any other map the destinations are
//!    routed on the planner's [`fanout::Pool`], about sixteen chunks per
//!    worker, with up to one worker per available core (the calling
//!    thread is one of them, and the others are the pool's kept
//!    threads, which the simulation also lends its other callers through
//!    `Simulation::pool`). The batch's trips move into an `Arc` for the
//!    pass and back out after it. Each worker has its own
//!    [`TripRouter`] labels and heap over the one shared router graph.
//!    Either way, each worker writes segments into its own flat buffer,
//!    which the planner keeps from batch to batch.
//! 3. **Commit.** The caller reads the trips back in car order and
//!    allocates each car's route on the calling thread, so long-lived
//!    routes never come from a worker thread's allocator arena.
//!
//! Routes are `shortest_path`'s byte for byte, so the output is the same
//! at any worker count. A route can be missing where its component says
//! it exists only when a path's float length overflows, on a map that
//! runs plain Dijkstra. Then the sequential planner would have drawn
//! again, so the planner replays the rest of the batch on the calling
//! thread from the generator state it saved at that trip.
//!
//! A *draw-only* trip ([`TripPlanner::push_draw_only`]) makes its draws
//! like any other, but its caller keeps only the destination, so the
//! route pass skips it wherever the component labels answer routability
//! exactly ([`TripRouter::connected_matches_route`]): on every map that
//! keeps the goal-directed bound. On a plain-Dijkstra map it is routed as
//! before, because there a missing route decides the draws.

use rand::rngs::StdRng;
use rand::Rng;
use roadnet::{fanout, JunctionId, RoadNetwork, SegmentId, SourceTrees, TripRouter};
use std::sync::Arc;

/// Draws per trip before a car gives up and parks until its next step.
const DRAW_ATTEMPTS: usize = 8;

/// One trip of a batch.
#[derive(Debug)]
pub(crate) struct Trip {
    /// Index of the car the trip is for.
    pub car: usize,
    /// The junction the route starts from.
    pub start: JunctionId,
    /// The destination, once drawn (or as fixed by the caller). `None`
    /// when no draw reached a junction in the start's component.
    pub dest: Option<JunctionId>,
    /// The cruise speed drawn before the destination, in a batch that
    /// draws speeds (0 otherwise).
    pub speed: f64,
    /// Whether the destination is drawn (else the caller fixed it).
    drawn: bool,
    /// Whether the caller keeps only the destination, not the route.
    draw_only: bool,
    /// The generator state before this trip's draws.
    saved: Option<StdRng>,
    /// The route's segments: `(worker, start, end)` in that worker's
    /// buffer.
    route: Option<(usize, u32, u32)>,
}

/// One routing worker: a router over the planner's shared graph and the
/// buffers it writes the batch's routes into.
#[derive(Debug)]
struct Worker {
    router: TripRouter,
    /// Every route this worker found in the batch, back to back.
    segments: Vec<SegmentId>,
    /// `(trip, start, end)`: where each found route sits in `segments`.
    spans: Vec<(u32, u32, u32)>,
}

impl Worker {
    /// Routes `trips[first..last]`, reading the routes from `trees` when
    /// given and searching with the worker's router otherwise.
    fn route(
        &mut self,
        trips: &[Trip],
        first: usize,
        last: usize,
        route_draw_only: bool,
        mut trees: Option<&mut SourceTrees>,
    ) {
        for (i, trip) in trips[first..last].iter().enumerate() {
            let Some(dest) = trip.route_to(route_draw_only) else {
                continue;
            };
            let start = self.segments.len() as u32;
            let found = match trees.as_deref_mut() {
                Some(trees) => trees.route_into(trip.start, dest, &mut self.segments),
                None => self.router.route_into(trip.start, dest, &mut self.segments),
            };
            if found {
                let end = self.segments.len() as u32;
                self.spans.push(((first + i) as u32, start, end));
            }
        }
    }
}

/// Plans batches of trips for one map (see the module doc).
#[derive(Debug)]
pub(crate) struct TripPlanner {
    trips: Vec<Trip>,
    /// `workers[0]` routes on the calling thread and replays; on a map
    /// with trees it is the only worker.
    workers: Vec<Worker>,
    /// The route pass's kept threads, which the simulation lends to its
    /// other callers too (the route pass uses none on a map with trees).
    pub(crate) pool: fanout::Pool,
    /// The map's per-source trees, where they fit: the route pass reads
    /// every route from them.
    trees: Option<SourceTrees>,
    junctions: u32,
    /// Whether draw-only trips are routed: where a connected trip can
    /// lack a route, so the route pass decides the draws.
    route_draw_only: bool,
    /// Trips the route pass has routed since the planner was built.
    routed: usize,
}

impl TripPlanner {
    /// A planner for `net` with `workers` routing workers (at least one),
    /// all sharing one [`TripRouter`] graph, or with one worker and the
    /// map's [`SourceTrees`] where they fit.
    pub fn new(net: &RoadNetwork, workers: usize) -> TripPlanner {
        let router = TripRouter::new(net);
        let trees = SourceTrees::new(net, &router);
        TripPlanner::over(net, router, trees, workers)
    }

    /// A planner for `net` that reads routes from `trees` when given,
    /// else searches with `router` (built from `net`) on `workers`
    /// routing workers.
    fn over(
        net: &RoadNetwork,
        router: TripRouter,
        trees: Option<SourceTrees>,
        workers: usize,
    ) -> TripPlanner {
        let route_draw_only = !router.connected_matches_route();
        let workers = if trees.is_some() { 1 } else { workers };
        let mut routers: Vec<TripRouter> = (1..workers).map(|_| router.share()).collect();
        routers.insert(0, router);
        TripPlanner {
            trips: Vec::new(),
            workers: routers
                .into_iter()
                .map(|router| Worker {
                    router,
                    segments: Vec::new(),
                    spans: Vec::new(),
                })
                .collect(),
            pool: fanout::Pool::default(),
            trees,
            junctions: net.junction_count() as u32,
            route_draw_only,
            routed: 0,
        }
    }

    /// Routes draw-only trips too, as on a map where their routes decide
    /// the draws: the reference the skip is checked against.
    pub fn route_every_trip(&mut self) {
        self.route_draw_only = true;
    }

    /// Trips the route pass has routed since the planner was built
    /// (replays not counted).
    #[cfg(test)]
    pub fn routed(&self) -> usize {
        self.routed
    }

    /// Starts a new batch, dropping the last one's trips and routes.
    pub fn clear(&mut self) {
        self.trips.clear();
        for worker in &mut self.workers {
            worker.segments.clear();
            worker.spans.clear();
        }
    }

    /// Adds a trip from `start`: to `dest`, drawing nothing, or with
    /// `None` to a destination drawn at random. A fixed trip gets no
    /// route when `dest` is `start` or cannot be reached.
    pub fn push(&mut self, car: usize, start: JunctionId, dest: Option<JunctionId>) {
        self.trips.push(Trip {
            car,
            start,
            dest,
            speed: 0.0,
            drawn: dest.is_none(),
            draw_only: false,
            saved: None,
            route: None,
        });
    }

    /// Adds a trip from `start` to a destination drawn at random whose
    /// route the caller will not read: it is routed only where the
    /// planner must route it to make the right draws.
    pub fn push_draw_only(&mut self, car: usize, start: JunctionId) {
        self.push(car, start, None);
        self.trips
            .last_mut()
            .expect("a trip was just pushed")
            .draw_only = true;
    }

    /// Draws, routes and (where a route overflowed) replays the batch.
    /// With `speeds`, each drawn trip first draws its car's cruise speed
    /// in that range, as a car's setup does. Returns the trip the replay
    /// started from, if there was one.
    pub fn plan(&mut self, rng: &mut StdRng, speeds: Option<(f64, f64)>) -> Option<usize> {
        let router = &self.workers[0].router;
        for trip in &mut self.trips {
            let start = trip.start;
            if trip.drawn {
                trip.draw(rng, speeds, self.junctions, |dest| {
                    router.connected(start, dest)
                });
            } else {
                trip.dest = trip
                    .dest
                    .filter(|&dest| dest != start && router.connected(start, dest));
            }
        }
        self.route_all();
        let route_draw_only = self.route_draw_only;
        let replay = self
            .trips
            .iter()
            .position(|t| t.drawn && t.route_to(route_draw_only).is_some() && t.route.is_none())?;
        *rng = self.trips[replay]
            .saved
            .clone()
            .expect("a drawn trip saves the generator");
        let worker = &mut self.workers[0];
        for trip in self.trips[replay..].iter_mut().filter(|t| t.drawn) {
            let start = trip.start;
            let mut found = None;
            trip.draw(rng, speeds, self.junctions, |dest| {
                let first = worker.segments.len() as u32;
                let reached = worker.router.route_into(start, dest, &mut worker.segments);
                if reached {
                    found = Some((0, first, worker.segments.len() as u32));
                }
                reached
            });
            trip.route = found;
        }
        Some(replay)
    }

    /// The batch's trips, in the order they were pushed.
    pub fn trips(&self) -> &[Trip] {
        &self.trips
    }

    /// A trip's route, or `None` when it has none.
    pub fn route(&self, trip: &Trip) -> Option<&[SegmentId]> {
        let (worker, start, end) = trip.route?;
        Some(&self.workers[worker].segments[start as usize..end as usize])
    }

    /// The route pass: every trip with a destination whose route is
    /// needed, read from the trees, or routed, on the calling thread when
    /// at most one trip needs a route and else on the planner's pool.
    fn route_all(&mut self) {
        let route_draw_only = self.route_draw_only;
        let routed = self
            .trips
            .iter()
            .filter(|t| t.route_to(route_draw_only).is_some())
            .count();
        self.routed += routed;
        if routed == 0 {
            return;
        }
        let count = self.trips.len();
        if self.trees.is_some() || routed == 1 {
            let trees = self.trees.as_mut();
            self.workers[0].route(&self.trips, 0, count, route_draw_only, trees);
        } else {
            let trips = Arc::new(std::mem::take(&mut self.trips));
            // About sixteen chunks per worker, four times `chunk_len`'s
            // share: a route takes ≈15 µs, so route chunks are long, and
            // the calling thread waits for the other workers' last chunks.
            let chunk = fanout::chunk_len(count, 4 * self.workers.len().min(routed));
            let pass = Arc::clone(&trips);
            self.pool.fan_out(
                &mut self.workers,
                count.div_ceil(chunk),
                move |worker, c| {
                    let first = c * chunk;
                    let last = count.min(first + chunk);
                    worker.route(&pass, first, last, route_draw_only, None);
                },
            );
            self.trips = Arc::try_unwrap(trips).expect("the pool let go of the trips");
        }
        for (w, worker) in self.workers.iter().enumerate() {
            for &(trip, start, end) in &worker.spans {
                self.trips[trip as usize].route = Some((w, start, end));
            }
        }
    }
}

impl Trip {
    /// The destination the route pass routes this trip to: none for a
    /// trip without one, nor for a draw-only trip unless
    /// `route_draw_only`.
    fn route_to(&self, route_draw_only: bool) -> Option<JunctionId> {
        self.dest.filter(|_| route_draw_only || !self.draw_only)
    }

    /// Saves the generator, then makes the trip's draws: its speed when
    /// `speeds` is given, then up to eight uniform junctions, keeping the
    /// first that is not the start and that `reachable` accepts.
    fn draw(
        &mut self,
        rng: &mut StdRng,
        speeds: Option<(f64, f64)>,
        junctions: u32,
        mut reachable: impl FnMut(JunctionId) -> bool,
    ) {
        self.saved = Some(rng.clone());
        if let Some((low, high)) = speeds {
            self.speed = rng.gen_range(low..=high);
        }
        self.dest = (0..DRAW_ATTEMPTS)
            .map(|_| JunctionId(rng.gen_range(0..junctions)))
            .find(|&dest| dest != self.start && reachable(dest));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use roadnet::{city_map, grid_city, Point, RoadNetworkBuilder};

    /// What one trip ended with: its speed, its drawn destination, and
    /// its route (`None` for none or an empty one).
    type Outcome = (f64, Option<JunctionId>, Option<Vec<SegmentId>>);

    /// `(start, fixed destination)`; `None` draws the destination.
    type Request = (JunctionId, Option<JunctionId>);

    /// The sequential planner the batch planner must match: each trip in
    /// turn draws its speed and then destinations, routing every
    /// candidate until one is reached.
    fn sequential(
        router: &mut TripRouter,
        junctions: u32,
        batch: &[Request],
        rng: &mut StdRng,
        speeds: Option<(f64, f64)>,
    ) -> Vec<Outcome> {
        let mut outcomes = Vec::new();
        for &(start, fixed) in batch {
            if let Some(dest) = fixed {
                let route = router.route(start, dest).filter(|r| !r.is_empty());
                outcomes.push((0.0, None, route));
                continue;
            }
            let speed = speeds.map_or(0.0, |(low, high)| rng.gen_range(low..=high));
            let mut outcome = (speed, None, None);
            for _ in 0..8 {
                let dest = JunctionId(rng.gen_range(0..junctions));
                if dest == start {
                    continue;
                }
                if let Some(route) = router.route(start, dest) {
                    outcome = (speed, Some(dest), Some(route));
                    break;
                }
            }
            outcomes.push(outcome);
        }
        outcomes
    }

    /// Whether the batch planner gets request `i` as a draw-only trip:
    /// every third drawn one.
    fn draw_only(i: usize, &(_, fixed): &Request) -> bool {
        fixed.is_none() && i % 3 == 1
    }

    fn planned(
        planner: &mut TripPlanner,
        batch: &[Request],
        rng: &mut StdRng,
        speeds: Option<(f64, f64)>,
    ) -> (Vec<Outcome>, Option<usize>) {
        planner.clear();
        for (car, request) in batch.iter().enumerate() {
            if draw_only(car, request) {
                planner.push_draw_only(car, request.0);
            } else {
                planner.push(car, request.0, request.1);
            }
        }
        let replay = planner.plan(rng, speeds);
        let outcomes = planner
            .trips()
            .iter()
            .map(|t| {
                let dest = if t.drawn { t.dest } else { None };
                let route = planner.route(t).filter(|_| !t.draw_only);
                (t.speed, dest, route.map(<[_]>::to_vec))
            })
            .collect();
        (outcomes, replay)
    }

    /// Random requests from every map junction: mostly drawn, every
    /// fifth to a fixed junction, every seventh fixed to its own start.
    fn requests(net: &RoadNetwork, count: usize, seed: u64) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = net.junction_count() as u32;
        (0..count)
            .map(|i| {
                let start = JunctionId(rng.gen_range(0..n));
                let fixed = match i % 35 {
                    0 => Some(start),
                    k if k % 5 == 0 => Some(JunctionId(rng.gen_range(0..n))),
                    _ => None,
                };
                (start, fixed)
            })
            .collect()
    }

    /// The planner `new` builds for `net`, and one that searches every
    /// route even where trees fit.
    fn planners(net: &RoadNetwork, workers: usize) -> [TripPlanner; 2] {
        let searching = TripPlanner::over(net, TripRouter::new(net), None, workers);
        [TripPlanner::new(net, workers), searching]
    }

    /// Runs three batches (the first drawing speeds) through the
    /// sequential planner and through batch planners at 1, 2 and 3
    /// workers, each as `new` builds it and searching, which get every
    /// third drawn trip as draw-only and so must match the sequential
    /// draws but owe no route; returns how many batches each planner
    /// replayed.
    fn assert_matches_sequential(net: &RoadNetwork, count: usize) -> Vec<usize> {
        let batches: Vec<Vec<Request>> = (0..3).map(|b| requests(net, count, b)).collect();
        let speeds = |b: usize| (b == 0).then_some((8.0, 20.0));
        let mut router = TripRouter::new(net);
        let mut rng = StdRng::seed_from_u64(99);
        let junctions = net.junction_count() as u32;
        let expected: Vec<Vec<Outcome>> = (0..3)
            .map(|b| {
                let mut outcomes =
                    sequential(&mut router, junctions, &batches[b], &mut rng, speeds(b));
                for (i, outcome) in outcomes.iter_mut().enumerate() {
                    if draw_only(i, &batches[b][i]) {
                        outcome.2 = None;
                    }
                }
                outcomes
            })
            .collect();
        let next_draw = rng.gen::<u64>();
        let mut replays = Vec::new();
        for workers in 1..=3 {
            for mut planner in planners(net, workers) {
                let trees = planner.trees.is_some();
                let mut rng = StdRng::seed_from_u64(99);
                let mut replayed = 0;
                for (b, batch) in batches.iter().enumerate() {
                    let (got, replay) = planned(&mut planner, batch, &mut rng, speeds(b));
                    assert_eq!(
                        got, expected[b],
                        "{workers} workers, trees {trees}, batch {b}"
                    );
                    replayed += usize::from(replay.is_some());
                }
                assert_eq!(
                    rng.gen::<u64>(),
                    next_draw,
                    "{workers} workers, trees {trees}"
                );
                replays.push(replayed);
            }
        }
        replays
    }

    #[test]
    fn batches_match_the_sequential_planner_at_every_worker_count() {
        for net in [grid_city(6, 6, 100.0), city_map(5, 800)] {
            assert_eq!(assert_matches_sequential(&net, 300), [0; 6]);
        }
    }

    /// `net` with every road `length` long.
    fn with_lengths(net: &RoadNetwork, length: f64) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for j in net.junctions() {
            b.add_junction(j.position());
        }
        for seg in net.segments() {
            b.add_segment_with_length(seg.a(), seg.b(), length).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn small_maps_plan_from_trees_like_the_sequential_planner() {
        // The rule, not the worker count, picks the trees, and a planner
        // with trees keeps one worker.
        for workers in 1..=3 {
            let planner = TripPlanner::new(&grid_city(12, 12, 100.0), workers);
            assert!(planner.trees.is_some());
            assert_eq!(planner.workers.len(), 1);
            let planner = TripPlanner::new(&city_map(5, 800), workers);
            assert!(planner.trees.is_none());
            assert_eq!(planner.workers.len(), workers);
        }
        // Squared distances overflow, so the map runs plain Dijkstra and
        // routes its draw-only trips, but no route overflows.
        let far = grid_city(5, 5, 1e154);
        let planner = TripPlanner::new(&far, 2);
        assert!(planner.trees.is_some() && planner.route_draw_only);
        assert_eq!(assert_matches_sequential(&far, 200), [0; 6]);
        // Roads 6e307 m long: two add up to a finite length, three to
        // infinity, so routes of three roads or more overflow and every
        // planner replays the same batches.
        let overflowing = with_lengths(&grid_city(5, 5, 100.0), 6e307);
        assert!(TripPlanner::new(&overflowing, 2).trees.is_some());
        let replays = assert_matches_sequential(&overflowing, 120);
        assert!(
            replays[0] > 0 && replays.iter().all(|&r| r == replays[0]),
            "{replays:?}"
        );
    }

    #[test]
    fn disconnected_maps_redraw_like_the_sequential_planner() {
        // Two 4 × 4 grids and a lone junction: draws off the start's
        // grid are drawn again, and a start at the lone junction never
        // reaches anything.
        let mut b = RoadNetworkBuilder::new();
        for x0 in [0.0, 1_000.0] {
            let grid = grid_city(4, 4, 50.0);
            let first = b.junction_count() as u32;
            for j in grid.junctions() {
                let p = j.position();
                b.add_junction(Point::new(p.x + x0, p.y));
            }
            for seg in grid.segments() {
                let (a, c) = (JunctionId(seg.a().0 + first), JunctionId(seg.b().0 + first));
                b.add_segment(a, c).unwrap();
            }
        }
        b.add_junction(Point::new(500.0, 500.0));
        assert_eq!(assert_matches_sequential(&b.build().unwrap(), 200), [0; 6]);
    }

    #[test]
    fn overflowing_routes_replay_the_rest_of_the_batch() {
        // A line of roads 1e308 m long: one road's length is finite, two
        // add up to infinity, so every junction is connected but only
        // neighbours can be routed.
        let mut b = RoadNetworkBuilder::new();
        let mut prev = b.add_junction(Point::new(0.0, 0.0));
        for i in 1..8 {
            let next = b.add_junction(Point::new(100.0 * f64::from(i), 0.0));
            b.add_segment_with_length(prev, next, 1e308).unwrap();
            prev = next;
        }
        let net = b.build().unwrap();
        let router = TripRouter::new(&net);
        assert!(router.connected(JunctionId(0), JunctionId(2)));
        assert!(TripRouter::new(&net)
            .route(JunctionId(0), JunctionId(2))
            .is_none());
        assert_eq!(assert_matches_sequential(&net, 60), [3; 6]);
    }
}
