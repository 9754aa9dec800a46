//! # mobisim — GTMobiSim-style mobile trace generation for ReverseCloak
//!
//! The paper visualizes and evaluates over traffic produced by the
//! GTMobiSim trace generator: 10,000 cars placed along the roads by a
//! Gaussian distribution, each with a randomly chosen destination and
//! shortest-path routing. This crate is that substrate, rebuilt:
//!
//! * [`placement`] — Gaussian (or length-weighted uniform) car placement,
//! * [`Simulation`] — discrete-time traffic with per-car shortest-path
//!   trips and automatic re-tripping on arrival, every trip planned by
//!   one [`roadnet::TripRouter`] per simulation (exactly the routes of
//!   [`roadnet::shortest_path`], found with a goal-directed search, or
//!   read from [`roadnet::SourceTrees`] on a map small enough to keep
//!   every source's shortest-path tree),
//! * [`behavior`] — heterogeneous motion archetypes ([`BehaviorMix`]:
//!   commuter home↔work cycles on a rush-hour tick schedule, taxi
//!   random-destination hops, parked cars); the default mix reproduces
//!   the legacy homogeneous traffic bit-for-bit,
//! * [`OccupancySnapshot`] — the frozen users-per-segment view the
//!   anonymizer consumes to check location k-anonymity,
//! * [`Trace`] — recording and text export of the generated mobility.
//!
//! ```
//! use mobisim::{OccupancySnapshot, SimConfig, Simulation};
//! use roadnet::grid_city;
//!
//! let mut sim = Simulation::new(grid_city(6, 6, 100.0), SimConfig {
//!     cars: 500,
//!     seed: 7,
//!     ..Default::default()
//! });
//! sim.run(10, 5.0);
//! let snapshot = OccupancySnapshot::capture(&sim);
//! assert_eq!(snapshot.total_users(), 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod car;
pub mod placement;
mod plan;
pub mod sim;
pub mod snapshot;
pub mod trace;

pub use behavior::{BehaviorKind, BehaviorMix, RushSchedule};
pub use car::{Car, CarId, RoadPosition};
pub use placement::{place_cars, PlacementModel};
pub use sim::{SimConfig, Simulation};
pub use snapshot::OccupancySnapshot;
pub use trace::{Trace, TraceSample};
