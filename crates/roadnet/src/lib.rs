//! # roadnet — road-network substrate for ReverseCloak
//!
//! Road networks as undirected graphs of junctions and segments, with
//! shortest-path routing, spatial indexing, synthetic map generators and a
//! text map format. This crate is the substrate that the ReverseCloak
//! cloaking algorithms ([`cloak`](https://docs.rs/cloak)) operate on: a
//! cloaking region is a connected set of [`SegmentId`]s.
//!
//! ## Quick start
//!
//! ```
//! use roadnet::{generate, path, NetworkStats};
//!
//! // The paper's evaluation map, structurally (6979 junctions, 9187 segments).
//! let net = generate::atlanta_like(42);
//! let stats = NetworkStats::compute(&net);
//! assert_eq!(stats.segments, 9187);
//!
//! // Route between two junctions.
//! let route = path::shortest_path(&net, roadnet::JunctionId(0), roadnet::JunctionId(100))
//!     .expect("connected map");
//! assert!(route.length > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod citygen;
pub mod fanout;
pub mod generate;
pub mod geometry;
pub mod graph;
pub mod index;
pub mod io;
pub mod path;
pub mod stats;

pub use builder::{BuildError, RoadNetworkBuilder};
pub use citygen::{city, city_map, CityConfig};
pub use generate::{
    atlanta_like, demo_network, grid_city, irregular_city, radial_city, IrregularConfig,
};
pub use geometry::{BoundingBox, Point};
pub use graph::{Junction, JunctionId, RoadNetwork, Segment, SegmentId};
pub use index::{GraphIndex, IndexBudget, LandmarkTable, ReachIndex, SegmentIndex};
pub use path::{
    segment_hop_distance, segments_within_hops, shortest_path, Route, SourceTrees, TripRouter,
};
pub use stats::NetworkStats;
