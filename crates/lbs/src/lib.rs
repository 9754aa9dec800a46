//! # lbs — anonymous query processing over ReverseCloak regions
//!
//! The LBS-provider side of the system. The paper bounds the cloaking
//! region's size (`σs`) precisely because "the size of the cloaking region
//! … has a direct influence on the performance of the anonymous query
//! processing technique \[7\], \[9\]" — this crate implements that technique
//! so the trade-off is measurable (experiment B9):
//!
//! * [`PoiStore`] — points of interest anchored to road segments,
//! * [`range_query`] / [`nearest_query`] — candidate answer sets computed
//!   from a cloaking region instead of an exact location,
//! * [`refine_nearest`] — the client-side refinement step.
//!
//! ```
//! use lbs::{nearest_query, PoiCategory, PoiStore};
//! use roadnet::{grid_city, SegmentId};
//!
//! let net = grid_city(5, 5, 100.0);
//! let mut rng = rand::thread_rng();
//! let store = PoiStore::generate(&net, 100, &mut rng);
//! // The LBS only sees the cloaking region, never the exact segment.
//! let region = vec![SegmentId(7), SegmentId(8)];
//! let answer = nearest_query(&net, &store, &region, PoiCategory::Restaurant);
//! assert!(!answer.is_empty());
//! ```
//!
//! ## Pooled entry points
//!
//! [`nearest_query`] and [`range_query`] allocate their Dijkstra state
//! per call. A query loop should hold one [`SearchScratch`] (a
//! generation-stamped flat distance array plus a reusable heap) and use
//! the `*_with` variants — allocation-free at steady state, identical
//! answers. Both paths consult the network's landmark index
//! ([`roadnet::GraphIndex`], built lazily on first query) to direct and
//! bound the search; `tests/indexed_prop.rs` property-tests them against
//! a plain multi-source Dijkstra of its own, which must return exactly
//! equal candidates:
//!
//! ```
//! use lbs::{nearest_query, nearest_query_with, PoiCategory, PoiStore, SearchScratch};
//! use roadnet::{grid_city, SegmentId};
//!
//! let net = grid_city(5, 5, 100.0);
//! let mut rng = rand::thread_rng();
//! let store = PoiStore::generate(&net, 100, &mut rng);
//! let mut scratch = SearchScratch::new();
//! for region in [vec![SegmentId(7), SegmentId(8)], vec![SegmentId(20)]] {
//!     let pooled = nearest_query_with(&net, &store, &region, PoiCategory::GasStation, &mut scratch);
//!     let fresh = nearest_query(&net, &store, &region, PoiCategory::GasStation);
//!     assert_eq!(pooled, fresh, "scratch never changes answers");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod poi;
pub mod query;

pub use poi::{Poi, PoiCategory, PoiId, PoiStore};
pub use query::{
    nearest_query, nearest_query_with, range_query, range_query_with, refine_nearest,
    refine_nearest_with, CandidateAnswer, QueryStats, SearchScratch,
};
