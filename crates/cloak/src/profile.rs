//! User-defined privacy profiles: `(δk^i, σs^i)` per level plus segment
//! l-diversity.

use crate::error::CloakError;
use roadnet::{BoundingBox, RoadNetwork, SegmentId};
use serde::{Deserialize, Serialize};

/// The customizable maximum spatial resolution `σs` of a level: a bound on
/// how large the cloaking region may grow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum SpatialTolerance {
    /// No bound.
    #[default]
    Unlimited,
    /// Total road length of the region must stay within this many meters.
    TotalLength(f64),
    /// The diagonal of the region's bounding box must stay within this
    /// many meters.
    BboxDiagonal(f64),
}

impl SpatialTolerance {
    /// Whether adding `candidate` to a region with the given running
    /// totals would still satisfy the tolerance.
    pub fn allows_extended(
        &self,
        net: &RoadNetwork,
        total_length: f64,
        bbox: &BoundingBox,
        candidate: SegmentId,
    ) -> bool {
        match *self {
            SpatialTolerance::Unlimited => true,
            SpatialTolerance::TotalLength(max) => {
                total_length + net.segment(candidate).length() <= max
            }
            SpatialTolerance::BboxDiagonal(max) => {
                let seg = net.segment(candidate);
                let mut bb = *bbox;
                bb.expand(net.junction(seg.a()).position());
                bb.expand(net.junction(seg.b()).position());
                bb.diagonal() <= max
            }
        }
    }
}

/// The privacy requirement of one level `Li`: `(δk, δl, σs)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelRequirement {
    /// Location k-anonymity: the region must contain at least this many
    /// users (the owner included).
    pub k: u32,
    /// Segment l-diversity: the region must span at least this many
    /// distinct segments.
    pub l: u32,
    /// Maximum spatial resolution for this level.
    pub tolerance: SpatialTolerance,
}

impl LevelRequirement {
    /// A requirement with the given `k`, `l = k.min(3)` segments and no
    /// spatial bound.
    pub fn with_k(k: u32) -> Self {
        LevelRequirement {
            k,
            l: k.min(3),
            tolerance: SpatialTolerance::Unlimited,
        }
    }

    /// Sets the l-diversity requirement.
    pub fn l(mut self, l: u32) -> Self {
        self.l = l;
        self
    }

    /// Sets the spatial tolerance.
    pub fn tolerance(mut self, t: SpatialTolerance) -> Self {
        self.tolerance = t;
        self
    }
}

/// The full multi-level privacy profile `(δk^i, σs^i), 1 ≤ i ≤ N-1`.
///
/// Level 0 (the user's own segment) is implicit; `requirements()[0]` is
/// the requirement of level `L1`.
///
/// ```
/// use cloak::{LevelRequirement, PrivacyProfile};
/// let profile = PrivacyProfile::builder()
///     .level(LevelRequirement::with_k(5))
///     .level(LevelRequirement::with_k(10))
///     .level(LevelRequirement::with_k(20))
///     .build()?;
/// assert_eq!(profile.level_count(), 3);
/// # Ok::<(), cloak::CloakError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrivacyProfile {
    levels: Vec<LevelRequirement>,
}

impl PrivacyProfile {
    /// Starts building a profile.
    pub fn builder() -> PrivacyProfileBuilder {
        PrivacyProfileBuilder { levels: Vec::new() }
    }

    /// A profile with geometrically increasing `k` per level:
    /// `base_k, 2·base_k, 4·base_k, …` — a common multi-level shape.
    ///
    /// # Errors
    ///
    /// Fails if `levels == 0` or `base_k == 0`.
    pub fn geometric(levels: usize, base_k: u32) -> Result<Self, CloakError> {
        let mut b = Self::builder();
        for i in 0..levels {
            b = b.level(LevelRequirement::with_k(
                base_k.saturating_mul(1 << i.min(31)),
            ));
        }
        b.build()
    }

    /// Requirements for levels `L1..`, in order.
    pub fn requirements(&self) -> &[LevelRequirement] {
        &self.levels
    }

    /// Number of keyed levels (`N - 1`).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The requirement of the top (most anonymous) level.
    pub fn top_requirement(&self) -> &LevelRequirement {
        self.levels.last().expect("profiles are never empty")
    }
}

/// Builder for [`PrivacyProfile`].
#[derive(Debug, Default)]
pub struct PrivacyProfileBuilder {
    levels: Vec<LevelRequirement>,
}

impl PrivacyProfileBuilder {
    /// Appends the next level's requirement.
    pub fn level(mut self, req: LevelRequirement) -> Self {
        self.levels.push(req);
        self
    }

    /// Validates and builds the profile.
    ///
    /// # Errors
    ///
    /// Fails when there are no levels or more than 255 (a [`Level`] and
    /// the wire format's level count are one byte), a `k` or `l` is
    /// zero, or the requirements are not monotonically non-decreasing in
    /// `k` (higher levels must be at least as anonymous as lower ones).
    ///
    /// [`Level`]: keystream::Level
    pub fn build(self) -> Result<PrivacyProfile, CloakError> {
        if self.levels.is_empty() {
            return Err(CloakError::InvalidProfile(
                "profile needs at least one level".into(),
            ));
        }
        if self.levels.len() > u8::MAX as usize {
            return Err(CloakError::InvalidProfile(format!(
                "{} levels exceed the maximum of {}",
                self.levels.len(),
                u8::MAX
            )));
        }
        for (i, req) in self.levels.iter().enumerate() {
            if req.k == 0 {
                return Err(CloakError::InvalidProfile(format!(
                    "level L{} has k = 0",
                    i + 1
                )));
            }
            if req.l == 0 {
                return Err(CloakError::InvalidProfile(format!(
                    "level L{} has l = 0",
                    i + 1
                )));
            }
        }
        for w in self.levels.windows(2) {
            if w[1].k < w[0].k {
                return Err(CloakError::InvalidProfile(
                    "k must be non-decreasing across levels".into(),
                ));
            }
        }
        Ok(PrivacyProfile {
            levels: self.levels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::grid_city;

    #[test]
    fn builder_validates() {
        assert!(matches!(
            PrivacyProfile::builder().build(),
            Err(CloakError::InvalidProfile(_))
        ));
        assert!(PrivacyProfile::builder()
            .level(LevelRequirement::with_k(0))
            .build()
            .is_err());
        assert!(PrivacyProfile::builder()
            .level(LevelRequirement::with_k(4).l(0))
            .build()
            .is_err());
        // Decreasing k rejected.
        assert!(PrivacyProfile::builder()
            .level(LevelRequirement::with_k(10))
            .level(LevelRequirement::with_k(5))
            .build()
            .is_err());
        // Equal k allowed.
        assert!(PrivacyProfile::builder()
            .level(LevelRequirement::with_k(5))
            .level(LevelRequirement::with_k(5))
            .build()
            .is_ok());
    }

    #[test]
    fn at_most_255_levels_build() {
        let levels = |n: usize| {
            (0..n).fold(PrivacyProfile::builder(), |b, _| {
                b.level(LevelRequirement::with_k(2))
            })
        };
        assert_eq!(levels(255).build().unwrap().level_count(), 255);
        assert!(matches!(
            levels(256).build(),
            Err(CloakError::InvalidProfile(_))
        ));
    }

    #[test]
    fn geometric_profile() {
        let p = PrivacyProfile::geometric(4, 3).unwrap();
        let ks: Vec<u32> = p.requirements().iter().map(|r| r.k).collect();
        assert_eq!(ks, vec![3, 6, 12, 24]);
        assert_eq!(p.top_requirement().k, 24);
        assert!(PrivacyProfile::geometric(0, 3).is_err());
        assert!(PrivacyProfile::geometric(2, 0).is_err());
    }

    #[test]
    fn tolerance_total_length() {
        let net = grid_city(3, 3, 100.0);
        let t = SpatialTolerance::TotalLength(250.0);
        let bb = net.bounding_box();
        // Extending a 200 m region by a 100 m segment exceeds 250.
        assert!(!t.allows_extended(&net, 200.0, &bb, SegmentId(0)));
        assert!(t.allows_extended(&net, 100.0, &bb, SegmentId(0)));
    }

    #[test]
    fn tolerance_bbox_diagonal() {
        let net = grid_city(3, 3, 100.0);
        let t = SpatialTolerance::BboxDiagonal(150.0);
        let small = net.segments_bounding_box([SegmentId(0)]);
        // A candidate far away blows the diagonal.
        let far = net.segment_ids().last().expect("grid has segments");
        assert!(!t.allows_extended(&net, 0.0, &small, far));
    }

    #[test]
    fn unlimited_allows_everything() {
        let net = grid_city(2, 2, 10.0);
        let t = SpatialTolerance::Unlimited;
        assert!(t.allows_extended(&net, f64::MAX, &net.bounding_box(), SegmentId(0)));
    }

    #[test]
    fn level_requirement_builder() {
        let r = LevelRequirement::with_k(8)
            .l(4)
            .tolerance(SpatialTolerance::TotalLength(1000.0));
        assert_eq!(r.k, 8);
        assert_eq!(r.l, 4);
        assert!(matches!(r.tolerance, SpatialTolerance::TotalLength(_)));
        // Default l caps at 3.
        assert_eq!(LevelRequirement::with_k(100).l, 3);
        assert_eq!(LevelRequirement::with_k(2).l, 2);
    }
}
