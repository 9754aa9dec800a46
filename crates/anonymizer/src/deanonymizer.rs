//! The De-anonymizer: the requester-side tool.
//!
//! "After fetching the access keys, the location data requesters can run
//! the de-anonymization algorithm and obtain the de-anonymized cloaking
//! region as visualized in the 'De-anonymizer' GUI."

use crate::service::Engine;
use cloak::{
    deanonymize, deanonymize_with_scratch, CloakPayload, CloakScratch, DeanonError,
    DeanonymizedView,
};
use keystream::{Key256, Level};
use roadnet::RoadNetwork;
use std::sync::Arc;

/// The requester-side de-anonymization tool.
pub struct Deanonymizer {
    net: Arc<RoadNetwork>,
    engine: Engine,
}

impl Deanonymizer {
    /// Creates a de-anonymizer sharing the anonymizer's map; the engine
    /// choice must match the payloads it will process.
    pub fn new(net: Arc<RoadNetwork>, engine: Engine) -> Self {
        Deanonymizer { net, engine }
    }

    /// Reduces an encoded payload with the fetched keys.
    ///
    /// # Errors
    ///
    /// Fails on malformed payloads or keys that do not match.
    pub fn reduce_encoded(
        &self,
        payload_bytes: &[u8],
        keys: &[(Level, Key256)],
    ) -> Result<DeanonymizedView, DeanonError> {
        let payload = CloakPayload::decode(payload_bytes)?;
        self.reduce(&payload, keys)
    }

    /// Reduces a decoded payload with the fetched keys.
    ///
    /// # Errors
    ///
    /// Fails on inconsistent payloads or keys that do not match.
    pub fn reduce(
        &self,
        payload: &CloakPayload,
        keys: &[(Level, Key256)],
    ) -> Result<DeanonymizedView, DeanonError> {
        deanonymize(&self.net, payload, keys, self.engine.as_dyn())
    }

    /// [`reduce`](Self::reduce) with caller-owned scratch buffers — a
    /// verification loop peeling many receipts reuses one
    /// [`CloakScratch`]; results are bit-identical for any scratch state.
    ///
    /// # Errors
    ///
    /// Fails on inconsistent payloads or keys that do not match.
    pub fn reduce_with(
        &self,
        payload: &CloakPayload,
        keys: &[(Level, Key256)],
        scratch: &mut CloakScratch,
    ) -> Result<DeanonymizedView, DeanonError> {
        deanonymize_with_scratch(&self.net, payload, keys, self.engine.as_dyn(), scratch)
    }

    /// Batched form of [`reduce_with`](Self::reduce_with): peels a run of
    /// `(payload, keys)` jobs through **one** shared [`CloakScratch`], in
    /// job order, with no steady-state heap traffic between jobs. Each
    /// job's result is bit-identical to a standalone
    /// [`reduce`](Self::reduce) call. (The continuous pipeline instead
    /// spreads a tick's reductions over its workers, one kept scratch
    /// each.)
    pub fn reduce_batch_with<'a, I>(
        &self,
        jobs: I,
        scratch: &mut CloakScratch,
    ) -> Vec<Result<DeanonymizedView, DeanonError>>
    where
        I: IntoIterator<Item = (&'a CloakPayload, &'a [(Level, Key256)])>,
    {
        jobs.into_iter()
            .map(|(payload, keys)| self.reduce_with(payload, keys, scratch))
            .collect()
    }

    /// Successive views while peeling one level at a time — what the
    /// De-anonymizer GUI animates. Index 0 is the untouched top level.
    ///
    /// # Errors
    ///
    /// Fails as [`Deanonymizer::reduce`] does at the failing prefix.
    pub fn peel_progressively(
        &self,
        payload: &CloakPayload,
        keys: &[(Level, Key256)],
    ) -> Result<Vec<DeanonymizedView>, DeanonError> {
        let mut views = Vec::with_capacity(keys.len() + 1);
        views.push(self.reduce(payload, &[])?);
        for take in 1..=keys.len() {
            views.push(self.reduce(payload, &keys[..take])?);
        }
        Ok(views)
    }
}

impl std::fmt::Debug for Deanonymizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deanonymizer")
            .field("engine", &self.engine)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AnonymizerConfig, EngineChoice};
    use crate::service::AnonymizerService;
    use keystream::TrustDegree;
    use mobisim::OccupancySnapshot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use roadnet::{grid_city, SegmentId};

    fn setup(engine: EngineChoice) -> (AnonymizerService, Deanonymizer) {
        let net = grid_city(7, 7, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let service = AnonymizerService::new(
            net,
            AnonymizerConfig {
                engine,
                ..Default::default()
            },
        );
        service.update_snapshot(snapshot);
        let dean = Deanonymizer::new(
            service.network_arc(),
            Engine::build(service.network(), engine),
        );
        (service, dean)
    }

    #[test]
    fn end_to_end_owner_to_requester() {
        for engine in [EngineChoice::Rge, EngineChoice::Rple { t_len: 8 }] {
            let (service, dean) = setup(engine);
            let mut rng = StdRng::seed_from_u64(7);
            let receipt = service
                .anonymize_owner("alice", SegmentId(24), None, &mut rng)
                .unwrap();
            service.register_requester("alice", "police", TrustDegree(10), Level(0));
            let keys = service.fetch_keys("alice", "police").unwrap();
            let bytes = receipt.payload.encode();
            let view = dean.reduce_encoded(&bytes, &keys).unwrap();
            assert_eq!(view.level, Level(0));
            assert_eq!(view.segments, vec![SegmentId(24)], "{engine:?}");
        }
    }

    #[test]
    fn progressive_peeling_shrinks_monotonically() {
        let (service, dean) = setup(EngineChoice::Rge);
        let mut rng = StdRng::seed_from_u64(8);
        let receipt = service
            .anonymize_owner("alice", SegmentId(30), None, &mut rng)
            .unwrap();
        service.register_requester("alice", "police", TrustDegree(10), Level(0));
        let keys = service.fetch_keys("alice", "police").unwrap();
        let views = dean.peel_progressively(&receipt.payload, &keys).unwrap();
        assert_eq!(views.len(), 4);
        for w in views.windows(2) {
            assert!(w[1].segments.len() <= w[0].segments.len());
            for seg in &w[1].segments {
                assert!(w[0].segments.contains(seg), "peeled views must nest");
            }
        }
        assert_eq!(views.last().unwrap().segments, vec![SegmentId(30)]);
    }

    #[test]
    fn partial_keys_reach_partial_level() {
        let (service, dean) = setup(EngineChoice::Rge);
        let mut rng = StdRng::seed_from_u64(9);
        let receipt = service
            .anonymize_owner("alice", SegmentId(30), None, &mut rng)
            .unwrap();
        service.register_requester("alice", "friend", TrustDegree(5), Level(2));
        let keys = service.fetch_keys("alice", "friend").unwrap();
        assert_eq!(keys.len(), 1);
        let view = dean.reduce(&receipt.payload, &keys).unwrap();
        assert_eq!(view.level, Level(2));
        assert!(view.segments.len() < receipt.payload.region_size());
        assert!(view.segments.len() > 1);
    }

    #[test]
    fn garbage_bytes_are_rejected() {
        let (_, dean) = setup(EngineChoice::Rge);
        assert!(dean.reduce_encoded(b"not a payload", &[]).is_err());
    }
}
