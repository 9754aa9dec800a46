//! Concurrency contract of the sharded, lock-free anonymizer: many
//! client threads hammering one shared `AnonymizerService` must each get
//! a receipt that deanonymizes back to exactly the segment they asked to
//! cloak, and the batch path must be bit-identical to sequential
//! execution at every worker count.

use anonymizer::{
    AnonymizeReceipt, AnonymizeRequest, AnonymizerConfig, AnonymizerService, Deanonymizer, Engine,
    EngineChoice,
};
use cloak::CloakError;
use keystream::{ChainState, ChainStore, JournalError, Level, MemStore, TrustDegree};
use mobisim::OccupancySnapshot;
use roadnet::{grid_city, RoadNetwork, SegmentId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: usize = 32;

/// A service over `net` with uniform traffic and `batch_parallelism`
/// batch workers.
fn service(net: &RoadNetwork, batch_parallelism: usize) -> AnonymizerService {
    let service = AnonymizerService::new(
        net.clone(),
        AnonymizerConfig {
            batch_parallelism,
            ..Default::default()
        },
    );
    service.update_snapshot(OccupancySnapshot::uniform(net.segment_count(), 1));
    service
}

/// Asserts that two results are the same receipt, or the same error.
fn assert_same_result(
    got: &Result<AnonymizeReceipt, CloakError>,
    expected: &Result<AnonymizeReceipt, CloakError>,
    context: &str,
) {
    match (got, expected) {
        (Ok(g), Ok(e)) => {
            assert_eq!(g.payload, e.payload, "{context}");
            assert_eq!(g.outcome.chain, e.outcome.chain, "{context}");
            assert_eq!(g.attempts, e.attempts, "{context}");
        }
        (Err(g), Err(e)) => assert_eq!(g, e, "{context}"),
        (g, e) => panic!("{context}: {g:?} vs {e:?} disagree"),
    }
}

/// ≥ 8 threads × ≥ 32 requests against one shared service; every receipt
/// must deanonymize back to its exact segment through the normal
/// key-fetch path, concurrently with the anonymizations.
#[test]
fn stress_every_receipt_deanonymizes_to_its_exact_segment() {
    let net = grid_city(10, 10, 100.0);
    let segment_count = net.segment_count() as u32;
    let service = Arc::new(service(&net, 0));
    let dean = Arc::new(Deanonymizer::new(
        service.network_arc(),
        Engine::build(service.network(), service.config().engine),
    ));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let dean = Arc::clone(&dean);
            std::thread::spawn(move || {
                for i in 0..REQUESTS_PER_THREAD {
                    let owner = format!("owner-{t}-{i}");
                    let segment = SegmentId(((t * 37 + i * 13) as u32) % segment_count);
                    let seed = 0xc0ffee ^ (t * REQUESTS_PER_THREAD + i) as u64;
                    let receipt = service
                        .anonymize_seeded(&owner, segment, None, seed)
                        .unwrap_or_else(|e| panic!("{owner}: {e}"));
                    assert!(receipt.payload.contains(segment), "{owner}");
                    // Full key-management round trip, racing the other
                    // threads' anonymizations on the sharded maps.
                    assert!(service.register_requester(
                        &owner,
                        "police",
                        TrustDegree(10),
                        Level(0)
                    ));
                    let keys = service.fetch_keys(&owner, "police").unwrap();
                    let view = dean.reduce(&receipt.payload, &keys).unwrap();
                    assert_eq!(view.level, Level(0), "{owner}");
                    assert_eq!(view.segments, vec![segment], "{owner}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }

    assert_eq!(service.owner_count(), THREADS * REQUESTS_PER_THREAD);
    // Every grant landed in the requester registry.
    assert_eq!(
        service.requester_grants("police").len(),
        THREADS * REQUESTS_PER_THREAD
    );
}

/// Seeded property check: for both engines and many seeds,
/// `anonymize_batch` must produce exactly the receipts that sequential
/// `anonymize_seeded` calls produce for the same requests.
#[test]
fn batch_is_identical_to_sequential_given_the_same_nonces() {
    for engine in [EngineChoice::Rge, EngineChoice::Rple { t_len: 10 }] {
        for trial in 0u64..8 {
            let net = grid_city(8, 8, 100.0);
            let segment_count = net.segment_count() as u32;
            let config = AnonymizerConfig {
                engine,
                ..Default::default()
            };

            // Pseudo-random request mix derived from the trial number.
            let mut state = 0x5eed_0000 + trial;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let requests: Vec<AnonymizeRequest> = (0..48)
                .map(|i| {
                    AnonymizeRequest::new(
                        format!("owner-{trial}-{i}"),
                        SegmentId(next() as u32 % segment_count),
                        next(),
                    )
                })
                .collect();

            let parallel = AnonymizerService::new(net.clone(), config.clone());
            parallel.update_snapshot(OccupancySnapshot::uniform(net.segment_count(), 1));
            let batch = parallel.anonymize_batch(&requests);

            let sequential = AnonymizerService::new(net.clone(), config);
            sequential.update_snapshot(OccupancySnapshot::uniform(net.segment_count(), 1));
            for (req, batch_result) in requests.iter().zip(&batch) {
                let solo = sequential.anonymize_seeded(
                    &req.owner,
                    req.segment,
                    req.profile.as_ref(),
                    req.seed,
                );
                assert_same_result(batch_result, &solo, &format!("{engine:?} {}", req.owner));
            }
        }
    }
}

/// With pinned seeds, a batch gives the same receipts and leaves the
/// same chains at 2 and 4 workers as at 1.
#[test]
fn batch_is_identical_at_every_parallelism() {
    let net = grid_city(8, 8, 100.0);
    let requests: Vec<AnonymizeRequest> = (0..32)
        .map(|i| AnonymizeRequest::new(format!("o{i}"), SegmentId(i * 5 % 100), 77_000 + i as u64))
        .collect();
    let one = service(&net, 1);
    let expected = one.anonymize_batch(&requests);
    for workers in [2usize, 4] {
        let many = service(&net, workers);
        let got = many.anonymize_batch(&requests);
        for ((g, e), req) in got.iter().zip(&expected).zip(&requests) {
            assert_same_result(g, e, &format!("{workers} workers, {}", req.owner));
            assert_eq!(many.owner_epoch(&req.owner), one.owner_epoch(&req.owner));
        }
    }
}

/// A batch repeating an owner gives every request the receipt, and
/// leaves every chain at the epoch, that sequential
/// [`AnonymizerService::anonymize_seeded`] calls give; the stored record
/// (and thus `fetch_keys`) is the last request's.
#[test]
fn duplicated_owner_in_a_batch_stores_the_last_request() {
    let net = grid_city(8, 8, 100.0);
    let mut requests: Vec<AnonymizeRequest> = (0..16)
        .map(|i| AnonymizeRequest::new(format!("o{i}"), SegmentId(i * 5 % 100), 3_000 + i as u64))
        .collect();
    // "dup" appears three times with different seeds and segments.
    requests.insert(2, AnonymizeRequest::new("dup", SegmentId(7), 111));
    requests.insert(9, AnonymizeRequest::new("dup", SegmentId(30), 222));
    requests.push(AnonymizeRequest::new("dup", SegmentId(55), 333));

    let sequential = service(&net, 1);
    let expected: Vec<_> = requests
        .iter()
        .map(|r| sequential.anonymize_seeded(&r.owner, r.segment, r.profile.as_ref(), r.seed))
        .collect();
    assert_eq!(sequential.owner_epoch("dup"), Some(3));

    for workers in [1usize, 4] {
        let batched = service(&net, workers);
        let results = batched.anonymize_batch(&requests);
        for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
            assert_same_result(got, want, &format!("{workers} workers, request {i}"));
        }
        for r in &requests {
            assert_eq!(
                batched.owner_epoch(&r.owner),
                sequential.owner_epoch(&r.owner),
                "{workers} workers, {}",
                r.owner
            );
        }
        let last = results.last().unwrap().as_ref().unwrap();
        let stored = batched.owner_record("dup").unwrap();
        assert_eq!(stored.payload, last.payload, "{workers} workers");
        assert_eq!(last.payload.epoch, 3, "{workers} workers");
        assert!(stored.payload.contains(SegmentId(55)));
    }
}

/// An in-memory chain store whose `fail_at`-th write (counting from 0)
/// fails; every other write lands.
struct FailOneWrite {
    inner: MemStore,
    writes: AtomicUsize,
    fail_at: usize,
}

impl ChainStore for FailOneWrite {
    fn record(&self, owner: &str, state: &ChainState) -> Result<(), JournalError> {
        if self.writes.fetch_add(1, Ordering::SeqCst) == self.fail_at {
            return Err(JournalError::Injected(format!("write {}", self.fail_at)));
        }
        self.inner.record(owner, state)
    }

    fn load(&self) -> Result<Vec<(String, ChainState)>, JournalError> {
        self.inner.load()
    }

    fn compact(&self) -> Result<(), JournalError> {
        self.inner.compact()
    }
}

/// When a repeated owner's last request fails to journal its chain
/// advance, the batch leaves the record of that owner's last successful
/// request, as sequential calls do, at every worker count.
#[test]
fn failed_last_duplicate_keeps_the_last_successful_record() {
    let net = grid_city(8, 8, 100.0);
    let mut requests: Vec<AnonymizeRequest> = (0..12)
        .map(|i| AnonymizeRequest::new(format!("o{i}"), SegmentId(i * 7 % 100), 5_000 + i as u64))
        .collect();
    requests.insert(1, AnonymizeRequest::new("dup", SegmentId(7), 111));
    requests.insert(6, AnonymizeRequest::new("dup", SegmentId(30), 222));
    requests.push(AnonymizeRequest::new("dup", SegmentId(55), 333));
    // One journal write per request, in request order: fail the last.
    let last = requests.len() - 1;
    let service = |batch_parallelism: usize| {
        let store = FailOneWrite {
            inner: MemStore::new(),
            writes: AtomicUsize::new(0),
            fail_at: last,
        };
        let config = AnonymizerConfig {
            batch_parallelism,
            ..Default::default()
        };
        let service = AnonymizerService::with_store(net.clone(), config, Arc::new(store)).unwrap();
        service.update_snapshot(OccupancySnapshot::uniform(net.segment_count(), 1));
        service
    };

    let sequential = service(1);
    let expected: Vec<_> = requests
        .iter()
        .map(|r| sequential.anonymize_seeded(&r.owner, r.segment, r.profile.as_ref(), r.seed))
        .collect();
    assert!(matches!(expected[last], Err(CloakError::Persistence(_))));
    assert_eq!(sequential.owner_epoch("dup"), Some(2));
    let want = sequential.owner_record("dup").unwrap();
    assert!(want.payload.contains(SegmentId(30)));

    for workers in [1usize, 4] {
        let batched = service(workers);
        let results = batched.anonymize_batch(&requests);
        for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
            assert_same_result(got, want, &format!("{workers} workers, request {i}"));
        }
        for r in &requests {
            assert_eq!(
                batched.owner_epoch(&r.owner),
                sequential.owner_epoch(&r.owner),
                "{workers} workers, {}",
                r.owner
            );
            let got = batched.owner_record(&r.owner).unwrap();
            let want = sequential.owner_record(&r.owner).unwrap();
            assert_eq!(got.payload, want.payload, "{workers} workers, {}", r.owner);
            assert_eq!(got.keys, want.keys, "{workers} workers, {}", r.owner);
        }
    }
}

/// Snapshot swaps racing anonymizations must never block or corrupt
/// either side: requests started under the old snapshot finish under it.
#[test]
fn snapshot_swaps_race_cleanly_with_anonymizations() {
    let net = grid_city(8, 8, 100.0);
    let segment_count = net.segment_count();
    let service = Arc::new(AnonymizerService::new(net, AnonymizerConfig::default()));
    service.update_snapshot(OccupancySnapshot::uniform(segment_count, 1));

    std::thread::scope(|scope| {
        let swapper = {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for round in 0..200u32 {
                    service
                        .update_snapshot(OccupancySnapshot::uniform(segment_count, 1 + round % 5));
                }
            })
        };
        for t in 0..4 {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for i in 0..32u64 {
                    let owner = format!("racer-{t}-{i}");
                    let receipt = service
                        .anonymize_seeded(&owner, SegmentId((t * 29 + i as u32 * 7) % 100), None, i)
                        .unwrap();
                    assert!(receipt.payload.region_size() >= 2);
                }
            });
        }
        swapper.join().unwrap();
    });
    assert_eq!(service.owner_count(), 4 * 32);
}
