//! Cross-crate integration: traffic simulation → anonymizer service →
//! payload over the wire → requester-side de-anonymization.

use anonymizer::{AnonymizerConfig, AnonymizerService, Deanonymizer, Engine, EngineChoice};
use reversecloak::prelude::*;

fn build_world(engine: EngineChoice, seed: u64) -> (AnonymizerService, Deanonymizer, Simulation) {
    let net = roadnet::grid_city(9, 9, 100.0);
    let mut sim = Simulation::new(
        net,
        SimConfig {
            cars: 600,
            seed,
            ..Default::default()
        },
    );
    sim.run(12, 5.0);
    let snapshot = OccupancySnapshot::capture(&sim);
    let service = AnonymizerService::new(
        sim.network().clone(),
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
    (service, dean, sim)
}

#[test]
fn simulated_traffic_to_exact_recovery_rge() {
    let (service, dean, sim) = build_world(EngineChoice::Rge, 1);
    let mut rng = rand::thread_rng();
    for car in [0usize, 7, 42, 99] {
        let segment = sim.cars()[car].segment();
        let owner = format!("car-{car}");
        let receipt = service
            .anonymize_owner(&owner, segment, None, &mut rng)
            .expect("cloaking succeeds in normal traffic");
        service.register_requester(&owner, "police", TrustDegree(10), Level(0));
        let keys = service.fetch_keys(&owner, "police").unwrap();
        // Over the wire and back.
        let bytes = receipt.payload.encode();
        let view = dean.reduce_encoded(&bytes, &keys).unwrap();
        assert_eq!(view.segments, vec![segment], "car {car}");
        assert_eq!(view.level, Level(0));
    }
}

#[test]
fn simulated_traffic_to_exact_recovery_rple() {
    let (service, dean, sim) = build_world(EngineChoice::Rple { t_len: 10 }, 2);
    let mut rng = rand::thread_rng();
    for car in [3usize, 11, 77] {
        let segment = sim.cars()[car].segment();
        let owner = format!("car-{car}");
        let receipt = service
            .anonymize_owner(&owner, segment, None, &mut rng)
            .expect("RPLE cloaking succeeds (with retries) in normal traffic");
        service.register_requester(&owner, "police", TrustDegree(10), Level(0));
        let keys = service.fetch_keys(&owner, "police").unwrap();
        let view = dean.reduce(&receipt.payload, &keys).unwrap();
        assert_eq!(view.segments, vec![segment], "car {car}");
    }
}

#[test]
fn k_anonymity_holds_at_every_level() {
    let (service, dean, sim) = build_world(EngineChoice::Rge, 3);
    let snapshot = OccupancySnapshot::capture(&sim);
    let mut rng = rand::thread_rng();
    let segment = sim.cars()[5].segment();
    let receipt = service
        .anonymize_owner("car-5", segment, None, &mut rng)
        .unwrap();
    service.register_requester("car-5", "auditor", TrustDegree(10), Level(0));
    let keys = service.fetch_keys("car-5", "auditor").unwrap();
    let views = dean.peel_progressively(&receipt.payload, &keys).unwrap();
    // The default profile asks k = 5, 10, 20 for L1..L3. Check each view
    // against the snapshot the cloak was built from.
    let expected_k = [20u64, 10, 5, 0]; // views are L3, L2, L1, L0
    for (view, &k) in views.iter().zip(&expected_k) {
        let users = snapshot.users_in(view.segments.iter().copied());
        assert!(
            users >= k,
            "level {} region of {} segments has {users} users, needs {k}",
            view.level,
            view.segments.len()
        );
    }
}

#[test]
fn regions_are_connected_at_every_level() {
    let (service, dean, sim) = build_world(EngineChoice::Rge, 4);
    let mut rng = rand::thread_rng();
    let segment = sim.cars()[31].segment();
    let receipt = service
        .anonymize_owner("car-31", segment, None, &mut rng)
        .unwrap();
    service.register_requester("car-31", "auditor", TrustDegree(10), Level(0));
    let keys = service.fetch_keys("car-31", "auditor").unwrap();
    let views = dean.peel_progressively(&receipt.payload, &keys).unwrap();
    for view in &views {
        assert!(
            service.network().segments_connected(&view.segments),
            "level {} region is disconnected",
            view.level
        );
    }
}

#[test]
fn concurrent_server_end_to_end() {
    let net = roadnet::grid_city(8, 8, 100.0);
    let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
    let service = AnonymizerService::new(
        net,
        AnonymizerConfig {
            batch_parallelism: 3,
            ..Default::default()
        },
    );
    service.update_snapshot(snapshot);
    let requests: Vec<AnonymizeRequest> = (0..8)
        .map(|i| {
            AnonymizeRequest::new(format!("owner-{i}"), SegmentId(i * 13 % 100), 99 + i as u64)
        })
        .collect();
    let receipts = service.anonymize_batch(&requests);
    // Key management reads the records the batch's workers stored.
    for request in &requests {
        service.register_requester(&request.owner, "police", TrustDegree(10), Level(0));
    }
    let dean = Deanonymizer::new(
        service.network_arc(),
        Engine::build(service.network(), service.config().engine),
    );
    for (request, receipt) in requests.iter().zip(&receipts) {
        let keys = service.fetch_keys(&request.owner, "police").unwrap();
        let view = dean
            .reduce(&receipt.as_ref().unwrap().payload, &keys)
            .unwrap();
        assert_eq!(view.segments, vec![request.segment]);
    }
}

#[test]
fn baseline_matches_reversible_region_quality_but_cannot_reverse() {
    let (_, _, sim) = build_world(EngineChoice::Rge, 5);
    let snapshot = OccupancySnapshot::capture(&sim);
    let req = LevelRequirement::with_k(12);
    let segment = sim.cars()[50].segment();
    let mut rng = rand::thread_rng();
    let out = cloak::random_expansion(sim.network(), &snapshot, segment, &req, &mut rng).unwrap();
    assert!(snapshot.users_in(out.segments.iter().copied()) >= 12);
    assert!(sim.network().segments_connected(&out.segments));
    // The baseline has no payload, no keys, no backward walk: nothing to
    // call — irreversibility is structural. (This assertion documents it.)
}

#[test]
fn atlanta_scale_end_to_end() {
    let net = roadnet::atlanta_like(11);
    let mut sim = Simulation::new(
        net,
        SimConfig {
            cars: 10_000,
            seed: 11,
            ..Default::default()
        },
    );
    sim.run(3, 10.0);
    let snapshot = OccupancySnapshot::capture(&sim);
    let service = AnonymizerService::new(sim.network().clone(), AnonymizerConfig::default());
    service.update_snapshot(snapshot.clone());
    let mut rng = rand::thread_rng();
    let segment = sim.cars()[123].segment();
    let receipt = service
        .anonymize_owner("car-123", segment, None, &mut rng)
        .unwrap();
    // k-anonymity at the top level (k = 20 in the default profile); in
    // dense downtown traffic this can take far fewer than 20 segments.
    assert!(snapshot.users_in(receipt.payload.segments.iter().copied()) >= 20);
    service.register_requester("car-123", "police", TrustDegree(10), Level(0));
    let keys = service.fetch_keys("car-123", "police").unwrap();
    let dean = Deanonymizer::new(
        service.network_arc(),
        Engine::build(service.network(), service.config().engine),
    );
    let view = dean.reduce(&receipt.payload, &keys).unwrap();
    assert_eq!(view.segments, vec![segment]);
}
