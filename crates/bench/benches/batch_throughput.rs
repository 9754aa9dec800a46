//! Criterion bench: `AnonymizerService::anonymize_batch` throughput at
//! 1, 4, and 8 workers (`batch_parallelism`) on a grid-city workload.
//!
//! The anonymize path is `&self` on sharded maps, so requests/sec scales
//! with the worker count up to the host's cores. The harness prints mean
//! time per 256-request batch; divide to compare req/s across worker
//! counts.

use anonymizer::{AnonymizeRequest, AnonymizerConfig, AnonymizerService};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mobisim::OccupancySnapshot;
use roadnet::{grid_city, SegmentId};

const BATCH: usize = 256;

fn requests(segment_count: u32) -> Vec<AnonymizeRequest> {
    (0..BATCH)
        .map(|i| {
            AnonymizeRequest::new(
                format!("owner-{i}"),
                SegmentId((i as u32 * 37) % segment_count),
                0xbea7 + i as u64,
            )
        })
        .collect()
}

fn bench_batch_throughput(c: &mut Criterion) {
    // Worker scaling needs real cores: on a 1-CPU host every worker
    // count measures the same single-threaded throughput.
    println!("host parallelism: {} core(s)", roadnet::fanout::workers(0));
    let mut group = c.benchmark_group("batch_throughput_256req");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    for workers in [1usize, 4, 8] {
        let net = grid_city(20, 20, 100.0);
        let segment_count = net.segment_count() as u32;
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let service = AnonymizerService::new(
            net,
            AnonymizerConfig {
                batch_parallelism: workers,
                ..Default::default()
            },
        );
        service.update_snapshot(snapshot);
        let reqs = requests(segment_count);
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| {
                let results = service.anonymize_batch(&reqs);
                assert!(results.iter().all(|r| r.is_ok()));
                results.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_throughput);
criterion_main!(benches);
