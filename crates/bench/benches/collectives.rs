//! Benchmarks of the shared-memory all-reduce through the [`Collective`]
//! trait: world size × payload, from a BN-statistics pair (16 floats) to
//! gradient-scale buffers (3.5 Mi floats ≈ 14 MiB, about the flattened
//! gradient of an EfficientNet-B0). Every `Backend` label runs this one
//! transport, so the sweep has no label axis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ets_collective::{create_collective, Backend, Collective};
use std::thread;

/// One persistent world: every replica runs `rounds` all-reduces of
/// `elems`, after one warmup round that sizes the result shards.
fn run_world(replicas: usize, elems: usize, rounds: usize) {
    let world = create_collective(Backend::default(), replicas);
    let joins: Vec<_> = world
        .into_iter()
        .map(|c: Box<dyn Collective>| {
            thread::spawn(move || {
                let mut buf = vec![c.rank() as f32; elems];
                for _ in 0..=rounds {
                    c.all_reduce_sum(&mut buf);
                }
                buf[0]
            })
        })
        .collect();
    for j in joins {
        let _ = j.join().unwrap();
    }
}

fn bench_all_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_reduce");
    group.sample_size(10);
    for &replicas in &[2usize, 4, 8] {
        for &elems in &[16usize, 65_536, 1_048_576, 3_670_016] {
            group.throughput(Throughput::Bytes((elems * 4 * replicas) as u64));
            // Tiny payloads are latency-bound: amortize thread spawn over
            // many rounds.
            let rounds = if elems < 1024 { 1000 } else { 4 };
            group.bench_with_input(
                BenchmarkId::new(format!("r{replicas}"), elems),
                &elems,
                |b, &elems| b.iter(|| run_world(replicas, elems, rounds)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_all_reduce);
criterion_main!(benches);
