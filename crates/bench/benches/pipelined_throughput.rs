//! E15 — pipelined request throughput over one connection: a fixed batch of `retrieve`
//! round-trips issued at pipeline depth 1 (the synchronous baseline), 8 and 64.
//!
//! The interesting number is how the per-iteration time shrinks as the depth grows: a deep
//! pipeline pays one round trip and one coalesced server write per batch, so a single
//! connection approaches the server's execution rate instead of its round-trip rate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seed_bench::populated_database;
use seed_net::{RemoteClient, SeedNetServer};
use seed_server::{Request, SeedServer};

const OBJECTS: usize = 500;
const OPS_PER_ITER: usize = 512;

fn pipelined_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("E15_pipelined_reads");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for depth in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let server =
                SeedNetServer::bind(SeedServer::new(populated_database(OBJECTS)), "127.0.0.1:0")
                    .expect("bind loopback");
            let mut client = RemoteClient::connect(server.local_addr()).expect("connect");
            b.iter(|| {
                let mut answered = 0usize;
                while answered < OPS_PER_ITER {
                    let batch = depth.min(OPS_PER_ITER - answered);
                    if batch == 1 {
                        let name = format!("Data{:05}", answered % OBJECTS);
                        client.retrieve(&name).expect("retrieve");
                        answered += 1;
                    } else {
                        let requests = (0..batch)
                            .map(|i| Request::Retrieve {
                                name: format!("Data{:05}", (answered + i) % OBJECTS),
                            })
                            .collect();
                        answered += client.exchange(requests).expect("exchange").len();
                    }
                }
                answered
            });
            drop(client);
            server.shutdown();
        });
    }
    group.finish();
}

criterion_group!(benches, pipelined_reads);
criterion_main!(benches);
