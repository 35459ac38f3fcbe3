#![allow(missing_docs, reason = "criterion_group! generates undocumented public items")]
//! Criterion micro-benchmarks for the building blocks on MyStore's hot
//! paths: MD5/ring lookups (every request), BSON codec (every record),
//! the WAL checksum and keyed engine puts and gets (every replica op), LRU
//! (every cache access), gossip digest handling (every round), and a full
//! simulated quorum write.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use mystore_bson::Document;
use mystore_cache::LruCache;
use mystore_core::prelude::*;
use mystore_core::testing::Probe;
use mystore_engine::wal::crc32;
use mystore_engine::{pack_version, Db, Record};
use mystore_gossip::{GossipConfig, GossipMsg, Gossiper};
use mystore_net::{FaultPlan, NetConfig, NodeConfig, NodeId, Rng, SimConfig, SimTime};
use mystore_ring::md5::md5;
use mystore_ring::HashRing;

fn bench_md5_and_ring(c: &mut Criterion) {
    let mut g = c.benchmark_group("ring");
    g.throughput(Throughput::Bytes(64));
    g.bench_function("md5_64B", |b| {
        let data = [7u8; 64];
        b.iter(|| md5(std::hint::black_box(&data)))
    });
    let mut ring = HashRing::new();
    for i in 0..5u32 {
        ring.add_node(NodeId(i), format!("node{i}"), 128).unwrap();
    }
    g.bench_function("preference_list_n3", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            ring.preference_list(std::hint::black_box(&i.to_le_bytes()), 3)
        })
    });
    g.finish();
}

fn bench_bson(c: &mut Criterion) {
    let mut g = c.benchmark_group("bson");
    let record = Record::new(
        mystore_bson::ObjectId::from_parts(1, 2, 3),
        "Resistor5",
        vec![0xAB; 16 * 1024],
        pack_version(1, 1),
    )
    .to_document();
    let bytes = record.to_bytes();
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_16K_record", |b| b.iter(|| record.to_bytes()));
    g.bench_function("decode_16K_record", |b| {
        b.iter(|| Document::from_bytes(std::hint::black_box(&bytes)).unwrap())
    });
    g.finish();
}

/// A record of `len` payload bytes under key `k{i}`, version `i`.
fn record(i: u32, len: usize) -> Record {
    let id = mystore_bson::ObjectId::from_parts(0, 0, i);
    Record::new(id, format!("k{i}"), vec![1; len], pack_version(i as u64, 0))
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.bench_function("crc32_16K", |b| {
        let data = vec![0xA5u8; 16 * 1024];
        b.iter(|| crc32(std::hint::black_box(&data)))
    });
    g.bench_function("put_record_fresh_1K", |b| {
        let mut db = Db::memory();
        let mut i = 0u32;
        b.iter(|| {
            i += 1;
            db.put_record("data", &record(i, 1024)).unwrap()
        })
    });
    g.bench_function("put_record_overwrite_16K", |b| {
        let mut db = Db::memory();
        let mut rec = record(0, 16 * 1024);
        db.put_record("data", &rec).unwrap();
        b.iter(|| {
            rec.version += 1;
            db.put_record("data", &rec).unwrap()
        })
    });
    g.bench_function("get_record_16K_of_1k", |b| {
        let mut db = Db::memory();
        for i in 0..1_000u32 {
            db.put_record("data", &record(i, 16 * 1024)).unwrap();
        }
        b.iter(|| db.get_record("data", std::hint::black_box("k500")).unwrap())
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.bench_function("lru_hit", |b| {
        let mut lru = LruCache::new(1 << 24);
        for i in 0..10_000 {
            lru.put(&format!("k{i}"), vec![0; 256]);
        }
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % 10_000;
            lru.get(&format!("k{i}")).map(|v| v.len())
        })
    });
    g.bench_function("lru_insert_evict", |b| {
        let mut lru = LruCache::new(64 * 1024);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            lru.put(&format!("k{i}"), vec![0; 1024])
        })
    });
    g.finish();
}

fn bench_gossip(c: &mut Criterion) {
    c.bench_function("gossip_syn_ack1_ack2_round", |b| {
        let cfg = GossipConfig::default();
        let mut a = Gossiper::new(NodeId(0), 1, cfg.clone());
        let mut bb = Gossiper::new(NodeId(1), 1, cfg);
        for i in 0..16 {
            a.set_app_state(format!("s{i}"), "value");
            bb.set_app_state(format!("s{i}"), "value");
        }
        let mut rng = Rng::new(1);
        let now = SimTime::from_secs(1);
        let _ = a.tick(now, &mut rng);
        b.iter(|| {
            let digests = match a.tick(now, &mut rng).pop() {
                Some((_, GossipMsg::Syn(d))) => d,
                _ => Vec::new(),
            };
            let (_, ack1) = bb.handle(now, NodeId(0), GossipMsg::Syn(digests)).unwrap();
            if let Some((_, ack2)) = a.handle(now, NodeId(1), ack1) {
                bb.handle(now, NodeId(0), ack2);
            }
        })
    });
}

fn bench_quorum_write(c: &mut Criterion) {
    c.bench_function("sim_quorum_put_4KB", |b| {
        b.iter_batched(
            || {
                let spec = ClusterSpec::small(5);
                let mut sim = spec.build_sim(SimConfig {
                    net: NetConfig::gigabit_lan(),
                    faults: FaultPlan::none(),
                    seed: 9,
                });
                let probe = sim.add_node(
                    Probe::new(
                        (0..100u64)
                            .map(|i| {
                                (
                                    spec.warmup_us() + i * 5_000,
                                    NodeId((i % 5) as u32),
                                    Msg::Put {
                                        req: i,
                                        key: format!("bench-{i}"),
                                        value: vec![0; 4096].into(),
                                        delete: false,
                                    },
                                )
                            })
                            .collect(),
                    ),
                    NodeConfig::default(),
                );
                sim.start();
                (sim, spec, probe)
            },
            |(mut sim, spec, probe)| {
                sim.run_for(spec.warmup_us() + 2_000_000);
                assert_eq!(
                    sim.process::<Probe>(probe)
                        .unwrap()
                        .count_where(|m| matches!(m, Msg::PutResp { result: Ok(()), .. })),
                    100
                );
            },
            BatchSize::PerIteration,
        )
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_md5_and_ring, bench_bson, bench_engine, bench_cache, bench_gossip, bench_quorum_write
);
criterion_main!(micro);
