//! Microbenchmarks of the substrates: AES, SHA-256, B+tree, heap point
//! ops, LSM point ops, FGAC checks.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use datacase_crypto::aes::KeySize;
use datacase_crypto::ctr::AesCtr;
use datacase_crypto::sha256::Sha256;
use datacase_sim::{Meter, SimClock};
use datacase_storage::btree::BTreeIndex;
use datacase_storage::heap::HeapDb;
use datacase_storage::lsm::LsmTree;
use datacase_storage::tuple::Tid;
use std::sync::Arc;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_crypto");
    let data = vec![0xABu8; 4096];
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("aes128_ctr_4k", |b| {
        let ctr = AesCtr::from_key(KeySize::Aes128, &[0u8; 16]);
        b.iter(|| {
            let mut buf = data.clone();
            ctr.apply(AesCtr::iv_from_nonce(1), &mut buf);
            buf
        });
    });
    group.bench_function("aes256_ctr_4k", |b| {
        let ctr = AesCtr::from_key(KeySize::Aes256, &[0u8; 32]);
        b.iter(|| {
            let mut buf = data.clone();
            ctr.apply(AesCtr::iv_from_nonce(1), &mut buf);
            buf
        });
    });
    group.bench_function("sha256_4k", |b| {
        b.iter(|| Sha256::digest(&data));
    });
    group.finish();
}

fn bench_indexes(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_indexes");
    group.bench_function("btree_insert_10k", |b| {
        b.iter(|| {
            let mut ix = BTreeIndex::new(SimClock::commodity(), Arc::new(Meter::new()));
            for i in 0..10_000u64 {
                ix.insert(
                    i,
                    Tid {
                        page: i as u32,
                        slot: 0,
                    },
                );
            }
            ix
        });
    });
    group.bench_function("btree_get_hot", |b| {
        let mut ix = BTreeIndex::new(SimClock::commodity(), Arc::new(Meter::new()));
        for i in 0..10_000u64 {
            ix.insert(
                i,
                Tid {
                    page: i as u32,
                    slot: 0,
                },
            );
        }
        b.iter(|| ix.get(5_000));
    });
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_engines");
    group.bench_function("heap_insert_read_1k", |b| {
        b.iter(|| {
            let mut db = HeapDb::default_single();
            for i in 0..1_000u64 {
                db.insert(i, i, &[0x42; 100]).unwrap();
            }
            for i in 0..1_000u64 {
                db.read(i, false).unwrap();
            }
            db
        });
    });
    group.bench_function("lsm_insert_read_1k", |b| {
        b.iter(|| {
            let mut t = LsmTree::default_single();
            for i in 0..1_000u64 {
                t.put(i, i, &[0x42; 100]);
            }
            for i in 0..1_000u64 {
                t.get(i).unwrap();
            }
            t
        });
    });
    group.finish();
}

criterion_group!(benches, bench_crypto, bench_indexes, bench_engines);
criterion_main!(benches);
