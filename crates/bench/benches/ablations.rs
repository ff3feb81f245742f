//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * radix vs bit-aligned vs raw polynomial storage (space/time trade-off),
//! * B-tree interval scan vs full table scan for descendant enumeration,
//! * batched (`EvalMany`) vs per-node containment round trips,
//! * equality-test quotient verification on vs off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssx_bench::{build_db, document, paper_map, paper_seed};
use ssx_core::{encode_document, EngineKind, MatchRule};
use ssx_poly::{random_poly, Packer, RingCtx};
use ssx_prg::Prg;

fn packing_tradeoff(c: &mut Criterion) {
    // Space is printed once; time measured per packing.
    let ring = RingCtx::new(83, 1).unwrap();
    let packer = Packer::new(&ring);
    println!(
        "[ablation] bytes/poly at q=83: radix={} bits={} raw={}",
        packer.radix_len(),
        packer.bit_len(),
        packer.raw_len()
    );
    let polys: Vec<_> = (0..64)
        .map(|i| random_poly(&ring, &mut Prg::from_u64(i)))
        .collect();
    let mut group = c.benchmark_group("ablation_packing");
    group.bench_function("radix_64_polys", |b| {
        b.iter(|| {
            polys
                .iter()
                .map(|p| packer.pack_radix(p).len())
                .sum::<usize>()
        })
    });
    group.bench_function("bits_64_polys", |b| {
        b.iter(|| {
            polys
                .iter()
                .map(|p| packer.pack_bits(p).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn descendant_scan(c: &mut Criterion) {
    let xml = document(96 * 1024);
    let out = encode_document(&xml, &paper_map(), &paper_seed()).unwrap();
    let table = out.table;
    let root = table.root().unwrap().loc;
    // A mid-size subtree: the regions section (first child of the root).
    let regions = table.children_of(root.pre)[0];
    let mut group = c.benchmark_group("ablation_descendants");
    for (label, loc) in [("root", root), ("regions", regions)] {
        group.bench_with_input(
            BenchmarkId::new("btree_interval", label),
            &loc,
            |b, &loc| b.iter(|| table.descendants_of(loc).len()),
        );
        group.bench_with_input(BenchmarkId::new("full_scan", label), &loc, |b, &loc| {
            b.iter(|| table.descendants_of_scan(loc).len())
        });
    }
    group.finish();
}

fn batching(c: &mut Criterion) {
    let mut db = build_db(32 * 1024);
    let mut group = c.benchmark_group("ablation_batching");
    group.sample_size(10);
    // The same containment workload executed through the batched EvalMany
    // path (the engines' default) vs one containment() per node.
    group.bench_function("batched_eval_many", |b| {
        b.iter(|| {
            let client = db.client_mut();
            let root = client.roots().unwrap()[0];
            let all = client.descendants(root).unwrap();
            let v = client.value_of("bidder").unwrap();
            client
                .containment_many(&all, &[v])
                .unwrap()
                .iter()
                .filter(|&&x| x)
                .count()
        })
    });
    group.bench_function("per_node_round_trips", |b| {
        b.iter(|| {
            let client = db.client_mut();
            let root = client.roots().unwrap()[0];
            let all = client.descendants(root).unwrap();
            let v = client.value_of("bidder").unwrap();
            let mut hits = 0;
            for loc in all {
                if client.containment(loc, v).unwrap() {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.finish();
}

fn equality_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_verify_equality");
    group.sample_size(10);
    let mut db = build_db(32 * 1024);
    for (label, verify) in [("verified", true), ("unverified", false)] {
        db.set_verify_equality(verify);
        group.bench_function(label, |b| {
            b.iter(|| {
                db.query(
                    "/site//europe/item",
                    EngineKind::Advanced,
                    MatchRule::Equality,
                )
                .unwrap()
                .result
                .len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    packing_tradeoff,
    descendant_scan,
    batching,
    equality_verification
);
criterion_main!(benches);
