//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p ssx_bench --bin repro -- all
//! cargo run --release -p ssx_bench --bin repro -- fig4   # encoding sweep
//! cargo run --release -p ssx_bench --bin repro -- fig5   # query-length series (Table 1)
//! cargo run --release -p ssx_bench --bin repro -- fig6   # strictness timing (Table 2)
//! cargo run --release -p ssx_bench --bin repro -- fig7   # containment accuracy
//! cargo run --release -p ssx_bench --bin repro -- trie   # §4 compression claims
//! ```
//!
//! Environment: `SSXDB_SCALE=<f64>` scales document sizes; `SSXDB_FULL=1`
//! runs the paper-sized 1–10 MB Fig 4 sweep.

use ssx_bench::{
    build_db, document, full_sweep, paper_map, paper_seed, scale, table1_queries, TABLE2,
};
use ssx_core::{
    accuracy_percent, encode_document, serve_tcp_mux, ClientFilter, EncryptedDb, Engine,
    EngineKind, MatchRule, MuxPool, ShardRouter, ShardedServer,
};
use ssx_trie::corpus_stats;
use ssx_xml::Document;
use std::time::{Duration, Instant};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig7" => fig7(),
        "trie" => trie(),
        "reduction" => reduction(),
        "bench-json" => {
            let path = std::env::args()
                .nth(2)
                .unwrap_or_else(|| "BENCH_10.json".to_string());
            bench_json(&path);
        }
        "all" => {
            fig4();
            fig5();
            fig6();
            fig7();
            trie();
            reduction();
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; use fig4|fig5|fig6|fig7|trie|reduction|bench-json|all"
            );
            std::process::exit(2);
        }
    }
}

/// Times `op` with adaptive iteration count (~80 ms per measurement) and
/// returns nanoseconds per iteration.
fn time_ns<F: FnMut()>(mut op: F) -> f64 {
    // Calibration pass.
    let mut iters = 8u64;
    loop {
        let started = Instant::now();
        for _ in 0..iters {
            op();
        }
        let elapsed = started.elapsed();
        if elapsed.as_millis() >= 40 || iters >= 1 << 28 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        let per = (elapsed.as_nanos() as f64 / iters as f64).max(0.5);
        iters = ((80_000_000.0 / per) as u64).clamp(iters * 2, 1 << 28);
    }
}

/// Stops a mux host through one of its pooled connections.
fn shut_down_mux_host(pool: &MuxPool) {
    use ssx_core::Transport as _;
    ShardRouter::mux(pool)
        .call(&ssx_core::protocol::Request::Shutdown)
        .expect("shutdown");
}

/// `bench-json` — machine-readable perf-trajectory datapoint (written to
/// `path`, default `BENCH_10.json`; the committed file is the PR-10
/// baseline and CI re-runs this on every push). Schema 10 drops the
/// thread-per-connection rows of the clients × transport matrix, whose
/// host no longer exists.
///
/// Everything is measured at the paper's `q = 83`: the two ring-product
/// representations, the boundary transforms, the pack/unpack boundary, the
/// per-node encode cost, an end-to-end Table-1 chain query under both
/// engines, the shard-count × batching × speculation matrix of the sharded
/// query plane, the **clients matrix** (N concurrent clients running the
/// chain over one shared pool into a real TCP host, every answer asserted
/// against the single-client one), the (schema 5) **fleet
/// n × t matrix**: the chain on a t-of-n multi-party deployment, asserting
/// results and wave count identical to the single-party plane in every
/// cell, and (new in schema 8) the **sustained-ingest row**: one writer
/// client streams whole-document inserts and deletes into a live sharded
/// TCP host (the mux host since schema 10) while a query mix runs
/// concurrently — rows/s acked, with the baseline document's matches
/// asserted present in every concurrent answer and the baseline answer
/// asserted restored bit-exactly once the writer removes everything it
/// inserted. New in schema 9: the
/// **aggregation matrix** — COUNT/SUM/AVG over the numeric plane, with
/// and without a range predicate, on the sharded plane and on a 3-party
/// t = 2 fleet, every cell asserted bit-identical to the plaintext
/// oracle, the closing share-sum asserted to cost exactly one wave
/// beyond the frontier walk (two with a range), and the fleet's total
/// wave count asserted equal to the single-party plane's.
fn bench_json(path: &str) {
    use ssx_poly::{random_poly, Packer, RingCtx};
    use ssx_prg::Prg;

    banner("bench-json — machine-readable perf datapoint (q = 83)");
    let ring = RingCtx::new(83, 1).unwrap();
    let mut prg = Prg::from_u64(1);
    let a = random_poly(&ring, &mut prg);
    let b = random_poly(&ring, &mut prg);
    let (ea, eb) = (ring.to_evals(&a), ring.to_evals(&b));

    let ring_mul_coeff_ns = time_ns(|| {
        std::hint::black_box(ring.mul(std::hint::black_box(&a), std::hint::black_box(&b)));
    });
    let mut acc = ea.clone();
    let ring_mul_eval_ns = time_ns(|| {
        ring.eval_mul_assign(std::hint::black_box(&mut acc), std::hint::black_box(&eb));
    });
    let to_evals_ns = time_ns(|| {
        std::hint::black_box(ring.to_evals(std::hint::black_box(&a)));
    });
    let from_evals_ns = time_ns(|| {
        std::hint::black_box(ring.from_evals(std::hint::black_box(&ea)));
    });
    let eval_horner_ns = time_ns(|| {
        std::hint::black_box(ring.eval(std::hint::black_box(&a), 55));
    });
    let eval_o1_ns = time_ns(|| {
        std::hint::black_box(ring.eval_at(std::hint::black_box(&ea), 55));
    });

    // The pack/unpack boundary (now scratch-buffered, 32-bit chunked).
    let packer = Packer::new(&ring);
    let mut pack_work = Vec::new();
    let mut pack_out = Vec::new();
    let pack_ns = time_ns(|| {
        packer.pack_radix_into(std::hint::black_box(&a), &mut pack_work, &mut pack_out);
        std::hint::black_box(&pack_out);
    });
    let packed = packer.pack_radix(&a);
    let mut unpack_buf = ring.zero();
    let unpack_ns = time_ns(|| {
        packer
            .unpack_radix_into(std::hint::black_box(&packed), &mut unpack_buf)
            .expect("unpack");
        std::hint::black_box(&unpack_buf);
    });

    // The batched field kernels (PR-8): one pass over an n = q − 1 slice.
    let field = ring.field();
    let mut batch_acc: Vec<u64> = a.coeffs().to_vec();
    let batch_rhs: Vec<u64> = b.coeffs().to_vec();
    let mul_mod_batch_ns = time_ns(|| {
        field.mul_mod_batch(std::hint::black_box(&mut batch_acc), &batch_rhs);
        std::hint::black_box(&batch_acc);
    });
    let add_mod_batch_ns = time_ns(|| {
        field.add_mod_batch(std::hint::black_box(&mut batch_acc), &batch_rhs);
        std::hint::black_box(&batch_acc);
    });

    // Per-node encode cost on a fixed ~64 KB document (includes parse,
    // eval-domain folds, inverse transform, share split and radix packing).
    let xml = document(64 * 1024);
    let map = paper_map();
    let seed = paper_seed();
    let out = encode_document(&xml, &map, &seed).expect("encode");
    let elements = out.stats.elements.max(1);
    let encode_runs = 9;
    // Per-run minimum: scheduler preemption only ever adds time, so the
    // fastest run is the intrinsic cost and the gate below stays stable on
    // noisy shared hosts.
    let mut best_run_s = f64::INFINITY;
    for _ in 0..encode_runs {
        let started = Instant::now();
        std::hint::black_box(encode_document(&xml, &map, &seed).expect("encode"));
        best_run_s = best_run_s.min(started.elapsed().as_secs_f64());
    }
    let node_encode_ns = best_run_s * 1e9 / elements as f64;
    let encode_rows_per_s_serial = elements as f64 / best_run_s;

    // Wire decode of a bulk Values frame (one element per encoded row).
    let wire_vals: Vec<u64> = (0..elements as u64).map(|i| i % 83).collect();
    let frame = ssx_core::protocol::encode_response(&ssx_core::protocol::Response::Values(
        wire_vals.clone(),
    ));
    let decode_owned_ns = time_ns(|| {
        std::hint::black_box(
            ssx_core::protocol::decode_response(std::hint::black_box(&frame)).expect("decode"),
        );
    });
    assert_eq!(
        ssx_core::protocol::decode_response(&frame).expect("decode"),
        ssx_core::protocol::Response::Values(wire_vals),
        "decode changed data"
    );

    // End-to-end query: the full Table-1 chain on a fixed ~64 KB database,
    // containment rule, both engines.
    let mut db = EncryptedDb::encode(&xml, paper_map(), paper_seed()).expect("db");
    let chain = table1_queries().pop().expect("table 1 chain");
    let mut query_ms = |kind: EngineKind| {
        let runs = 5;
        let started = Instant::now();
        for _ in 0..runs {
            std::hint::black_box(
                db.query(&chain, kind, MatchRule::Containment)
                    .expect("query"),
            );
        }
        started.elapsed().as_secs_f64() * 1e3 / runs as f64
    };
    let query_simple_ms = query_ms(EngineKind::Simple);
    let query_advanced_ms = query_ms(EngineKind::Advanced);

    // The sharded/batched query plane: S ∈ {1, 2, 4} × batching {on, off}
    // × speculation {off, on} on the fig5-style chain query. Results must
    // be identical in every cell; round trips are the quantity the plane
    // exists to cut, and the speculation column is the PR-4 datapoint —
    // waves strictly below the PR-3 baseline at identical results.
    let mut shard_cells = Vec::new();
    let mut reference: Option<Vec<u32>> = None;
    let mut rt_batched_s1 = 0u64;
    let mut rt_unbatched_s1 = 0u64;
    let mut rt_speculative_s1 = 0u64;
    let mut spec_hits_s1 = 0u64;
    let mut spec_wasted_s1 = 0u64;
    for shards in [1u32, 2, 4] {
        for batched in [true, false] {
            for speculation in [false, true] {
                let mut db = EncryptedDb::encode_sharded(&xml, paper_map(), paper_seed(), shards)
                    .expect("sharded db");
                if !batched {
                    db.set_batch_limit(Some(1));
                }
                db.set_speculation(speculation);
                let started = Instant::now();
                let out = db
                    .query(&chain, EngineKind::Simple, MatchRule::Containment)
                    .expect("query");
                let ms = started.elapsed().as_secs_f64() * 1e3;
                match &reference {
                    None => reference = Some(out.pres()),
                    Some(r) => assert_eq!(
                        r,
                        &out.pres(),
                        "results must not depend on S/batching/speculation"
                    ),
                }
                if shards == 1 && batched && !speculation {
                    rt_batched_s1 = out.stats.round_trips;
                }
                if shards == 1 && !batched && !speculation {
                    rt_unbatched_s1 = out.stats.round_trips;
                }
                if shards == 1 && batched && speculation {
                    rt_speculative_s1 = out.stats.round_trips;
                    spec_hits_s1 = out.stats.speculative_hits;
                    spec_wasted_s1 = out.stats.speculative_wasted;
                }
                shard_cells.push(format!(
                    "    {{ \"shards\": {shards}, \"batched\": {batched}, \
                     \"speculation\": {speculation}, \"round_trips\": {}, \
                     \"shard_dispatches\": {}, \"speculative_hits\": {}, \
                     \"speculative_wasted\": {}, \"query_ms\": {ms:.3} }}",
                    out.stats.round_trips,
                    out.stats.shard_dispatches,
                    out.stats.speculative_hits,
                    out.stats.speculative_wasted
                ));
            }
        }
    }
    let rt_reduction = rt_unbatched_s1 as f64 / rt_batched_s1.max(1) as f64;
    assert!(
        rt_speculative_s1 < rt_batched_s1,
        "speculation must beat the PR-3 wave baseline ({rt_speculative_s1} vs {rt_batched_s1})"
    );

    // The fleet n × t matrix (the PR-6 datapoint): the chain query on a
    // t-of-n multi-party deployment — per-server share stores, fan-out,
    // MAC-verified client-side reconstruction. Every cell must answer
    // exactly like the single-party plane, in exactly the same number of
    // waves: the fleet fans *under* the router, so the wave structure is
    // invariant by construction, and (1, 1) is the degenerate single-party
    // case down to the stored bytes.
    let mut fleet_cells = Vec::new();
    for (servers, threshold) in [(1usize, 1usize), (3, 1), (3, 2)] {
        let spec = ssx_core::FleetSpec::new(servers, threshold).expect("fleet spec");
        let mut db =
            EncryptedDb::encode_fleet(&xml, paper_map(), paper_seed(), spec).expect("fleet");
        let started = Instant::now();
        let out = db
            .query(&chain, EngineKind::Simple, MatchRule::Containment)
            .expect("fleet query");
        let ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            reference.as_ref().expect("reference set"),
            &out.pres(),
            "n={servers} t={threshold}: fleet results must match single-party"
        );
        assert_eq!(
            out.stats.round_trips, rt_batched_s1,
            "n={servers} t={threshold}: fleet waves must equal the n=1 wave count"
        );
        fleet_cells.push(format!(
            "    {{ \"servers\": {servers}, \"threshold\": {threshold}, \
             \"round_trips\": {}, \"query_ms\": {ms:.3} }}",
            out.stats.round_trips
        ));
    }

    // The clients matrix (mux rows only since schema 10): N concurrent
    // clients each run the chain query REPS times against a live TCP host,
    // S = 2, every client riding one shared pool (one socket per shard,
    // fixed server pool). Every query's result is asserted against the
    // single-client answer.
    const MUX_BENCH_CLIENTS: [usize; 3] = [1, 2, 8];
    const MUX_BENCH_REPS: usize = 4;
    const MUX_BENCH_SHARDS: u32 = 2;
    let mux_doc = document(24 * 1024);
    let chain_query = ssx_xpath::parse_query(&chain)
        .expect("chain parses")
        .expand_text_predicates();
    let chain_reference = {
        let mut db = EncryptedDb::encode(&mux_doc, paper_map(), paper_seed()).expect("db");
        db.query(&chain, EngineKind::Simple, MatchRule::Containment)
            .expect("query")
            .pres()
    };
    let transport_cell = |clients: usize| -> f64 {
        let out = encode_document(&mux_doc, &map, &seed).expect("encode");
        let server =
            ShardedServer::from_table(out.table, out.ring, MUX_BENCH_SHARDS).expect("shard");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let host = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).expect("host"));
        let started = Instant::now();
        let pool = MuxPool::connect(addr, MUX_BENCH_SHARDS).expect("pool");
        std::thread::scope(|scope| {
            for _ in 0..clients {
                let (map, seed) = (map.clone(), seed.clone());
                let query = chain_query.clone();
                let (pool, expect) = (&pool, &chain_reference);
                scope.spawn(move || {
                    let mut c =
                        ClientFilter::new(ShardRouter::mux(pool), map, seed).expect("client");
                    for _ in 0..MUX_BENCH_REPS {
                        let out =
                            Engine::run(EngineKind::Simple, MatchRule::Containment, &query, &mut c)
                                .expect("query");
                        assert_eq!(&out.pres(), expect, "transport changed the answer");
                    }
                });
            }
        });
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        shut_down_mux_host(&pool);
        host.join().expect("host join");
        wall_ms
    };
    let mut mux_cells = Vec::new();
    for clients in MUX_BENCH_CLIENTS {
        // Best of two runs per cell: the figure of merit is the plane's
        // capability, not a scheduler hiccup.
        let ms = transport_cell(clients).min(transport_cell(clients));
        let qps = (clients * MUX_BENCH_REPS) as f64 / (ms / 1e3);
        mux_cells.push(format!(
            "    {{ \"clients\": {clients}, \"mux\": true, \
             \"shards\": {MUX_BENCH_SHARDS}, \"wall_ms\": {ms:.3}, \
             \"queries_per_s\": {qps:.1} }}"
        ));
    }

    // The aggregation matrix (the PR-10 datapoint): COUNT/SUM/AVG over
    // the auction document's numeric plane, with and without a range
    // predicate, on the sharded single-party plane (S = 2) and on a
    // 3-party t = 2 fleet. Every cell is asserted bit-identical to the
    // plaintext oracle; the closing blind share-sum is asserted to cost
    // exactly ONE wave beyond the frontier walk (two with a range: one
    // value-fetch wave, one share-sum wave) regardless of match count or
    // shard count; and the fleet's total wave count must equal the
    // single-party plane's — the fleet fans *under* the router, so
    // aggregation inherits the wave invariant by construction.
    let mut agg_cells = Vec::new();
    let mut agg_sum_qps = 0.0f64;
    {
        use ssx_core::{reference_aggregate, AggOp, AggregateSpec};
        let agg_doc = Document::parse(&mux_doc).expect("bench doc parses");
        let fleet_spec = ssx_core::FleetSpec::new(3, 2).expect("fleet spec");
        let agg_runs = 3;
        for (qtext, range) in [
            ("//item/quantity", None),
            ("//item/quantity", Some((1u64, u64::MAX))),
        ] {
            let query = ssx_xpath::parse_query(qtext)
                .expect("agg query parses")
                .expand_text_predicates();
            let oracle = reference_aggregate(&agg_doc, &query, MatchRule::Containment, 82, range)
                .expect("oracle");
            let mut db = EncryptedDb::encode_sharded(&mux_doc, paper_map(), paper_seed(), 2)
                .expect("sharded db");
            let mut fdb =
                EncryptedDb::encode_fleet(&mux_doc, paper_map(), paper_seed(), fleet_spec)
                    .expect("fleet db");
            for op in [AggOp::Count, AggOp::Sum, AggOp::Avg] {
                let spec = AggregateSpec {
                    query: query.clone(),
                    op,
                    range,
                };
                let run = |db: &mut dyn FnMut() -> ssx_core::AggregateOutcome| {
                    let started = Instant::now();
                    let mut out = db();
                    for _ in 1..agg_runs {
                        out = db();
                    }
                    (out, started.elapsed().as_secs_f64() * 1e3 / agg_runs as f64)
                };
                let (out, ms) = run(&mut || {
                    db.run_aggregate(&spec, EngineKind::Simple, MatchRule::Containment)
                        .expect("aggregate")
                });
                let (fout, fleet_ms) = run(&mut || {
                    fdb.run_aggregate(&spec, EngineKind::Simple, MatchRule::Containment)
                        .expect("fleet aggregate")
                });
                // COUNT closes with pure fence probes — it never touches
                // the numeric plane, so only its count is comparable
                // against the oracle; SUM/AVG carry the full triple.
                match op {
                    AggOp::Count => assert_eq!(
                        out.count, oracle.count,
                        "COUNT({qtext}) range={range:?} diverged from the oracle"
                    ),
                    AggOp::Sum | AggOp::Avg => assert_eq!(
                        (out.count, out.contributing, out.sum),
                        (oracle.count, oracle.contributing, oracle.sum),
                        "{op:?}({qtext}) range={range:?} diverged from the oracle"
                    ),
                }
                let expect_close = if range.is_some() { 2 } else { 1 };
                assert_eq!(
                    out.closing_waves, expect_close,
                    "{op:?}({qtext}): the close must cost exactly \
                     {expect_close} wave(s) beyond the frontier walk"
                );
                assert_eq!(
                    (fout.count, fout.contributing, fout.sum),
                    (out.count, out.contributing, out.sum),
                    "{op:?}({qtext}): 3-party fleet answer diverged from single-party"
                );
                assert_eq!(
                    fout.walk.round_trips + fout.closing_waves,
                    out.walk.round_trips + out.closing_waves,
                    "{op:?}({qtext}): fleet aggregate waves must equal the n=1 wave count"
                );
                if op == AggOp::Sum && range.is_none() {
                    agg_sum_qps = 1e3 / ms.max(0.001);
                }
                agg_cells.push(format!(
                    "    {{ \"op\": \"{op:?}\", \"query\": \"{qtext}\", \
                     \"ranged\": {}, \"matches\": {}, \"contributing\": {}, \
                     \"walk_waves\": {}, \"closing_waves\": {}, \
                     \"query_ms\": {ms:.3}, \"fleet_query_ms\": {fleet_ms:.3} }}",
                    range.is_some(),
                    out.count,
                    out.contributing,
                    out.walk.round_trips,
                    out.closing_waves
                ));
            }
        }
    }

    // The degraded-mode row (the PR-7 datapoint): a 3-party t=2 fleet in
    // which party 3 answers every call exactly DEGRADED_DELAY_MS late
    // (seeded chaos, deterministic). With hedged reconstruction on, each
    // wave completes from the first t verified shares, so the chain
    // query's wall-clock tracks the 2nd-fastest party — asserted to stay
    // under half the laggard-bound (waves × delay) it would cost to wait
    // for party 3 every wave.
    const DEGRADED_DELAY_MS: u64 = 50;
    let degraded_cell = {
        let spec = ssx_core::FleetSpec::new(3, 2).expect("fleet spec");
        let fleet =
            ssx_core::encode_document_fleet(&mux_doc, &map, &seed, spec).expect("fleet encode");
        let mut router = ssx_core::local_fleet_router(fleet, &seed, 1, |party, t| {
            let cfg = if party == 3 {
                ssx_core::ChaosConfig::fixed_delay(7, Duration::from_millis(DEGRADED_DELAY_MS))
            } else {
                ssx_core::ChaosConfig::quiet(7)
            };
            ssx_core::ChaosTransport::new(t, cfg)
        })
        .expect("degraded router");
        for pipe in router.transports_mut() {
            pipe.set_resilience(ssx_core::ResilienceConfig {
                hedge: true,
                ..Default::default()
            });
        }
        let mut client = ClientFilter::new(router, map.clone(), seed.clone()).expect("client");
        let started = Instant::now();
        let out = Engine::run(
            EngineKind::Simple,
            MatchRule::Containment,
            &chain_query,
            &mut client,
        )
        .expect("degraded fleet query");
        let ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            &out.pres(),
            &chain_reference,
            "degraded hedged fleet must answer exactly like the clean plane"
        );
        let waves = out.stats.round_trips;
        let laggard_bound_ms = (waves * DEGRADED_DELAY_MS) as f64;
        assert!(
            out.stats.hedged_wins > 0,
            "a {DEGRADED_DELAY_MS} ms laggard must trigger t-first hedged completion"
        );
        assert!(
            ms < laggard_bound_ms / 2.0,
            "hedged wall-clock must track the 2nd-fastest party \
             ({ms:.1} ms vs {laggard_bound_ms:.1} ms waiting for the laggard every wave)"
        );
        format!(
            "    {{ \"servers\": 3, \"threshold\": 2, \"delayed_party\": 3, \
             \"delay_ms\": {DEGRADED_DELAY_MS}, \"waves\": {waves}, \
             \"wall_ms\": {ms:.3}, \"laggard_bound_ms\": {laggard_bound_ms:.1}, \
             \"hedged_wins\": {}, \"straggler_ms\": {} }}",
            out.stats.hedged_wins, out.stats.straggler_ms
        )
    };

    // Sustained ingest under concurrent query load (the PR-9 datapoint):
    // a live S=2 mux TCP host; one writer client streams
    // whole-document inserts (deleting every 4th inserted document to mix
    // the load) for a bounded window while query clients run the chain
    // continuously. Invariants asserted live: the baseline document's
    // matches appear in every concurrent answer (writes only add or remove
    // whole *inserted* documents — baseline `pre`s are never reused), and
    // once the writer deletes everything it inserted, the chain answers
    // exactly like the untouched baseline.
    const INGEST_SHARDS: u32 = 2;
    const INGEST_QUERY_THREADS: usize = 2;
    const INGEST_WINDOW_MS: u64 = 1200;
    let (ingest_rows_per_s, ingest_cell) = {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let out = encode_document(&mux_doc, &map, &seed).expect("encode");
        let server = ShardedServer::from_table(out.table, out.ring, INGEST_SHARDS).expect("shard");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let host = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).expect("host"));
        let pool = MuxPool::connect(addr, INGEST_SHARDS).expect("pool");
        let ingest_doc = document(2 * 1024);
        let stop = AtomicBool::new(false);
        let queries_done = AtomicU64::new(0);
        let conflicts = AtomicU64::new(0);
        let (rows, docs_in, docs_del, wall_ms) = std::thread::scope(|scope| {
            for _ in 0..INGEST_QUERY_THREADS {
                let (map, seed) = (map.clone(), seed.clone());
                let query = chain_query.clone();
                let (expect, stop) = (&chain_reference, &stop);
                let (queries_done, conflicts, pool) = (&queries_done, &conflicts, &pool);
                scope.spawn(move || {
                    let mut c =
                        ClientFilter::new(ShardRouter::mux(pool), map, seed).expect("client");
                    while !stop.load(Ordering::Relaxed) {
                        // A multi-wave query races the writer without
                        // snapshot isolation: a frontier node can vanish
                        // between waves, surfacing as a *typed* conflict the
                        // client retries — never as a silently wrong merge.
                        match Engine::run(
                            EngineKind::Simple,
                            MatchRule::Containment,
                            &query,
                            &mut c,
                        ) {
                            Ok(out) => {
                                let pres = out.pres();
                                for p in expect {
                                    assert!(
                                        pres.contains(p),
                                        "a concurrent write dropped baseline match pre={p}"
                                    );
                                }
                                queries_done.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                let msg = e.to_string();
                                assert!(
                                    msg.contains("no node") || msg.contains("epoch"),
                                    "concurrent query failed outside the conflict \
                                     contract: {msg}"
                                );
                                conflicts.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            let mut db = ssx_core::RemoteMuxDb::connect_mux(&pool, map.clone(), seed.clone())
                .expect("writer");
            let (mut rows, mut docs_in, mut docs_del) = (0u64, 0u64, 0u64);
            let mut live: Vec<u32> = Vec::new();
            let started = Instant::now();
            while started.elapsed() < Duration::from_millis(INGEST_WINDOW_MS) {
                let ins = db.insert_document(&ingest_doc).expect("insert");
                rows += ins.rows;
                docs_in += 1;
                live.push(ins.root_pre);
                if docs_in % 4 == 0 {
                    let pre = live.remove(0);
                    db.delete_document(pre).expect("delete");
                    docs_del += 1;
                }
            }
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            for pre in live {
                db.delete_document(pre).expect("restore delete");
            }
            stop.store(true, Ordering::Relaxed);
            (rows, docs_in, docs_del, wall_ms)
        });
        let mut c =
            ClientFilter::new(ShardRouter::mux(&pool), map.clone(), seed.clone()).expect("client");
        let fin = Engine::run(
            EngineKind::Simple,
            MatchRule::Containment,
            &chain_query,
            &mut c,
        )
        .expect("final query");
        assert_eq!(
            &fin.pres(),
            &chain_reference,
            "deleting every inserted document must restore the baseline answer"
        );
        drop(c);
        shut_down_mux_host(&pool);
        host.join().expect("host join");
        let queries = queries_done.load(Ordering::Relaxed);
        let conflicts = conflicts.load(Ordering::Relaxed);
        assert!(
            queries > 0,
            "the query mix must make progress during ingest"
        );
        let rows_per_s = rows as f64 / (wall_ms / 1e3);
        let qps = queries as f64 / (wall_ms / 1e3);
        let cell = format!(
            "    {{ \"shards\": {INGEST_SHARDS}, \"query_threads\": {INGEST_QUERY_THREADS}, \
             \"rows_inserted\": {rows}, \"docs_inserted\": {docs_in}, \
             \"docs_deleted\": {docs_del}, \"wall_ms\": {wall_ms:.1}, \
             \"rows_per_s\": {rows_per_s:.0}, \"concurrent_queries\": {queries}, \
             \"concurrent_qps\": {qps:.1}, \"conflict_retries\": {conflicts} }}"
        );
        (rows_per_s, cell)
    };

    let spec_hit_rate = spec_hits_s1 as f64 / (spec_hits_s1 + spec_wasted_s1).max(1) as f64;
    let json = format!(
        "{{\n  \"schema\": \"ssxdb-bench/11\",\n  \"q\": 83,\n  \"elements\": {elements},\n  \
         \"ring_mul_coeff_ns\": {ring_mul_coeff_ns:.1},\n  \
         \"ring_mul_eval_ns\": {ring_mul_eval_ns:.1},\n  \
         \"ring_mul_speedup\": {:.1},\n  \
         \"to_evals_ns\": {to_evals_ns:.1},\n  \
         \"from_evals_ns\": {from_evals_ns:.1},\n  \
         \"eval_horner_ns\": {eval_horner_ns:.1},\n  \
         \"eval_o1_ns\": {eval_o1_ns:.1},\n  \
         \"mul_mod_batch_ns\": {mul_mod_batch_ns:.1},\n  \
         \"add_mod_batch_ns\": {add_mod_batch_ns:.1},\n  \
         \"pack_radix_ns\": {pack_ns:.1},\n  \
         \"unpack_radix_ns\": {unpack_ns:.1},\n  \
         \"node_encode_ns\": {node_encode_ns:.1},\n  \
         \"encode_rows_per_s_serial\": {encode_rows_per_s_serial:.0},\n  \
         \"decode_owned_ns\": {decode_owned_ns:.1},\n  \
         \"query_table1_chain_simple_ms\": {query_simple_ms:.3},\n  \
         \"query_table1_chain_advanced_ms\": {query_advanced_ms:.3},\n  \
         \"round_trip_reduction_batched\": {rt_reduction:.1},\n  \
         \"fig5_chain_waves_baseline\": {rt_batched_s1},\n  \
         \"fig5_chain_waves_speculative\": {rt_speculative_s1},\n  \
         \"speculative_hits\": {spec_hits_s1},\n  \
         \"speculative_wasted\": {spec_wasted_s1},\n  \
         \"speculative_hit_rate\": {spec_hit_rate:.3},\n  \
         \"ingest_rows_per_s\": {ingest_rows_per_s:.0},\n  \
         \"agg_sum_qps\": {agg_sum_qps:.1},\n  \
         \"shard_batch_matrix\": [\n{}\n  ],\n  \
         \"fleet_matrix\": [\n{}\n  ],\n  \
         \"fleet_degraded\": [\n{degraded_cell}\n  ],\n  \
         \"ingest\": [\n{ingest_cell}\n  ],\n  \
         \"agg_matrix\": [\n{}\n  ],\n  \
         \"mux_matrix\": [\n{}\n  ]\n}}\n",
        ring_mul_coeff_ns / ring_mul_eval_ns.max(0.001),
        shard_cells.join(",\n"),
        fleet_cells.join(",\n"),
        agg_cells.join(",\n"),
        mux_cells.join(",\n"),
    );
    print!("{json}");
    std::fs::write(path, &json).expect("write bench json");
    println!("\nwrote {path}");
    // Asserted after the write so a regression still leaves the measured
    // numbers on disk (and in the CI log) for diagnosis.
    // PR-9 no-regression pins against the committed BENCH_8.json baselines
    // (node_encode_ns 847.6, unpack_radix_ns 644.4, ring_mul_eval_ns 80.8).
    // These numbers are host-sensitive — the PR-8 seed itself measures ~40%
    // above its committed pin on a slower machine — so the tolerance is 2×:
    // wide enough to absorb host variance, tight enough that losing the
    // batched field plane (a 5-7× cliff) or an accidental O(n) in the
    // insert path still trips it.
    const BENCH8_NODE_ENCODE_NS: f64 = 847.6;
    const BENCH8_UNPACK_RADIX_NS: f64 = 644.4;
    const BENCH8_RING_MUL_EVAL_NS: f64 = 80.8;
    assert!(
        node_encode_ns <= BENCH8_NODE_ENCODE_NS * 2.0,
        "encode pin: node_encode_ns {node_encode_ns:.1} regressed past the \
         PR-8 baseline {BENCH8_NODE_ENCODE_NS} (2× host tolerance)"
    );
    assert!(
        unpack_ns <= BENCH8_UNPACK_RADIX_NS * 2.0,
        "decode pin: unpack_radix_ns {unpack_ns:.1} regressed past the \
         PR-8 baseline {BENCH8_UNPACK_RADIX_NS} (2× host tolerance)"
    );
    assert!(
        ring_mul_eval_ns <= BENCH8_RING_MUL_EVAL_NS * 2.0,
        "ring_mul_eval_ns {ring_mul_eval_ns:.1} regressed past the PR-8 \
         baseline {BENCH8_RING_MUL_EVAL_NS} (2× host tolerance)"
    );
    // PR-9 ingest gate, relative so it holds on any host: a wire insert is
    // an encode plus transport, fan-out and index maintenance, but it must
    // not cost more than 50× the pure serial encode path per row even with
    // a query mix running against the same store.
    assert!(
        ingest_rows_per_s * 50.0 >= encode_rows_per_s_serial,
        "ingest gate: {ingest_rows_per_s:.0} rows/s under query load is more \
         than 50× below the serial encode rate {encode_rows_per_s_serial:.0}"
    );
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Fig 4: encoding — output size, index size and time vs input size.
fn fig4() {
    banner("Figure 4 — Encoding: sizes and time vs input size (p=83, e=1)");
    let sizes: Vec<usize> = if full_sweep() {
        (1..=10).map(|mb| mb * 1024 * 1024).collect()
    } else {
        let base = (100.0 * 1024.0 * scale()) as usize;
        (1..=10).map(|i| i * base).collect()
    };
    println!(
        "{:>12} {:>10} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "input(B)", "elements", "output(B)", "out/input", "index(B)", "structure%", "time(s)"
    );
    for target in sizes {
        let xml = document(target);
        let map = paper_map();
        let seed = paper_seed();
        let started = Instant::now();
        let out = encode_document(&xml, &map, &seed).expect("encode");
        let elapsed = started.elapsed();
        let report = out.table.size_report();
        println!(
            "{:>12} {:>10} {:>12} {:>12.2} {:>10} {:>11.1}% {:>10.3}",
            xml.len(),
            report.rows,
            report.data_bytes(),
            report.data_bytes() as f64 / xml.len() as f64,
            report.index_bytes,
            100.0 * report.structure_fraction(),
            elapsed.as_secs_f64()
        );
    }
    println!("\npaper shape: both sizes and time strictly linear in input;");
    println!("pre/post/parent ≈ 17% of output; output ≈ 1.5x input.");
}

/// Fig 5 / Table 1: evaluations vs query length, simple vs advanced.
fn fig5() {
    banner("Figure 5 / Table 1 — evaluations vs query length (containment test)");
    let bytes = (256.0 * 1024.0 * scale()) as usize;
    let mut db = build_db(bytes);
    println!("document: ~{bytes} bytes, {} elements\n", db.node_count());
    println!(
        "{:>3} {:<70} {:>10} {:>12} {:>14}",
        "#", "query", "output", "evals simple", "evals advanced"
    );
    for (i, q) in table1_queries().iter().enumerate() {
        let simple = db
            .query(q, EngineKind::Simple, MatchRule::Containment)
            .expect("simple");
        let advanced = db
            .query(q, EngineKind::Advanced, MatchRule::Containment)
            .expect("advanced");
        assert_eq!(simple.pres(), advanced.pres(), "engines must agree");
        println!(
            "{:>3} {:<70} {:>10} {:>12} {:>14}",
            i + 1,
            q,
            simple.result.len(),
            simple.stats.evaluations(),
            advanced.stats.evaluations()
        );
    }
    println!("\npaper shape: the two series differ by at most a constant factor;");
    println!("these chain queries are the advanced engine's worst case.");
}

/// Fig 6 / Table 2: execution time, engines x strictness.
fn fig6() {
    banner("Figure 6 / Table 2 — execution time (s): strictness x engine");
    let bytes = (256.0 * 1024.0 * scale()) as usize;
    let mut db = build_db(bytes);
    db.set_verify_equality(false); // timing runs skip the O(n^2) audit
    println!("document: ~{bytes} bytes, {} elements\n", db.node_count());
    println!(
        "{:>3} {:<34} {:>14} {:>14} {:>16} {:>14}",
        "#", "query", "nonstrict/simp", "strict/simp", "nonstrict/adv", "strict/adv"
    );
    for (i, q) in TABLE2.iter().enumerate() {
        let mut cells = Vec::new();
        for (kind, rule) in [
            (EngineKind::Simple, MatchRule::Containment),
            (EngineKind::Simple, MatchRule::Equality),
            (EngineKind::Advanced, MatchRule::Containment),
            (EngineKind::Advanced, MatchRule::Equality),
        ] {
            let out = db.query(q, kind, rule).expect("query");
            cells.push(out.stats.elapsed.as_secs_f64());
        }
        println!(
            "{:>3} {:<34} {:>14.4} {:>14.4} {:>16.4} {:>14.4}",
            i + 1,
            q,
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
    println!("\npaper shape: advanced beats simple on every query; strict checking");
    println!("is sometimes slight overhead, sometimes a major improvement.");
}

/// Fig 7: accuracy of the containment test (E/C in percent).
fn fig7() {
    banner("Figure 7 — accuracy of the containment test (E/C, %)");
    let bytes = (256.0 * 1024.0 * scale()) as usize;
    let mut db = build_db(bytes);
    println!("document: ~{bytes} bytes, {} elements\n", db.node_count());
    println!(
        "{:>3} {:<34} {:>8} {:>8} {:>10} {:>6}",
        "#", "query", "|E|", "|C|", "accuracy", "//s"
    );
    for (i, q) in TABLE2.iter().enumerate() {
        let e = db
            .query(q, EngineKind::Advanced, MatchRule::Equality)
            .expect("E");
        let c = db
            .query(q, EngineKind::Advanced, MatchRule::Containment)
            .expect("C");
        let query = ssx_xpath::parse_query(q).unwrap();
        println!(
            "{:>3} {:<34} {:>8} {:>8} {:>9.1}% {:>6}",
            i + 1,
            q,
            e.result.len(),
            c.result.len(),
            accuracy_percent(e.result.len(), c.result.len()),
            query.descendant_step_count()
        );
    }
    // The paper's extra claim: absolute queries reach 100%.
    let absolute = "/site/regions/europe/item";
    let e = db
        .query(absolute, EngineKind::Advanced, MatchRule::Equality)
        .unwrap();
    let c = db
        .query(absolute, EngineKind::Advanced, MatchRule::Containment)
        .unwrap();
    println!(
        "\nabsolute control {absolute}: accuracy {:.1}%",
        accuracy_percent(e.result.len(), c.result.len())
    );
    println!("paper shape: accuracy drops with each // in the query.");
}

/// Ablation: the ring reduction (fig 1(c) → 1(d)).
///
/// The paper's §7 "storage overhead is reduced to 50%" refers to the 1.5×
/// output/input ratio of Fig 4 (overhead = 50% of the input). This
/// experiment quantifies the *reduction itself*: the unreduced encoding
/// stores `subtree_size + 1` coefficients per node (the root alone costs
/// one per document element, and sizes leak every subtree's cardinality to
/// the server); the reduced ring caps every node at `q − 1` coefficients —
/// uniform rows, no size leak, O(q) worst case instead of O(n).
fn reduction() {
    banner("Ablation — the ring reduction (unreduced vs reduced storage)");
    let bytes = (64.0 * 1024.0 * scale()) as usize;
    let xml = document(bytes);
    let doc = Document::parse(&xml).expect("parse");
    let q = 83u64;
    let n = (q - 1) as usize;
    // Subtree sizes via one pass (elements only).
    let mut unreduced_coeffs = 0usize;
    let mut capped_coeffs = 0usize; // sparse storage of the *reduced* polys
    let mut largest_node = 0usize;
    let mut oversized = 0usize; // nodes whose unreduced poly exceeds the ring
    let mut elements = 0usize;
    let mut zero_evals = 0usize; // zero components in the evaluation domain
    for id in doc.descendants(doc.root()) {
        if doc.name(id).is_none() {
            continue;
        }
        let subtree_elems = doc
            .descendants(id)
            .into_iter()
            .filter(|&d| doc.name(d).is_some())
            .count();
        // Unreduced degree = number of factors = subtree size.
        unreduced_coeffs += subtree_elems + 1;
        capped_coeffs += (subtree_elems + 1).min(n);
        largest_node = largest_node.max(subtree_elems + 1);
        if subtree_elems + 1 > n {
            oversized += 1;
        }
        elements += 1;
        // In the evaluation domain a node's component at v is zero iff v is
        // a tag value occurring in the subtree: distinct tags = zeros.
        let distinct: std::collections::HashSet<&str> = doc
            .descendants(id)
            .into_iter()
            .filter_map(|d| doc.name(d))
            .collect();
        zero_evals += distinct.len().min(n);
    }
    let dense_coeffs = elements * n; // what the system stores: uniform rows
    let bits = (q as f64).log2();
    let to_bytes = |coeffs: usize| (coeffs as f64 * bits / 8.0) as usize;
    println!(
        "document: {} elements ({} input bytes), q = {q}",
        elements,
        xml.len()
    );
    println!(
        "unreduced, sparse:      {:>10} coefficients = {:>9} B (largest node: {})",
        unreduced_coeffs,
        to_bytes(unreduced_coeffs),
        largest_node
    );
    println!(
        "reduced, sparse bound:  {:>10} coefficients = {:>9} B ({} nodes were over the cap)",
        capped_coeffs,
        to_bytes(capped_coeffs),
        oversized
    );
    println!(
        "reduced, dense (ours):  {:>10} coefficients = {:>9} B (uniform {}-coeff rows)",
        dense_coeffs,
        to_bytes(dense_coeffs),
        n
    );
    // The dual (evaluation-domain) representation is an isomorphic image:
    // n values per node, so its dense cost is identical — the speedup is
    // free of storage cost. The zero-component analysis below concerns the
    // *plaintext* node polynomials (zeros sit exactly at the subtree's
    // distinct tag values): even there a bitmap+nonzeros encoding barely
    // pays and would leak tag-set sizes — and what the server actually
    // stores are additive *shares*, which are uniformly random (zeros w.p.
    // 1/q at positions unrelated to tags), so no sparse encoding applies to
    // the stored rows at all. Quantified only to size the design space.
    let nonzero_vals = dense_coeffs - zero_evals;
    let bitmap_bytes = elements * n / 8;
    let sparse_eval_bytes = bitmap_bytes + to_bytes(nonzero_vals);
    println!(
        "reduced, dense, eval domain: {:>5} values       = {:>9} B (isomorphic image; identical cost)",
        dense_coeffs,
        to_bytes(dense_coeffs)
    );
    println!(
        "  …zero components of the *plaintext* polys: {} ({:.1}% — subtree tag sets);",
        zero_evals,
        100.0 * zero_evals as f64 / dense_coeffs.max(1) as f64
    );
    println!(
        "  …even plaintext bitmap+nonzeros would be {} B and leak tag-set sizes,",
        sparse_eval_bytes
    );
    println!("  …and the stored rows are uniformly random shares — not sparse at all");
    println!(
        "gap to the sparse lower bound: dense/capped = {:.1}x in either domain",
        dense_coeffs as f64 / capped_coeffs.max(1) as f64
    );
    println!("\nfindings: the reduction caps the worst node at q-1 = {n} coefficients");
    println!(
        "({}x smaller than the unreduced root here) and makes every row the",
        largest_node.div_ceil(n)
    );
    println!("same size — variable-length unreduced rows would leak every subtree's");
    println!("cardinality to the server. The paper's §7 '50% overhead' refers to the");
    println!("Fig 4 output/input ratio, which the fig4 experiment reproduces.");
}

/// §4 trie compression claims.
fn trie() {
    banner("Section 4 — trie compression statistics");
    let bytes = (256.0 * 1024.0 * scale()) as usize;
    let xml = document(bytes);
    let doc = Document::parse(&xml).expect("parse");
    let texts: Vec<&str> = doc
        .descendants(doc.root())
        .into_iter()
        .filter_map(|id| doc.text(id))
        .collect();
    let stats = corpus_stats(texts.iter().copied());
    // Polynomial cost at the paper's p = 29 example and at the trie-capable
    // p = 131 configuration.
    let poly29 = ssx_poly::radix_len(29, 28) as f64;
    let poly131 = ssx_poly::radix_len(131, 130) as f64;
    println!(
        "corpus: {} words, {} distinct",
        stats.word_occurrences, stats.distinct_words
    );
    println!("original characters:          {:>10}", stats.original_chars);
    println!(
        "after word dedup:             {:>10}  ({:.1}% reduction; paper: ~50%)",
        stats.deduped_chars,
        100.0 * stats.dedup_reduction()
    );
    println!(
        "compressed trie char nodes:   {:>10}  ({:.1}% reduction; paper: 75-80%)",
        stats.trie_char_nodes,
        100.0 * stats.trie_reduction()
    );
    println!("trie terminators:             {:>10}", stats.trie_terminals);
    println!(
        "bytes/letter at p=29 ({} B/poly):  {:>6.2}  (paper: ~3.5-4.5)",
        poly29,
        stats.bytes_per_letter(poly29)
    );
    // The paper's own arithmetic (17 B x 20-25% trie nodes) excludes the
    // terminator nodes; report that figure too for a like-for-like check.
    println!(
        "  …excluding terminators:          {:>6.2}  (the paper's arithmetic)",
        poly29 * stats.trie_char_nodes as f64 / stats.original_chars.max(1) as f64
    );
    println!(
        "bytes/letter at p=131 ({} B/poly): {:>6.2}  (our trie-enabled field)",
        poly131,
        stats.bytes_per_letter(poly131)
    );

    // End-to-end sizes: encode a small document with and without tries.
    let small = document((16.0 * 1024.0 * scale()) as usize);
    let small_doc = Document::parse(&small).unwrap();
    let base = EncryptedDb::encode(&small, paper_map(), paper_seed()).unwrap();
    let trie_doc = ssx_trie::transform_document(&small_doc, ssx_trie::TrieMode::Compressed);
    let mut names: Vec<String> = ssx_xmark::DTD_ELEMENTS
        .iter()
        .map(|s| s.to_string())
        .collect();
    names.extend(ssx_trie::trie_alphabet());
    let trie_map = ssx_core::MapFile::sequential(131, 1, &names).unwrap();
    let trie_db = EncryptedDb::encode_doc(&trie_doc, trie_map, paper_seed()).unwrap();
    println!(
        "\nend-to-end on a {} input:",
        ssx_bench::human_bytes(small.len())
    );
    println!(
        "  tags only  (p=83):  {:>8} nodes, {:>10} B",
        base.node_count(),
        base.size_report().data_bytes()
    );
    println!(
        "  with tries (p=131): {:>8} nodes, {:>10} B  (text searchable)",
        trie_db.node_count(),
        trie_db.size_report().data_bytes()
    );
}
