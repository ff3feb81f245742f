//! The aggregation plane end to end, pinning the PR-10 acceptance
//! criteria: COUNT/SUM/AVG (with and without a numeric range predicate)
//! must be bit-identical to the plaintext oracle over the in-process
//! plane, a sharded TCP host, and a 3-process t = 2 fleet with one party killed mid-run — and the closing share-sum
//! must cost exactly one wave beyond the predicate walk (two with a
//! range), on every transport.

mod common;

use common::Hosts;
use ssxdb::core::protocol::Request;
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, run_aggregate, serve_tcp_mux, AggOp, AggregateSpec, ClientFilter, CoreError,
    EncryptedDb, EngineKind, MapFile, MatchRule, MuxPool, RemoteMuxDb, ShardRouter, ShardedServer,
};
use ssxdb::prg::{Prg, Seed};
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xml::Document;
use ssxdb::xpath::parse_query;
use std::net::TcpListener;

fn secrets() -> (MapFile, Seed) {
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(5)).unwrap();
    (map, Seed::from_test_key(77))
}

/// XMark auction data carries plenty of digit-only leaves (quantities,
/// amounts), so these queries exercise real numeric rows.
const CASES: [(&str, Option<(u64, u64)>); 4] = [
    ("//item/quantity", None),
    ("//item/quantity", Some((1, 1))),
    ("/site/regions/europe/item", None),
    ("//person", Some((0, u64::MAX))),
];

/// One aggregate, over whichever stack, reduced to the comparable triple
/// plus its wave cost.
fn run_on<T: Transport>(
    client: &mut ClientFilter<T>,
    q: &str,
    op: AggOp,
    range: Option<(u64, u64)>,
) -> (u64, u64, u128, u64) {
    let spec = AggregateSpec {
        query: parse_query(q).unwrap().expand_text_predicates(),
        op,
        range,
    };
    let out = run_aggregate(client, EngineKind::Advanced, MatchRule::Equality, &spec).unwrap();
    assert_eq!(out.retries, 0, "{q}: nothing raced this store");
    (out.count, out.contributing, out.sum, out.closing_waves)
}

/// The dedicated zero-extra-waves + transport-matrix test: local,
/// sharded-TCP and mux-TCP stacks answer every case with the oracle's
/// exact numbers, and the close costs one wave (two with a range) on all
/// of them.
#[test]
fn aggregates_are_transport_invariant_and_cost_one_closing_wave() {
    let xml = generate(&XmarkConfig {
        seed: 11,
        target_bytes: 8 * 1024,
    });
    let (map, seed) = secrets();
    let doc = Document::parse(&xml).unwrap();
    let out = encode_document(&xml, &map, &seed).unwrap();
    let ring_len = out.ring.len();

    // Three clients over the same rows: in-process (S=2), and two on one
    // TCP host (S=2), each on its own pool — one that adopted the host's
    // shard count, one that asked for it.
    let mut local = EncryptedDb::encode_sharded(&xml, map.clone(), seed.clone(), 2).unwrap();

    let server = ShardedServer::from_table(out.table, out.ring, 2).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0));

    let mut tcp_client = ClientFilter::new(
        ShardRouter::mux(&MuxPool::dial(addr, None).unwrap()),
        map.clone(),
        seed.clone(),
    )
    .unwrap();
    let pool = MuxPool::connect(addr, 2).unwrap();
    let mut mux_client =
        ClientFilter::new(ShardRouter::mux(&pool), map.clone(), seed.clone()).unwrap();

    for (q, range) in CASES {
        let query = parse_query(q).unwrap().expand_text_predicates();
        let oracle =
            ssxdb::core::reference_aggregate(&doc, &query, MatchRule::Equality, ring_len, range)
                .unwrap();
        let expect_waves = if range.is_some() { 2 } else { 1 };
        for op in [AggOp::Count, AggOp::Sum, AggOp::Avg] {
            let want = match op {
                AggOp::Count => (oracle.count, 0, 0),
                AggOp::Sum | AggOp::Avg => (oracle.count, oracle.contributing, oracle.sum),
            };
            let spec = AggregateSpec {
                query: query.clone(),
                op,
                range,
            };
            let l = local
                .run_aggregate(&spec, EngineKind::Advanced, MatchRule::Equality)
                .unwrap();
            assert_eq!((l.count, l.contributing, l.sum), want, "local {q} {op:?}");
            assert_eq!(l.closing_waves, expect_waves, "local {q} {op:?}");

            let t = run_on(&mut tcp_client, q, op, range);
            assert_eq!(t, (want.0, want.1, want.2, expect_waves), "tcp {q} {op:?}");
            let m = run_on(&mut mux_client, q, op, range);
            assert_eq!(m, (want.0, want.1, want.2, expect_waves), "mux {q} {op:?}");
        }
    }

    // The host sheds live connections itself when it stops.
    tcp_client.transport_mut().call(&Request::Shutdown).unwrap();
    handle.join().unwrap().unwrap();
    assert_eq!(pool.stray_responses(), 0);
}

/// A writer racing an aggregate over TCP: the stale closing wave is a
/// *typed* epoch conflict (never a silently mixed answer), and the retry
/// loop converges on the post-write state.
#[test]
fn aggregate_racing_a_remote_writer_is_typed_and_converges() {
    let (map, seed) = secrets();
    let xml = "<site>\
        <item><price>10</price></item>\
        <item><price>25</price></item>\
        <item><price>7</price></item>\
        </site>";
    let out = encode_document(xml, &map, &seed).unwrap();
    let server = ShardedServer::from_table(out.table, out.ring, 1).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0));

    // Reader and writer are independent connections to the same store.
    let mut reader = ClientFilter::new(
        ShardRouter::mux(&MuxPool::dial(addr, None).unwrap()),
        map.clone(),
        seed.clone(),
    )
    .unwrap();
    let mut writer =
        RemoteMuxDb::connect_mux(&MuxPool::dial(addr, None).unwrap(), map, seed).unwrap();

    // Reader takes its snapshot…
    let (_roots, epochs) = reader.roots_with_epochs().unwrap();
    // …the writer lands a whole document in between…
    writer
        .insert_document("<site><item><price>100</price></item></site>")
        .unwrap();
    // …so the reader's closing wave must fail with the typed conflict.
    let err = reader
        .agg_wave(vec![Request::Agg {
            op: ssxdb::core::protocol::AGG_CHECK,
            pres: vec![1],
            expect_epoch: epochs[0],
        }])
        .unwrap_err();
    assert!(
        matches!(err, CoreError::EpochConflict(_)),
        "stale fence must be typed, got: {err}"
    );

    // A full run from a fresh snapshot sees both documents exactly.
    let spec = AggregateSpec {
        query: parse_query("//price").unwrap(),
        op: AggOp::Sum,
        range: None,
    };
    let sum = run_aggregate(&mut reader, EngineKind::Simple, MatchRule::Equality, &spec).unwrap();
    assert_eq!(sum.sum, 142, "10 + 25 + 7 + the raced-in 100");
    assert_eq!(sum.contributing, 4);
    assert_eq!(sum.closing_waves, 1);

    drop(writer);
    reader.transport_mut().call(&Request::Shutdown).unwrap();
    drop(reader);
    handle.join().unwrap().unwrap();
}

/// The 3-process t = 2 fleet (real `ssxdb` OS processes): `agg --fleet`
/// answers exactly like the single-store `agg`, both before and after one
/// party is killed outright (SIGKILL, no wind-down).
#[test]
fn three_process_fleet_aggregates_survive_a_killed_party() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_ssxdb");
    let dir = std::env::temp_dir().join("ssxdb_agg_fleet_cli");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn ssxdb");
        assert!(
            out.status.success(),
            "ssxdb {args:?} failed:\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    run(&["keygen", "seed.hex"]);
    run(&["xmark", "--bytes", "4000", "--seed", "5", "doc.xml"]);
    run(&["genmap", "--p", "83", "--doc", "doc.xml", "map.properties"]);
    run(&[
        "encode",
        "--map",
        "map.properties",
        "--seed",
        "seed.hex",
        "doc.xml",
        "db.ssxdb",
    ]);
    run(&[
        "encode",
        "--map",
        "map.properties",
        "--seed",
        "seed.hex",
        "--servers",
        "3",
        "--threshold",
        "2",
        "doc.xml",
        "db.ssxdb",
    ]);

    // Ground truth from the single-store CLI (same binary, same secrets).
    let agg_args = |tail: &[&str]| {
        let mut v = vec![
            "agg",
            "--map",
            "map.properties",
            "--seed",
            "seed.hex",
            "--op",
            "sum",
        ];
        v.extend_from_slice(tail);
        v.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };
    let expected_sum = run(&agg_args(&["db.ssxdb", "//item/quantity"])
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>());
    let expected_ranged = run(
        &agg_args(&["--range", "1..1", "db.ssxdb", "//item/quantity"])
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>(),
    );

    let mut hosts = Hosts::default();
    let addrs: Vec<String> = (1..=3u32)
        .map(|i| {
            let store = format!("db.party{i}.ssxdb");
            hosts.serve(&dir, &["--party", &i.to_string(), &store])
        })
        .collect();
    let fleet = addrs.join(",");
    let fleet_tail = [
        "--fleet",
        fleet.as_str(),
        "--threshold",
        "2",
        "//item/quantity",
    ];
    let fleet_args: Vec<String> = agg_args(&fleet_tail);
    let fleet_out = run(&fleet_args.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    assert_eq!(
        fleet_out, expected_sum,
        "3-process fleet SUM answers exactly like the single store"
    );

    // Kill party 3 outright — no Shutdown request, no socket wind-down —
    // and aggregate again: any 2 of 3 still reconstruct the exact answer.
    hosts.child(2).kill().unwrap();
    hosts.child(2).wait().unwrap();
    let fleet_out = run(&fleet_args.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    assert_eq!(
        fleet_out, expected_sum,
        "SUM survives a SIGKILLed party bit-for-bit"
    );
    let ranged_tail = [
        "--range",
        "1..1",
        "--fleet",
        fleet.as_str(),
        "--threshold",
        "2",
        "//item/quantity",
    ];
    let ranged_args: Vec<String> = agg_args(&ranged_tail);
    let ranged_out = run(&ranged_args.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    assert_eq!(
        ranged_out, expected_ranged,
        "ranged aggregate survives a SIGKILLed party bit-for-bit"
    );

    for i in 0..2 {
        hosts.stop(i);
    }
}
