//! The multi-party fleet end to end, pinning the PR-6 acceptance
//! criteria: fig5 chain results, waves and speculation counters must be
//! *bit-identical* between the single-party in-process plane and a
//! 3-server (t = 2) TCP fleet; killing any single server mid-run must
//! still return correct results; a corrupted share must be detected and
//! attributed to the lying party; the 3-process `ssxdb` CLI fleet
//! (encode --servers / serve --party / remote --fleet) must round-trip;
//! and every wave costs each party exactly one frame.

use ssxdb::core::protocol::{Request, Response};
use ssxdb::core::transport::{Transport, TransportStats};
use ssxdb::core::{
    encode_document_fleet, local_fleet_router_wrapped, party_server, run_aggregate, serve_tcp_mux,
    AggOp, AggregateSpec, ClientFilter, CoreError, EncryptedDb, Engine, EngineKind, FleetSpec,
    LocalPartyTransport, MapFile, MatchRule, MuxPool, PartyStore, RemoteMuxFleetDb, ShardedServer,
};
use ssxdb::poly::RingCtx;
use ssxdb::prg::{Prg, Seed};
use ssxdb::store::{Row, Table};
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xpath::parse_query;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The Table-1 chain and the bench harness's exact secrets/document (same
/// as `speculation.rs`), so "fig5" here is the committed figure.
const FIG5_CHAIN: &str = "/site/regions/europe/item/description/parlist/listitem/text/keyword";

fn bench_secrets() -> (MapFile, Seed) {
    (
        MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(0x2005)).unwrap(),
        Seed::from_test_key(0x5D4_2005),
    )
}

fn bench_document() -> String {
    generate(&XmarkConfig {
        seed: 0x2005,
        target_bytes: 64 * 1024,
    })
}

fn spawn_party(
    party: PartyStore,
    ring: &RingCtx,
) -> (SocketAddr, std::thread::JoinHandle<ShardedServer>) {
    let server = party_server(party.data, party.mac, ring, 1).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());
    (addr, handle)
}

fn stop_host(addr: SocketAddr) {
    let mut closer = MuxPool::dial(addr, None).unwrap().transport(0);
    closer.call(&Request::Shutdown).unwrap();
}

/// The headline acceptance criterion: on the fig5 chain, the 3-server
/// (t = 2) TCP fleet answers with the same results, the same wave count
/// and the same speculation counters as the single-party in-process
/// plane — speculation off and on.
#[test]
fn fig5_chain_is_bit_identical_between_single_party_and_tcp_fleet() {
    let xml = bench_document();
    let (map, seed) = bench_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet_out = encode_document_fleet(&xml, &map, &seed, spec).unwrap();
    let ring = fleet_out.ring.clone();
    let hosts: Vec<_> = fleet_out
        .parties
        .into_iter()
        .map(|p| spawn_party(p, &ring))
        .collect();
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();

    for speculate in [false, true] {
        let mut single = EncryptedDb::encode(&xml, map.clone(), seed.clone()).unwrap();
        single.set_speculation(speculate);
        let mut fleet =
            RemoteMuxFleetDb::connect_fleet_mux(&addrs, 2, map.clone(), seed.clone()).unwrap();
        fleet.set_speculation(speculate);

        let a = single
            .query(FIG5_CHAIN, EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        let b = fleet
            .query(FIG5_CHAIN, EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        assert_eq!(a.result, b.result, "speculate={speculate}: results");
        assert_eq!(
            a.stats.round_trips, b.stats.round_trips,
            "speculate={speculate}: wave count"
        );
        assert_eq!(
            a.stats.speculative_hits, b.stats.speculative_hits,
            "speculate={speculate}: speculative hits"
        );
        assert_eq!(
            a.stats.speculative_wasted, b.stats.speculative_wasted,
            "speculate={speculate}: speculative waste"
        );
        if speculate {
            assert!(b.stats.speculative_hits > 0, "the chain must speculate");
        }
    }

    for (a, _) in &hosts {
        stop_host(*a);
    }
    for (_, h) in hosts {
        h.join().unwrap();
    }
}

/// A party leg that counts every call it carries.
struct CountingLeg {
    inner: LocalPartyTransport,
    calls: Arc<AtomicU64>,
}

impl Transport for CountingLeg {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.call(req)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// One frame per party per wave: on an in-process 3-party t = 2 fleet with
/// legs called in turn and no hedging, the fig5 chain and a ranged SUM cost
/// exactly three leg calls per fleet wave — a mirrored wave sends its data
/// frame and MAC mirror as one pair — while answers and wave counts stay
/// bit-identical to the single-party plane.
#[test]
fn every_fleet_wave_costs_one_frame_per_party() {
    let xml = bench_document();
    let (map, seed) = bench_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet_out = encode_document_fleet(&xml, &map, &seed, spec).unwrap();
    let calls = Arc::new(AtomicU64::new(0));
    let router = local_fleet_router_wrapped(fleet_out, &seed, 1, |_, inner| CountingLeg {
        inner,
        calls: Arc::clone(&calls),
    })
    .unwrap();
    let mut fleet = ClientFilter::new(router, map.clone(), seed.clone()).unwrap();
    let mut single = EncryptedDb::encode(&xml, map, seed).unwrap();

    let chain = parse_query(FIG5_CHAIN).unwrap();
    let (kind, rule) = (EngineKind::Simple, MatchRule::Containment);
    let a = single.run(&chain, kind, rule).unwrap();
    let b = Engine::run(kind, rule, &chain, &mut fleet).unwrap();
    assert!(!a.result.is_empty());
    assert_eq!(a.result, b.result, "fig5 results");
    assert_eq!(a.stats.round_trips, b.stats.round_trips, "fig5 waves");

    let sum = AggregateSpec {
        query: parse_query("//item/quantity").unwrap(),
        op: AggOp::Sum,
        range: Some((1, 3)),
    };
    let (kind, rule) = (EngineKind::Advanced, MatchRule::Equality);
    let a = single.run_aggregate(&sum, kind, rule).unwrap();
    let b = run_aggregate(&mut fleet, kind, rule, &sum).unwrap();
    assert!(a.count > 0, "the range must match something");
    assert_eq!(
        (a.count, a.contributing, a.sum),
        (b.count, b.contributing, b.sum),
        "ranged SUM"
    );
    assert_eq!(a.walk.round_trips, b.walk.round_trips, "SUM walk waves");
    assert_eq!(a.closing_waves, b.closing_waves, "SUM closing waves");

    let waves = fleet.transport().transports()[0].stats().round_trips;
    assert!(waves > 0);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        3 * waves,
        "leg calls per fleet wave must be one per party"
    );
}

/// Killing *any single* server mid-run: for each victim in turn, a live
/// fleet connection keeps answering the fig5 chain correctly after the
/// victim's host winds down under it.
#[test]
fn killing_any_single_server_mid_run_returns_correct_results() {
    let xml = generate(&XmarkConfig {
        seed: 0x2005,
        target_bytes: 8 * 1024,
    });
    let (map, seed) = bench_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let query = "/site/regions/europe/item";

    let expected = EncryptedDb::encode(&xml, map.clone(), seed.clone())
        .unwrap()
        .query(query, EngineKind::Simple, MatchRule::Equality)
        .unwrap()
        .result;

    for victim in 0..3usize {
        let fleet_out = encode_document_fleet(&xml, &map, &seed, spec).unwrap();
        let ring = fleet_out.ring.clone();
        // Hosts wind down their sockets even under live connections — the
        // abrupt-death shape.
        let hosts: Vec<_> = fleet_out
            .parties
            .into_iter()
            .map(|p| spawn_party(p, &ring))
            .collect();
        let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();

        let mut db =
            RemoteMuxFleetDb::connect_fleet_mux(&addrs, 2, map.clone(), seed.clone()).unwrap();
        assert_eq!(
            db.query(query, EngineKind::Simple, MatchRule::Equality)
                .unwrap()
                .result,
            expected,
            "victim={victim}: pre-kill"
        );
        stop_host(hosts[victim].0);
        assert_eq!(
            db.query(query, EngineKind::Simple, MatchRule::Equality)
                .unwrap()
                .result,
            expected,
            "victim={victim}: post-kill"
        );
        drop(db);
        for (i, (a, _)) in hosts.iter().enumerate() {
            if i != victim {
                stop_host(*a);
            }
        }
        for (_, h) in hosts {
            h.join().unwrap();
        }
    }
}

/// A corrupted share is *detected and attributed*: the query errors with an
/// integrity failure naming the party, never returns wrong results, and
/// the quarantined fleet answers the retry exactly.
#[test]
fn corrupted_share_is_detected_and_attributed() {
    let xml = generate(&XmarkConfig {
        seed: 0x2005,
        target_bytes: 8 * 1024,
    });
    let (map, seed) = bench_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let query = "/site/regions/europe/item";

    let expected = EncryptedDb::encode(&xml, map.clone(), seed.clone())
        .unwrap()
        .query(query, EngineKind::Simple, MatchRule::Equality)
        .unwrap()
        .result;

    let mut fleet_out = encode_document_fleet(&xml, &map, &seed, spec).unwrap();
    // Party 3 lies: one flipped bit in every data-share polynomial.
    let clean = std::mem::replace(&mut fleet_out.parties[2].data, Table::new(1));
    let mut corrupted = Table::new(clean.poly_len());
    for row in clean.into_rows() {
        let mut poly = row.poly.into_vec();
        poly[0] ^= 0x01;
        corrupted
            .insert(Row {
                loc: row.loc,
                poly: poly.into_boxed_slice(),
            })
            .unwrap();
    }
    fleet_out.parties[2].data = corrupted;

    let ring = fleet_out.ring.clone();
    let hosts: Vec<_> = fleet_out
        .parties
        .into_iter()
        .map(|p| spawn_party(p, &ring))
        .collect();
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();

    let mut db = RemoteMuxFleetDb::connect_fleet_mux(&addrs, 2, map.clone(), seed.clone()).unwrap();
    let err = db
        .query(query, EngineKind::Simple, MatchRule::Equality)
        .unwrap_err();
    assert!(matches!(err, CoreError::Corrupt(_)), "{err:?}");
    let msg = err.to_string();
    assert!(
        msg.contains("integrity") && msg.contains("party 3"),
        "expected an integrity error naming party 3, got: {msg}"
    );
    assert_eq!(
        db.query(query, EngineKind::Simple, MatchRule::Equality)
            .unwrap()
            .result,
        expected,
        "the honest quorum answers the retry exactly"
    );

    drop(db);
    for (a, _) in &hosts {
        stop_host(*a);
    }
    for (_, h) in hosts {
        h.join().unwrap();
    }
}

/// A fleet party host is *not* repartitionable: its data and MAC planes
/// duplicate `pre`s, so an online reshard (manual or auto) is refused and
/// the 2·S layout survives. Pins the safety net the `--auto-reshard-target`
/// refusal in the CLI relies on.
#[test]
fn party_hosts_refuse_resharding() {
    use ssxdb::core::protocol::Response;
    let xml = "<site><a><b/><b/></a></site>";
    let map = MapFile::sequential(83, 1, &["site", "a", "b"]).unwrap();
    let seed = Seed::from_test_key(21);
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet_out = encode_document_fleet(xml, &map, &seed, spec).unwrap();
    let ring = fleet_out.ring.clone();
    let party = fleet_out.parties.into_iter().next().unwrap();
    let (addr, handle) = spawn_party(party, &ring);

    let mut admin = MuxPool::dial(addr, None).unwrap().transport(0);
    match admin.call(&Request::Reshard { shards: 4 }).unwrap() {
        Response::Err(e) => assert!(e.contains("refused"), "{e}"),
        other => panic!("a party host accepted a reshard: {other:?}"),
    }
    // Layout intact: still 2·S = 2 shard ids.
    assert_eq!(
        admin.call(&Request::ShardCount).unwrap(),
        Response::Count(2)
    );
    admin.call(&Request::Shutdown).unwrap();
    drop(admin);
    handle.join().unwrap();
}

/// The full 3-process CLI fleet: `encode --servers 3 --threshold 2` splits
/// the store, three `serve --party i` processes host it, `remote --fleet`
/// queries it — and the answers match the single-store CLI `query`.
#[test]
fn cli_three_process_fleet_round_trips() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_ssxdb");
    let dir = std::env::temp_dir().join("ssxdb_fleet_cli");
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
    let split = run(&[
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
    assert!(split.contains("any 2 reconstruct"), "{split}");

    let expected = run(&[
        "query",
        "--map",
        "map.properties",
        "--seed",
        "seed.hex",
        "db.ssxdb",
        "/site/regions/europe/item",
    ]);

    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for i in 1..=3u32 {
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let child = Command::new(bin)
            .args([
                "serve",
                "--p",
                "83",
                "--e",
                "1",
                "--addr",
                &addr,
                "--party",
                &i.to_string(),
                &format!("db.party{i}.ssxdb"),
            ])
            .current_dir(&dir)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        servers.push(child);
        addrs.push(addr);
    }
    for addr in &addrs {
        let mut up = false;
        for _ in 0..50 {
            if std::net::TcpStream::connect(addr).is_ok() {
                up = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        assert!(up, "party host {addr} did not come up");
    }

    let fleet_out = run(&[
        "remote",
        "--map",
        "map.properties",
        "--seed",
        "seed.hex",
        "--fleet",
        &addrs.join(","),
        "--threshold",
        "2",
        "/site/regions/europe/item",
    ]);
    assert_eq!(
        fleet_out, expected,
        "the CLI fleet answers exactly like the single-store CLI"
    );

    for addr in &addrs {
        let mut t = MuxPool::dial(addr.as_str(), None).unwrap().transport(0);
        t.call(&Request::Shutdown).unwrap();
    }
    for mut child in servers {
        assert!(child.wait().unwrap().success());
    }
}
