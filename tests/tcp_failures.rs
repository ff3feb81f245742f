//! TCP failure paths must surface as typed `CoreError`s on the client and
//! must not take the host down: truncated frames, absurd length prefixes,
//! mid-query disconnects, stalled sends and silent peers — and the fleet
//! plane's faults: a party dead at connect, a party dying mid-stream, and
//! a byzantine party serving bit-flipped shares (detected and *named*,
//! never wrong results).

mod common;

use common::Hosts;
use ssxdb::core::protocol::{
    encode_request, encode_response, Request, Response, MUX_PROTOCOL_VERSION,
};
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, encode_document_fleet, party_server, serve_tcp_mux, serve_tcp_mux_opts,
    CoreError, EncryptedDb, EngineKind, FleetSpec, FleetTransport, MapFile, MatchRule,
    MuxHostOptions, MuxPool, MuxTransport, PartyHealth, PartyStore, ResilienceConfig, ShardRouter,
    ShardedServer,
};
use ssxdb::poly::RingCtx;
use ssxdb::prg::Seed;
use ssxdb::store::{Row, Table};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn demo_host(shards: u32) -> (SocketAddr, std::thread::JoinHandle<ShardedServer>) {
    let map = MapFile::sequential(29, 1, &["site", "a", "b"]).unwrap();
    let seed = Seed::from_test_key(9);
    let out = encode_document("<site><a><b/></a></site>", &map, &seed).unwrap();
    let server = ShardedServer::from_table(out.table, out.ring, shards).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());
    (addr, handle)
}

fn read_frame_raw(s: &mut TcpStream) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    s.read_exact(&mut len).ok()?;
    let mut buf = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut buf).ok()?;
    Some(buf)
}

fn write_frame_raw(s: &mut TcpStream, payload: &[u8]) {
    s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    s.write_all(payload).unwrap();
}

/// Answers a connection's `Hello` as a host with `shards` shards.
fn answer_hello(s: &mut TcpStream, shards: u32) {
    read_frame_raw(s).expect("the client opens with Hello");
    let hello = Response::Hello {
        version: MUX_PROTOCOL_VERSION,
        shards,
    };
    write_frame_raw(s, &encode_response(&hello));
}

/// A fake one-shard host that accepts one connection, answers its
/// handshake, runs `script` on it, and drops it.
fn fake_host(script: impl FnOnce(TcpStream) + Send + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        answer_hello(&mut stream, 1);
        script(stream);
    });
    addr
}

/// Stops a host through a fresh pool.
fn stop_host(addr: SocketAddr) {
    let pool = MuxPool::dial(addr, None).unwrap();
    pool.transport(0).call(&Request::Shutdown).unwrap();
}

#[test]
fn oversized_length_prefix_is_refused_not_allocated() {
    let addr = fake_host(|mut stream| {
        // Read the request frame, answer with a 4 GiB length prefix.
        read_frame_raw(&mut stream);
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        // Keep the socket open long enough for the client to read the prefix.
        std::thread::sleep(Duration::from_millis(50));
    });
    let mut t = MuxPool::connect(addr, 1).unwrap().transport(0);
    match t.call(&Request::Count) {
        Err(CoreError::Transport(msg)) => assert!(msg.contains("refused"), "{msg}"),
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn truncated_response_frame_errors() {
    let addr = fake_host(|mut stream| {
        read_frame_raw(&mut stream);
        // Promise 100 bytes, deliver 3, hang up.
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
    });
    let mut t = MuxPool::connect(addr, 1).unwrap().transport(0);
    match t.call(&Request::Count) {
        Err(CoreError::Transport(msg)) => assert!(msg.contains("read"), "{msg}"),
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn server_disconnect_mid_query_errors() {
    let addr = fake_host(drop);
    let mut t = MuxPool::connect(addr, 1).unwrap().transport(0);
    // The server is gone: the write fails, the read sees EOF, or the
    // re-dial is refused — all typed errors, never a panic.
    match t.call(&Request::Count) {
        Err(CoreError::Transport(_)) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn malformed_client_frames_do_not_kill_the_host() {
    let (addr, handle) = demo_host(1);

    // A client that promises 50 bytes and delivers 5, then vanishes.
    {
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&50u32.to_le_bytes()).unwrap();
        bad.write_all(&[9, 9, 9, 9, 9]).unwrap();
    }
    // A client that sends an oversized prefix.
    {
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
    }
    // The host must still answer a well-behaved client.
    let mut good = MuxPool::connect(addr, 1).unwrap().transport(0);
    assert_eq!(good.call(&Request::Count).unwrap(), Response::Count(3));
    good.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// A server dying in the middle of a *batch* response — the frame is
/// promised, half the multi-slot payload arrives, the socket drops — must
/// surface as a typed transport error on `call_batch`, exactly like the
/// single-request disconnects above.
#[test]
fn mid_batch_disconnect_errors_cleanly_on_the_client() {
    let addr = fake_host(|mut stream| {
        let req = read_frame_raw(&mut stream).unwrap();
        // Promise a 400-byte batch response, deliver a plausible prefix
        // (the request's correlation id, the batch tag and a slot count),
        // vanish mid-frame.
        stream.write_all(&400u32.to_le_bytes()).unwrap();
        stream.write_all(&req[..8]).unwrap();
        stream.write_all(&[9u8]).unwrap();
        stream.write_all(&3u32.to_le_bytes()).unwrap();
    });
    let mut t = MuxPool::connect(addr, 1).unwrap().transport(0);
    let reqs = vec![Request::Count, Request::Roots, Request::Count];
    match t.call_batch(&reqs) {
        Err(CoreError::Transport(msg)) => assert!(msg.contains("read"), "{msg}"),
        other => panic!("expected a transport error, got {other:?}"),
    }
}

/// A complete frame that answers fewer slots than the batch asked for is a
/// *protocol* failure, not a silent truncation: every slot must be
/// accounted for or the whole batch errors.
#[test]
fn short_batch_response_is_an_error_not_a_truncation() {
    let addr = fake_host(|mut stream| {
        let req = read_frame_raw(&mut stream).unwrap();
        let mut payload = req[..8].to_vec();
        payload.extend_from_slice(&encode_response(&Response::Batch(vec![Response::Ok])));
        write_frame_raw(&mut stream, &payload);
        std::thread::sleep(Duration::from_millis(50));
    });
    let mut t = MuxPool::connect(addr, 1).unwrap().transport(0);
    let reqs = vec![Request::Count, Request::Roots, Request::Count];
    match t.call_batch(&reqs) {
        Err(CoreError::Transport(msg)) => {
            assert!(msg.contains("1 of 3"), "{msg}");
        }
        other => panic!("expected a slot-count error, got {other:?}"),
    }
}

/// A client vanishing halfway through a *batch* frame (length prefix says
/// the whole batch, half the bytes arrive, the connection drops) must only
/// end that connection — before the handshake and after it, where the
/// partial frame sits in the reader's reassembly buffer when the socket
/// dies.
#[test]
fn client_vanishing_mid_batch_leaves_the_host_serving() {
    let batch = encode_request(&Request::Batch(vec![
        Request::Count,
        Request::Children { pre: 1 },
        Request::EvalMany {
            pres: vec![1, 2, 3],
            point: 17,
        },
    ]));
    let (addr, handle) = demo_host(2);

    // Before the handshake: full length prefix, half the batch, gone.
    {
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&(batch.len() as u32).to_le_bytes()).unwrap();
        bad.write_all(&batch[..batch.len() / 2]).unwrap();
    }
    // After the handshake: a corr-framed batch cut in half.
    {
        let mut bad = TcpStream::connect(addr).unwrap();
        write_frame_raw(&mut bad, &encode_request(&Request::Hello { version: 1 }));
        read_frame_raw(&mut bad).expect("hello answered");
        let mut framed = 42u64.to_le_bytes().to_vec();
        framed.extend_from_slice(&batch);
        bad.write_all(&(framed.len() as u32).to_le_bytes()).unwrap();
        bad.write_all(&framed[..framed.len() / 2]).unwrap();
    }

    // A well-behaved batched client is unaffected.
    let pool = MuxPool::connect(addr, 2).unwrap();
    let mut router = ShardRouter::mux(&pool);
    let resps = router
        .call_batch(&[Request::Count, Request::Children { pre: 1 }])
        .unwrap();
    assert!(matches!(resps[0], Response::Count(3)), "{resps:?}");
    let mut t = pool.transport(0);
    assert_eq!(t.call(&Request::Count).unwrap(), Response::Count(2));
    router.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

#[test]
fn shard_count_mismatch_is_refused_at_connect() {
    let (addr, handle) = demo_host(4);

    // Too few shards would silently skip partitions; too many would route
    // to nonexistent ones. Both must be refused by the handshake.
    for wrong in [1u32, 2, 8] {
        match MuxPool::connect(addr, wrong) {
            Err(CoreError::Transport(msg)) => {
                assert!(msg.contains("4 shard"), "{msg}");
            }
            Ok(_) => panic!("shard count {wrong} accepted against a 4-shard host"),
            Err(other) => panic!("{other:?}"),
        }
    }
    // The right count connects and works.
    let mut router = ShardRouter::mux(&MuxPool::connect(addr, 4).unwrap());
    assert_eq!(router.call(&Request::Count).unwrap(), Response::Count(3));
    router.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

#[test]
fn shutdown_to_a_nonexistent_shard_does_not_stop_the_host() {
    let (addr, handle) = demo_host(2);

    // A raw mis-addressed Shutdown gets an error and must NOT stop the host.
    let pool = MuxPool::connect(addr, 2).unwrap();
    let mut raw = pool.transport(0);
    match raw
        .call(&Request::ToShard {
            shard: 99,
            req: Box::new(Request::Shutdown),
        })
        .unwrap()
    {
        Response::Err(msg) => assert!(msg.contains("no shard"), "{msg}"),
        other => panic!("{other:?}"),
    }
    // Still serving, on fresh sockets too.
    let mut router = ShardRouter::mux(&MuxPool::connect(addr, 2).unwrap());
    assert_eq!(router.call(&Request::Count).unwrap(), Response::Count(3));
    router.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// A data/MAC pair whose half addresses the connection or the whole host
/// (`Hello`, `ShardCount`, `Reshard`, `Shutdown`) gets one typed refusal —
/// neither half runs, the host keeps serving (no shutdown, no reshard), and
/// the next well-formed pair on the same connection is answered half by
/// half.
#[test]
fn pairs_with_host_level_halves_are_refused_and_the_host_keeps_serving() {
    let (addr, handle) = demo_host(2);
    let pool = MuxPool::connect(addr, 2).unwrap();
    let mut t = pool.transport(0);
    let count_on = |shard| Request::ToShard {
        shard,
        req: Box::new(Request::Count),
    };
    let good = Request::Pair {
        data: Box::new(Request::Count),
        mac: Box::new(count_on(1)),
    };
    let bad_halves = [
        Request::Hello {
            version: MUX_PROTOCOL_VERSION,
        },
        Request::ShardCount,
        Request::Reshard { shards: 1 },
        Request::Shutdown,
    ];
    for bad in bad_halves {
        for (data, mac) in [(bad.clone(), count_on(1)), (Request::Count, bad.clone())] {
            let pair = Request::Pair {
                data: Box::new(data),
                mac: Box::new(mac),
            };
            match t.call(&pair).unwrap() {
                Response::Err(msg) => assert!(msg.contains("pair refused"), "{bad:?}: {msg}"),
                other => panic!("{bad:?} half was not refused: {other:?}"),
            }
            match t.call(&good).unwrap() {
                Response::Pair { data, mac } => {
                    let (Response::Count(a), Response::Count(b)) = (*data, *mac) else {
                        panic!("after {bad:?}: halves are not counts");
                    };
                    assert_eq!(a + b, 3, "after {bad:?}: both shards answered");
                }
                other => panic!("after {bad:?}: {other:?}"),
            }
        }
    }
    assert_eq!(
        t.call(&Request::ShardCount).unwrap(),
        Response::Count(2),
        "no reshard ran"
    );
    stop_host(addr);
    assert_eq!(handle.join().unwrap().total_rows(), 3);
}

#[test]
fn malformed_frames_only_drop_their_connection_on_sharded_host() {
    let (addr, handle) = demo_host(2);
    let mut router = ShardRouter::mux(&MuxPool::connect(addr, 2).unwrap());
    // Poison a separate connection mid-stream.
    {
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&33u32.to_le_bytes()).unwrap();
        bad.write_all(&[7; 4]).unwrap();
    }
    // The router's connections keep working.
    assert_eq!(router.call(&Request::Count).unwrap(), Response::Count(3));
    router.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// A send that stalls — the host answered `Hello`, then stopped reading —
/// fails with a typed timeout within the call budget instead of blocking
/// with the connection's write lock held. Half a frame is left on the
/// wire, so the connection dies and the slot re-dials on the next call
/// (bounded by the budget too).
#[test]
fn stalled_send_times_out_and_kills_the_connection() {
    let (release, parked) = mpsc::channel::<()>();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        answer_hello(&mut stream, 1);
        // Never read again; keep the socket (and the listener) open.
        let _ = parked.recv();
        drop((stream, listener));
    });
    let pool = MuxPool::connect(addr, 1).unwrap();
    let mut t = pool.transport(0);
    t.set_call_budget(Some(Duration::from_millis(200)));
    // A 16 MB frame: more than the kernel buffers of both ends hold.
    let big = Request::Insert {
        rows: vec![(
            ssxdb::store::Loc {
                pre: 1,
                post: 1,
                parent: 0,
            },
            vec![0u8; 16 << 20],
        )],
    };
    let t0 = Instant::now();
    match t.call(&big) {
        Err(CoreError::Timeout(msg)) => assert!(msg.contains("write stalled"), "{msg}"),
        other => panic!("expected a send timeout, got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(3), "{:?}", t0.elapsed());
    // The next call re-dials; nobody answers that handshake, and the
    // budget bounds it.
    let t1 = Instant::now();
    assert!(t.call(&Request::Count).is_err());
    assert!(t1.elapsed() < Duration::from_secs(3), "{:?}", t1.elapsed());
    drop(release);
}

// ---- fleet fault injection --------------------------------------------------

const FLEET_XML: &str = "<site><a><b/><b/></a><c><a><b/></a></c></site>";

fn fleet_secrets() -> (MapFile, Seed) {
    let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
    (map, Seed::from_test_key(21))
}

/// Hosts one party's 2·S-filter server on an ephemeral port.
fn spawn_party(
    party: PartyStore,
    ring: &RingCtx,
) -> (SocketAddr, std::thread::JoinHandle<ShardedServer>) {
    spawn_party_with(party, ring, 1)
}

/// Hosts one party's server over `data_shards` data shards (so `2·S`
/// host shards) on an ephemeral port.
fn spawn_party_with(
    party: PartyStore,
    ring: &RingCtx,
    data_shards: u32,
) -> (SocketAddr, std::thread::JoinHandle<ShardedServer>) {
    let server = party_server(party.data, party.mac, ring, data_shards).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());
    (addr, handle)
}

/// An address nobody listens on (bound, resolved, released).
fn dead_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

/// The single-party answer every fleet query must reproduce.
fn fleet_expected(query: &str, kind: EngineKind) -> Vec<ssxdb::store::Loc> {
    let (map, seed) = fleet_secrets();
    EncryptedDb::encode(FLEET_XML, map, seed)
        .unwrap()
        .query(query, kind, MatchRule::Equality)
        .unwrap()
        .result
}

/// Stops every host and joins it.
fn stop_all(hosts: Vec<(SocketAddr, std::thread::JoinHandle<ShardedServer>)>) {
    for (i, (a, h)) in hosts.into_iter().enumerate() {
        stop_host(a);
        h.join()
            .unwrap_or_else(|_| panic!("party {} host panicked", i + 1));
    }
}

/// One of n parties is dead before the client even connects: the fleet
/// connect tolerates it down to the threshold, and every result matches the
/// single-party plane exactly.
#[test]
fn fleet_tolerates_a_party_dead_at_connect() {
    let (map, seed) = fleet_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet = encode_document_fleet(FLEET_XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    let mut parties = fleet.parties.into_iter();
    let p1 = spawn_party(parties.next().unwrap(), &ring);
    let _party2_never_started = parties.next().unwrap();
    let p3 = spawn_party(parties.next().unwrap(), &ring);
    let addrs = vec![p1.0.to_string(), dead_addr().to_string(), p3.0.to_string()];

    let mut db = EncryptedDb::connect_fleet_mux(&addrs, 2, map, seed).unwrap();
    let out = db
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap();
    assert_eq!(out.result, fleet_expected("//b", EngineKind::Simple));

    drop(db);
    stop_all(vec![p1, p3]);
}

/// One misconfigured party does not block a fleet connect. Party 1 serves
/// two data shards, parties 2 and 3 one: the fleet adopts the layout two
/// parties report, faults party 1 by name, and answers exactly from the
/// other two.
#[test]
fn fleet_connect_outvotes_a_misconfigured_party() {
    let (map, seed) = fleet_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet = encode_document_fleet(FLEET_XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    let hosts: Vec<_> = fleet
        .parties
        .into_iter()
        .map(|p| {
            let shards = if p.party == 1 { 2 } else { 1 };
            spawn_party_with(p, &ring, shards)
        })
        .collect();
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();

    let mut db = EncryptedDb::connect_fleet_mux(&addrs, 2, map, seed).unwrap();
    let status = db.party_status();
    assert_eq!(status[0].health, PartyHealth::Quarantined);
    let fault = status[0].fault.clone().unwrap_or_default();
    assert!(
        fault.contains("shard count mismatch: 4 vs fleet's 2"),
        "party 1's fault must name its mismatch: {fault}"
    );
    for other in &status[1..] {
        assert_eq!(other.health, PartyHealth::Live, "party {}", other.party);
        assert!(
            other.fault.is_none(),
            "party {}: {:?}",
            other.party,
            other.fault
        );
    }
    let out = db
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap();
    assert_eq!(out.result, fleet_expected("//b", EngineKind::Simple));

    drop(db);
    stop_all(hosts);
}

/// Two layouts that each reach the threshold are refused at connect with a
/// typed error naming both sides: parties 1 and 2 of a 4-party t = 2 fleet
/// serve two data shards, parties 3 and 4 one.
#[test]
fn fleet_connect_refuses_two_layouts_that_each_reach_the_threshold() {
    let (map, seed) = fleet_secrets();
    let spec = FleetSpec::new(4, 2).unwrap();
    let fleet = encode_document_fleet(FLEET_XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    let hosts: Vec<_> = fleet
        .parties
        .into_iter()
        .map(|p| {
            let shards = if p.party <= 2 { 2 } else { 1 };
            spawn_party_with(p, &ring, shards)
        })
        .collect();
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();

    match EncryptedDb::connect_fleet_mux(&addrs, 2, map, seed) {
        Err(CoreError::Transport(msg)) => assert!(
            msg.contains("ambiguous") && msg.contains("[1, 2]") && msg.contains("[3, 4]"),
            "{msg}"
        ),
        Err(other) => panic!("expected a transport error, got {other:?}"),
        Ok(_) => panic!("a fleet with two threshold layouts connected"),
    }
    stop_all(hosts);
}

/// A party dying *mid-stream* — its host winds down between two queries on
/// a live fleet connection — degrades the fleet to the surviving quorum:
/// the next wave retires the dead leg and the results never change.
#[test]
fn fleet_party_dying_mid_stream_degrades_without_corruption() {
    let (map, seed) = fleet_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet = encode_document_fleet(FLEET_XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    // Winding a host down closes its sockets even while clients hold
    // connections, which is exactly the abrupt-death shape we want.
    let mut hosts: Vec<_> = fleet
        .parties
        .into_iter()
        .map(|p| spawn_party(p, &ring))
        .collect();
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();
    let expected = fleet_expected("//a/b", EngineKind::Advanced);

    let mut db = EncryptedDb::connect_fleet_mux(&addrs, 2, map, seed).unwrap();
    let out = db
        .query("//a/b", EngineKind::Advanced, MatchRule::Equality)
        .unwrap();
    assert_eq!(out.result, expected);

    // Kill party 2's host under the live connection.
    let (a2, h2) = hosts.remove(1);
    stop_host(a2);
    h2.join().expect("party 2 host panicked");

    // The same fleet connection keeps answering, bit-identically.
    for _ in 0..2 {
        let out = db
            .query("//a/b", EngineKind::Advanced, MatchRule::Equality)
            .unwrap();
        assert_eq!(
            out.result, expected,
            "results must survive a mid-stream death"
        );
    }

    drop(db);
    stop_all(hosts);
}

/// A byzantine party serving bit-flipped shares over TCP: the MAC check
/// catches it, the error *names the party*, and the query never returns
/// wrong results. The fleet then quarantines the liar — the very next
/// query on the same connection succeeds on the honest quorum.
#[test]
fn fleet_byzantine_shares_over_tcp_are_detected_and_named() {
    let (map, seed) = fleet_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let mut fleet = encode_document_fleet(FLEET_XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    // Flip one bit in every polynomial of party 2's data plane.
    let clean = std::mem::replace(&mut fleet.parties[1].data, Table::new(1));
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
    fleet.parties[1].data = corrupted;

    let hosts: Vec<_> = fleet
        .parties
        .into_iter()
        .map(|p| spawn_party(p, &ring))
        .collect();
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();

    let mut db = EncryptedDb::connect_fleet_mux(&addrs, 2, map, seed).unwrap();
    let err = db
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap_err();
    assert!(matches!(err, CoreError::Corrupt(_)), "{err:?}");
    let msg = err.to_string();
    assert!(
        msg.contains("integrity") && msg.contains("party 2"),
        "expected an integrity error naming party 2, got: {msg}"
    );

    // Quarantined: the honest quorum answers the retry correctly.
    let out = db
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap();
    assert_eq!(
        out.result,
        fleet_expected("//b", EngineKind::Simple),
        "post-quarantine results must be exact"
    );

    drop(db);
    stop_all(hosts);
}

// ---- resilience: deadlines and write stalls ---------------------------------

/// A slow-loris party: every connection gets its handshake answered (as a
/// one-data-shard party, `2` shards), after which the socket swallows
/// frames forever without responding.
fn slow_loris_party() -> (SocketAddr, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if flag.load(Ordering::SeqCst) {
                return;
            }
            let Ok(mut s) = stream else { return };
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                answer_hello(&mut s, 2);
                // Now go silent: read everything, answer nothing.
                let mut buf = [0u8; 4096];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {
                            if flag.load(Ordering::SeqCst) {
                                return;
                            }
                        }
                    }
                }
            });
        }
    });
    (addr, stop)
}

/// A slow-loris party — answers the handshake, then never responds to
/// another frame. With a per-call deadline the wave times that leg out,
/// completes bit-identically from the two honest parties, and the fault on
/// record names the party, its address, and the exceeded deadline.
#[test]
fn fleet_slow_loris_party_is_timed_out_not_waited_for() {
    let (map, seed) = fleet_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet = encode_document_fleet(FLEET_XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    let mut parties = fleet.parties.into_iter();
    let p1 = spawn_party(parties.next().unwrap(), &ring);
    let _party2_shares_stay_offline = parties.next().unwrap();
    let p3 = spawn_party(parties.next().unwrap(), &ring);
    let (loris, stop) = slow_loris_party();
    let addrs = vec![p1.0.to_string(), loris.to_string(), p3.0.to_string()];

    let mut db = EncryptedDb::connect_fleet_mux(&addrs, 2, map, seed).unwrap();
    db.set_deadline(Some(Duration::from_millis(200)));
    db.set_resilience(ResilienceConfig {
        retries: 0,
        ..Default::default()
    });
    let t0 = Instant::now();
    let out = db
        .query("//b", EngineKind::Simple, MatchRule::Equality)
        .unwrap();
    assert_eq!(
        out.result,
        fleet_expected("//b", EngineKind::Simple),
        "the honest quorum must answer exactly"
    );
    // Timeouts are bounded: the hung leg costs at most a few deadlines
    // before quarantine, never a multi-second wait per wave.
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "query stalled on the slow-loris party: {:?}",
        t0.elapsed()
    );
    let status = db.party_status();
    let p2 = &status[1];
    assert_eq!(p2.addr, loris.to_string(), "fault must carry the address");
    assert_ne!(p2.health, PartyHealth::Live);
    let fault = p2
        .fault
        .clone()
        .expect("the hung party must have a fault on record");
    assert!(
        fault.contains("deadline exceeded"),
        "fault must name the deadline: {fault}"
    );

    drop(db);
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(loris);
    stop_all(vec![p1, p3]);
}

/// The CLI's `--deadline-ms` reaches every fleet leg: `remote --fleet …
/// --deadline-ms 200 --retries 0` over two honest `serve --party`
/// processes and a slow-loris party 2 answers exactly like the
/// single-store `query`, within a few seconds. The client process is
/// killed past a hard bound, so a budget that never reaches the legs fails
/// the test instead of hanging it.
#[test]
fn cli_fleet_deadline_times_out_a_silent_party() {
    use std::process::{Command, Stdio};
    let bin = env!("CARGO_BIN_EXE_ssxdb");
    let dir = std::env::temp_dir().join(format!("ssxdb_fleet_deadline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ssxdb = |args: &[&str]| {
        let mut cmd = Command::new(bin);
        cmd.args(args).current_dir(&dir);
        cmd
    };
    let run = |args: &[&str]| {
        let out = ssxdb(args).output().expect("spawn ssxdb");
        assert!(
            out.status.success(),
            "ssxdb {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let secrets = ["--map", "map.properties", "--seed", "seed.hex"];
    let query = "/site/regions/europe/item";
    run(&["keygen", "seed.hex"]);
    run(&["xmark", "--bytes", "4000", "--seed", "5", "doc.xml"]);
    run(&["genmap", "--p", "83", "--doc", "doc.xml", "map.properties"]);
    run(&[&["encode"][..], &secrets, &["doc.xml", "db.ssxdb"]].concat());
    let split = ["--servers", "3", "--threshold", "2", "doc.xml", "db.ssxdb"];
    run(&[&["encode"][..], &secrets, &split].concat());
    let expected = run(&[&["query"][..], &secrets, &["db.ssxdb", query]].concat());

    // Parties 1 and 3 serve their stores; party 2 answers the handshake
    // and then swallows every frame.
    let mut servers = Hosts::default();
    let mut addrs: Vec<String> = ["1", "3"]
        .iter()
        .map(|party| {
            let store = format!("db.party{party}.ssxdb");
            servers.serve(&dir, &["--party", party, &store])
        })
        .collect();
    let (loris, stop) = slow_loris_party();
    addrs.insert(1, loris.to_string());

    let fleet = addrs.join(",");
    let budget = ["--deadline-ms", "200", "--retries", "0", query];
    let t0 = Instant::now();
    let mut client = ssxdb(
        &[
            &["remote"][..],
            &secrets,
            &["--fleet", &fleet, "--threshold", "2"],
            &budget,
        ]
        .concat(),
    )
    .stdout(Stdio::piped())
    .stderr(Stdio::piped())
    .spawn()
    .unwrap();
    while client.try_wait().unwrap().is_none() && t0.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(20));
    }
    let elapsed = t0.elapsed();
    let _ = client.kill();
    let out = client.wait_with_output().unwrap();
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(loris);
    drop(servers);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "remote --fleet failed after {elapsed:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    assert!(
        elapsed < Duration::from_secs(10),
        "the silent party was waited for: {elapsed:?}"
    );
}

/// A byte relay in front of one host. `go_silent` resets every relayed
/// connection; from then on the relay accepts connections and never
/// answers them.
struct SilentRelay {
    addr: SocketAddr,
    silent: Arc<AtomicBool>,
    relayed: Arc<Mutex<Vec<TcpStream>>>,
}

impl SilentRelay {
    fn spawn(upstream: SocketAddr) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let silent = Arc::new(AtomicBool::new(false));
        let relayed: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let (flag, streams) = (Arc::clone(&silent), Arc::clone(&relayed));
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for client in listener.incoming() {
                let Ok(client) = client else { return };
                if flag.load(Ordering::SeqCst) {
                    held.push(client);
                    continue;
                }
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue;
                };
                let mut list = streams.lock().unwrap();
                list.push(client.try_clone().unwrap());
                list.push(server.try_clone().unwrap());
                drop(list);
                let pipes = [
                    (client.try_clone().unwrap(), server.try_clone().unwrap()),
                    (server, client),
                ];
                for (mut from, mut to) in pipes {
                    std::thread::spawn(move || {
                        let _ = std::io::copy(&mut from, &mut to);
                        let _ = to.shutdown(Shutdown::Both);
                    });
                }
            }
        });
        SilentRelay {
            addr,
            silent,
            relayed,
        }
    }

    fn go_silent(&self) {
        self.silent.store(true, Ordering::SeqCst);
        for s in self.relayed.lock().unwrap().drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// Re-admission probes dial on the client thread, so each must be bounded
/// by the deadline: a quarantined party whose address accepts TCP but
/// never answers the handshake costs each probe its budget, not the whole
/// client. Forty queries finish, exactly, and the party ends quarantined
/// with the probe's timeout on record.
#[test]
fn readmission_probe_against_a_silent_party_is_bounded() {
    let (map, seed) = fleet_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet = encode_document_fleet(FLEET_XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    let hosts: Vec<_> = fleet
        .parties
        .into_iter()
        .map(|p| spawn_party(p, &ring))
        .collect();
    let relay = SilentRelay::spawn(hosts[1].0);
    let addrs = vec![
        hosts[0].0.to_string(),
        relay.addr.to_string(),
        hosts[2].0.to_string(),
    ];
    let expected = fleet_expected("//b", EngineKind::Simple);

    let mut db = EncryptedDb::connect_fleet_mux(&addrs, 2, map, seed).unwrap();
    db.set_deadline(Some(Duration::from_millis(200)));
    db.set_resilience(ResilienceConfig {
        retries: 0,
        ..Default::default()
    });
    let query = |db: &mut EncryptedDb<ShardRouter<FleetTransport<MuxTransport>>>| {
        db.query("//b", EngineKind::Simple, MatchRule::Equality)
            .unwrap()
            .result
    };
    assert_eq!(query(&mut db), expected);

    relay.go_silent();
    let t0 = Instant::now();
    for round in 0..40 {
        assert_eq!(query(&mut db), expected, "round {round}");
    }
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "probes against the silent party were not bounded: {:?}",
        t0.elapsed()
    );
    let p2 = db.party_status().remove(1);
    assert_eq!(p2.health, PartyHealth::Quarantined);
    let fault = p2.fault.unwrap_or_default();
    assert!(
        fault.contains("re-admission probe failed") && fault.contains("deadline exceeded"),
        "{fault}"
    );

    drop(db);
    stop_all(hosts);
}

/// The mux host's write-stall knob (`serve --write-stall-ms`): a client
/// that requests megabytes and never reads a byte is cut off after the
/// configured stall, freeing the (deliberately single) executor for
/// well-behaved clients long before the 5 s default would.
#[test]
fn mux_write_stall_knob_cuts_off_a_non_reading_client() {
    let map = MapFile::sequential(29, 1, &["site", "a", "b"]).unwrap();
    let seed = Seed::from_test_key(9);
    let out = encode_document("<site><a><b/></a></site>", &map, &seed).unwrap();
    let server = ShardedServer::from_table(out.table, out.ring, 1).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = MuxHostOptions {
        workers: 1,
        write_stall: Duration::from_millis(150),
    };
    let handle = std::thread::spawn(move || serve_tcp_mux_opts(listener, server, opts).unwrap());

    // The stalled client: mux handshake, then ~40 MB of polynomial fetches
    // it will never read. Writes are best-effort — the host is expected to
    // kill this connection under us.
    let mut stalled = TcpStream::connect(addr).unwrap();
    write_frame_raw(
        &mut stalled,
        &encode_request(&Request::Hello { version: 1 }),
    );
    read_frame_raw(&mut stalled).expect("hello answered");
    let req = encode_request(&Request::GetPolys {
        pres: vec![1; 40_000],
    });
    for corr in 0..2u64 {
        let mut framed = corr.to_le_bytes().to_vec();
        framed.extend_from_slice(&req);
        let _ = stalled.write_all(&(framed.len() as u32).to_le_bytes());
        let _ = stalled.write_all(&framed);
    }

    // The well-behaved client is served well under the 5 s default: the
    // stalled connection is poisoned after ~150 ms and the executor moves on.
    let t0 = Instant::now();
    let pool = MuxPool::connect(addr, 1).unwrap();
    let mut good = pool.transport(0);
    assert_eq!(good.call(&Request::Count).unwrap(), Response::Count(3));
    assert!(
        t0.elapsed() < Duration::from_millis(2500),
        "good client waited {:?}; the write-stall knob did not take effect",
        t0.elapsed()
    );

    drop(stalled);
    good.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}
