//! The same query must produce identical results and the same traffic
//! counters over the in-process transport and over a real socket — the
//! socket adds exactly the 8-byte correlation id to every frame.

use ssxdb::core::protocol::Request;
use ssxdb::core::protocol::CORR_BYTES;
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, serve_tcp_mux, ClientFilter, Engine, EngineKind, LocalTransport, MapFile,
    MatchRule, MuxPool, ServerFilter, ShardedServer,
};
use ssxdb::prg::{Prg, Seed};
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xpath::parse_query;
use std::net::TcpListener;

fn secrets() -> (MapFile, Seed) {
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(5)).unwrap();
    (map, Seed::from_test_key(77))
}

#[test]
fn local_and_tcp_agree() {
    let xml = generate(&XmarkConfig {
        seed: 10,
        target_bytes: 6 * 1024,
    });
    let (map, seed) = secrets();
    let out = encode_document(&xml, &map, &seed).unwrap();

    // Two identical servers: one local, one behind TCP.
    let local_server = ServerFilter::new(out.table.clone(), out.ring.clone());
    let tcp_server = ShardedServer::from_table(out.table, out.ring, 1).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || serve_tcp_mux(listener, tcp_server, 0).unwrap());

    let mut local_client =
        ClientFilter::new(LocalTransport::new(local_server), map.clone(), seed.clone()).unwrap();
    let pool = MuxPool::dial(addr, None).unwrap();
    let mut tcp_client = ClientFilter::new(pool.transport(0), map, seed).unwrap();

    for q in [
        "/site//europe/item",
        "//bidder/date",
        "/site/*/person//city",
    ] {
        let query = parse_query(q).unwrap();
        for rule in [MatchRule::Containment, MatchRule::Equality] {
            for kind in [EngineKind::Simple, EngineKind::Advanced] {
                let a = Engine::run(kind, rule, &query, &mut local_client).unwrap();
                let b = Engine::run(kind, rule, &query, &mut tcp_client).unwrap();
                assert_eq!(a.pres(), b.pres(), "{q} {kind:?} {rule:?}");
                // Same protocol work regardless of the wire.
                assert_eq!(
                    a.stats.round_trips, b.stats.round_trips,
                    "{q} {kind:?} {rule:?}"
                );
                // Identical frames; the wire wraps each in a correlation id.
                let envelope = CORR_BYTES as u64 * b.stats.round_trips;
                assert_eq!(a.stats.bytes_sent + envelope, b.stats.bytes_sent, "{q}");
                assert_eq!(
                    a.stats.bytes_received + envelope,
                    b.stats.bytes_received,
                    "{q}"
                );
            }
        }
    }

    tcp_client.transport_mut().call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}
