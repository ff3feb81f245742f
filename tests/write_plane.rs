//! The write plane end to end, over real sockets: an insert on a shared
//! mux pool must be visible to the next wave of a reader on the same
//! sockets, and a 3-server (t = 2) TCP fleet must
//! accept interleaved inserts and deletes while queries run, with every
//! answer bit-identical to a freshly encoded store of the same final
//! document set at the same offsets — the PR-9 acceptance criteria.

use ssxdb::core::protocol::Request;
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, encode_document_at, encode_document_fleet, party_server, serve_tcp_mux,
    ClientFilter, EncryptedDb, EngineKind, FleetSpec, FleetTransport, MapFile, MatchRule, MuxPool,
    MuxTransport, PartyStore, RemoteMuxDb, ShardRouter, ShardedServer,
};
use ssxdb::poly::RingCtx;
use ssxdb::prg::Seed;
use std::net::{SocketAddr, TcpListener};

const DOC_A: &str = "<site><a><b/></a><c/></site>"; // pres 1..=4
const DOC_B: &str = "<site><a><b/><b/></a></site>"; // pres 5..=8 when inserted
const DOC_C: &str = "<site><b><c/></b></site>"; // pres 9..=11 after doc_b

fn secrets() -> (MapFile, Seed) {
    (
        MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap(),
        Seed::from_test_key(0x9_2005),
    )
}

fn stop_host(addr: SocketAddr) {
    let mut closer = MuxPool::dial(addr, None).unwrap().transport(0);
    closer.call(&Request::Shutdown).unwrap();
}

/// An insert through the mux TCP transport, from a writer sharing the
/// reader's pool (one socket per shard), is visible to the reader's very
/// next wave: the forest has both roots and their children.
#[test]
fn insert_on_a_shared_mux_pool_is_visible_to_its_reader() {
    let (map, seed) = secrets();
    let out = encode_document(DOC_A, &map, &seed).unwrap();
    let server = ShardedServer::from_table(out.table, out.ring, 2).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let host = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());

    let pool = MuxPool::connect(addr, 2).unwrap();
    let mut reader = ClientFilter::new(ShardRouter::mux(&pool), map.clone(), seed.clone()).unwrap();
    let pres = |lists: Vec<Vec<ssxdb::store::Loc>>| -> Vec<Vec<u32>> {
        lists
            .iter()
            .map(|l| l.iter().map(|l| l.pre).collect())
            .collect()
    };
    assert_eq!(pres(reader.children_many(&[1]).unwrap()), vec![vec![2, 4]]);

    // A second facade client on the *same* pool inserts a document.
    let mut writer = RemoteMuxDb::connect_mux(&pool, map.clone(), seed.clone()).unwrap();
    let ins = writer.insert_document(DOC_B).unwrap();
    assert_eq!(ins.root_pre, 5);

    // The reader's next waves see the grown forest.
    assert_eq!(
        reader
            .roots()
            .unwrap()
            .iter()
            .map(|l| l.pre)
            .collect::<Vec<_>>(),
        vec![1, 5]
    );
    assert_eq!(
        pres(reader.children_many(&[1, 5]).unwrap()),
        vec![vec![2, 4], vec![6]],
        "children of both roots"
    );

    stop_host(addr);
    host.join().unwrap();
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

/// The headline acceptance: a 3-server (t = 2) TCP fleet accepts
/// interleaved inserts and deletes while queries run between every
/// mutation, and the final store answers bit-identically — results *and*
/// wave counts — to a freshly encoded store of the same final document
/// set at the same offsets (`doc_a` at 0, `doc_c` at 8: `doc_b` lived and
/// died in pres 5..=8, and the high-water mark never reuses them).
#[test]
fn tcp_fleet_ingests_interleaved_writes_while_queries_run() {
    let (map, seed) = secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet_out = encode_document_fleet(DOC_A, &map, &seed, spec).unwrap();
    let ring = fleet_out.ring.clone();
    let hosts: Vec<_> = fleet_out
        .parties
        .into_iter()
        .map(|p| spawn_party(p, &ring))
        .collect();
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();
    let mut fleet = EncryptedDb::connect_fleet_mux(&addrs, 2, map.clone(), seed.clone()).unwrap();
    // Wave counts are compared with an in-process store below: pin both
    // sides' speculation, which unpinned follows each link's measured
    // `Roots` wave time.
    fleet.set_speculation(false);

    let b_pres = |db: &mut EncryptedDb<ShardRouter<FleetTransport<MuxTransport>>>| {
        db.query("//b", EngineKind::Simple, MatchRule::Equality)
            .unwrap()
            .pres()
    };
    assert_eq!(b_pres(&mut fleet), vec![3]);
    let ins_b = fleet.insert_document(DOC_B).unwrap();
    assert_eq!((ins_b.root_pre, ins_b.rows), (5, 4));
    assert_eq!(b_pres(&mut fleet), vec![3, 7, 8]);
    let ins_c = fleet.insert_document(DOC_C).unwrap();
    assert_eq!((ins_c.root_pre, ins_c.rows), (9, 3));
    assert_eq!(b_pres(&mut fleet), vec![3, 7, 8, 10]);
    assert_eq!(fleet.delete_document(ins_b.root_pre).unwrap(), 4);
    assert_eq!(b_pres(&mut fleet), vec![3, 10]);

    // Fresh encode of the final document set at the final offsets: the
    // mutated fleet must be indistinguishable from never having mutated.
    let mut out_a = encode_document(DOC_A, &map, &seed).unwrap();
    let out_c = encode_document_at(DOC_C, &map, &seed, 8).unwrap();
    for row in out_c.table.into_rows() {
        out_a.table.insert(row).unwrap();
    }
    let mut fresh = EncryptedDb::from_encode_output(out_a, map.clone(), seed.clone(), 1).unwrap();
    fresh.set_speculation(false);

    for q in ["/site", "//b", "//c", "/site/a/b", "/site/b/c"] {
        for kind in [EngineKind::Simple, EngineKind::Advanced] {
            for rule in [MatchRule::Containment, MatchRule::Equality] {
                let want = fresh.query(q, kind, rule).unwrap();
                let got = fleet.query(q, kind, rule).unwrap();
                assert_eq!(want.pres(), got.pres(), "{q} {kind:?} {rule:?}: results");
                assert_eq!(
                    want.stats.round_trips, got.stats.round_trips,
                    "{q} {kind:?} {rule:?}: wave count"
                );
            }
        }
    }

    drop(fleet);
    for (a, _) in &hosts {
        stop_host(*a);
    }
    for (_, h) in hosts {
        h.join().unwrap();
    }
}
