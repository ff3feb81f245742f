//! A real client/server deployment over TCP — the paper's figure-3
//! architecture with the RMI link replaced by our wire protocol.
//!
//! The server thread owns only the encrypted table (it was "filled by the
//! client", §5.1). The client connects over a socket, runs queries with the
//! pipelined `nextNode()` cursor and with batched evaluation, and reports
//! exact byte/round-trip counts.
//!
//! ```text
//! cargo run --release --example client_server_tcp
//! ```

use ssxdb::core::protocol::Request;
use ssxdb::core::transport::Transport;
use ssxdb::core::{
    encode_document, serve_tcp_mux, AdvancedEngine, ClientFilter, MatchRule, MuxPool, ShardRouter,
    ShardedServer, SimpleEngine,
};
use ssxdb::prg::{Prg, Seed};
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xpath::parse_query;
use std::net::TcpListener;

fn main() {
    // --- client side: encode the document, keep the secrets -------------
    let xml = generate(&XmarkConfig {
        seed: 7,
        target_bytes: 24 * 1024,
    });
    let map = MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(4)).unwrap();
    let seed = Seed::from_test_key(0xC11E27);
    let out = encode_document(&xml, &map, &seed).unwrap();
    println!(
        "client encoded {} elements ({} bytes input)",
        out.stats.elements,
        xml.len()
    );

    // --- server side: receives table + public ring parameters only ------
    let server = ShardedServer::from_table(out.table, out.ring, 1).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    println!("server listening on {addr} (holds shares + structure, no secrets)");
    let server_thread = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());

    // --- client connects and queries ------------------------------------
    // One socket per shard; the host's handshake says how many there are.
    let pool = MuxPool::dial(addr, None).unwrap();
    let mut client = ClientFilter::new(ShardRouter::mux(&pool), map, seed).unwrap();

    let query = parse_query("/site/*/person//city").unwrap();
    let outcome = AdvancedEngine::run(&query, MatchRule::Equality, &mut client).unwrap();
    println!(
        "\n/site/*/person//city (advanced, strict): {} matches in {:?}",
        outcome.result.len(),
        outcome.stats.elapsed
    );
    println!(
        "  network: {} round trips, {} B sent, {} B received",
        outcome.stats.round_trips, outcome.stats.bytes_sent, outcome.stats.bytes_received
    );

    let query2 = parse_query("//bidder/date").unwrap();
    let outcome2 = SimpleEngine::run(&query2, MatchRule::Containment, &mut client).unwrap();
    println!(
        "//bidder/date (simple, non-strict): {} matches, {} round trips",
        outcome2.result.len(),
        outcome2.stats.round_trips
    );

    // The thin-client pipeline: pull children one node at a time.
    let root = client.roots().unwrap()[0];
    let cursor = client.open_children_cursor(vec![root.pre]).unwrap();
    print!("pipelined children of the root (one RTT per node): ");
    while let Some(loc) = client.next_node(cursor).unwrap() {
        print!("pre={} ", loc.pre);
    }
    println!();

    // Shut the server down cleanly.
    client.transport_mut().call(&Request::Shutdown).unwrap();
    let server = server_thread.join().unwrap();
    let stats = server.filters()[0].stats();
    println!(
        "\nserver handled {} requests: {} share evaluations, {} polynomials served",
        stats.requests, stats.evaluations, stats.polys_served
    );
    println!(
        "total traffic seen by the client: {:?}",
        client.transport_stats()
    );
}

use ssxdb::core::MapFile;
