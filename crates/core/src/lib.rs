#![warn(missing_docs)]

//! The paper's system proper: encoding, the distributed filter, and the two
//! query engines.
//!
//! Component map (mirrors the paper's figure 3 architecture):
//!
//! | Paper component  | Module |
//! |------------------|--------|
//! | map file         | [`map`] — secret tag-name → `F_q` assignment |
//! | `MySQLEncode`    | [`encode`] — streaming SAX encoder filling the server table |
//! | `ServerFilter`   | [`server`] — evaluates stored shares, walks the tree a frontier per request |
//! | RMI              | [`protocol`] + [`transport`] — binary message protocol (single + batch frames) over an in-process link or one multiplexed TCP host/client pair |
//! | `ClientFilter`   | [`client`] — regenerates client shares from the seed, combines evaluations, batch-first fetch APIs |
//! | —                | [`shard`] — deterministic `pre → shard` partition, `ShardedServer` (S independent filters) |
//! | —                | [`router`] — `ShardRouter`: splits batches by shard, pipelined dispatch, document-order merge |
//! | `SimpleQuery`    | [`engine::SimpleEngine`] |
//! | `AdvancedQuery`  | [`engine::AdvancedEngine`] |
//! | —                | [`mod@reference`] — plaintext XPath oracle (ground truth for Fig 7 accuracy) |
//! | —                | [`fleet`] — t-of-n multi-party deployment: per-party share stores, quorum-read transport, verified reconstruction |
//! | —                | [`facade::EncryptedDb`] — one-stop construction for examples and tests |
//!
//! The two *matching rules* (§6.3 "strictness") are [`engine::MatchRule`]:
//! `Containment` (non-strict, one evaluation) and `Equality` (strict,
//! polynomial reconstruction + division).

pub mod accuracy;
pub mod aggregate;
pub mod chaos;
pub mod client;
pub mod encode;
pub mod engine;
pub mod error;
pub mod facade;
pub mod fleet;
pub mod map;
pub mod protocol;
pub mod reference;
pub mod router;
pub mod server;
pub mod shard;
pub mod transport;

pub use accuracy::accuracy_percent;
pub use aggregate::{run_aggregate, AggOp, AggregateOutcome, AggregateSpec};
pub use chaos::{ChaosConfig, ChaosProxy, ChaosTransport};
pub use client::{ClientFilter, ClientStats};
pub use encode::{
    encode_document, encode_document_at, encode_document_fleet, encode_dom, fleet_mac_key,
    split_fleet, EncodeOutput, EncodeStats, FleetEncodeOutput, FleetSpec, PartyStore,
};
pub use engine::{
    AdvancedEngine, Engine, EngineKind, MatchRule, QueryOutcome, QueryStats, SimpleEngine,
};
pub use error::CoreError;
pub use facade::{EncryptedDb, FleetDb, InsertOutcome, RemoteMuxDb, RemoteMuxFleetDb};
pub use fleet::{
    connect_fleet_mux, local_fleet_router, local_fleet_router_wrapped, party_server, Dialer,
    FleetLeg, FleetTransport, LocalPartyTransport, PartyHealth, PartyStatus, ResilienceConfig,
};
pub use map::MapFile;
pub use reference::{reference_aggregate, reference_eval, RefAggregate};
pub use router::ShardRouter;
pub use server::{ServerFilter, ServerStats};
pub use shard::{partition_table, ShardSpec, ShardedServer};
pub use transport::{
    serve_tcp_mux, serve_tcp_mux_opts, Deadline, LocalTransport, MuxHostOptions, MuxPool,
    MuxTransport, PendingCall, Transport, DEFAULT_MUX_WRITE_STALL,
};
