//! One-stop construction: encode a document, keep the server in-process,
//! query it. What examples, tests and benchmarks use when they do not need
//! to wire the pieces manually.
//!
//! The in-process query plane is the sharded one: a
//! [`ShardRouter`] over one [`crate::transport::LocalTransport`] per shard.
//! The default is a single shard — byte- and round-trip-identical to the
//! monolithic server — and [`EncryptedDb::encode_sharded`] (or
//! [`EncryptedDb::load_sharded`]) partitions the same table across `S`
//! independent server filters.
//!
//! The facade is generic over its transport: the default parameter is the
//! in-process plane, and [`EncryptedDb::connect_mux`] opens the same
//! interface onto a remote [`crate::transport::serve_tcp_mux`] host — many
//! `connect_mux` databases built on one [`MuxPool`] overlap their query
//! waves on a single socket per shard.

use crate::aggregate::{run_aggregate, AggOp, AggregateOutcome, AggregateSpec};
use crate::client::ClientFilter;
use crate::encode::{
    encode_document, encode_document_at, encode_document_fleet, encode_dom, numeric_pre,
    EncodeOutput, EncodeStats, FleetEncodeOutput, FleetSpec,
};
use crate::engine::{Engine, EngineKind, MatchRule, QueryOutcome};
use crate::error::CoreError;
use crate::fleet::{
    connect_fleet_mux, local_fleet_router, FleetTransport, LocalPartyTransport, PartyStatus,
    ResilienceConfig,
};
use crate::map::MapFile;
use crate::router::ShardRouter;
use crate::shard::ShardedServer;
use crate::transport::{LocalTransport, MuxPool, MuxTransport, Transport};
use ssx_poly::RingCtx;
use ssx_prg::Seed;
use ssx_store::{Loc, Row, SizeReport, Table, Wal, WalReplay};
use ssx_xml::Document;
use ssx_xpath::parse_query;
use std::path::Path;

/// An encrypted database over some query-plane transport. The default type
/// parameter is the in-process (optionally sharded) server every encode
/// constructor builds; [`EncryptedDb::connect_mux`] puts the identical
/// query interface on a remote host.
pub struct EncryptedDb<T: Transport + Send = ShardRouter<LocalTransport>> {
    client: ClientFilter<T>,
    encode_stats: EncodeStats,
    /// Optional write-ahead log: document mutations are appended (and
    /// fsynced) as they are applied, so a crash between mutations and the
    /// next [`EncryptedDb::checkpoint`] loses nothing.
    wal: Option<Wal>,
}

/// What [`EncryptedDb::insert_document`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// `pre` of the new document's root (the handle for
    /// [`EncryptedDb::delete_document`] / [`EncryptedDb::update_document`]).
    pub root_pre: u32,
    /// Rows (elements) the store accepted.
    pub rows: u64,
    /// Numbering offset the document was encoded at (`root_pre - 1`).
    pub offset: u32,
}

/// An [`EncryptedDb`] over a remote multiplexed host, riding a shared
/// [`MuxPool`].
pub type RemoteMuxDb = EncryptedDb<ShardRouter<MuxTransport>>;

impl EncryptedDb {
    /// Encodes `xml` under `map` and `seed` (single shard).
    pub fn encode(xml: &str, map: MapFile, seed: Seed) -> Result<Self, CoreError> {
        Self::encode_sharded(xml, map, seed, 1)
    }

    /// Encodes `xml` and partitions the table across `shards` server
    /// filters. Query results are identical for every shard count; what
    /// changes is placement, per-shard state and the concurrency available
    /// to a networked deployment.
    pub fn encode_sharded(
        xml: &str,
        map: MapFile,
        seed: Seed,
        shards: u32,
    ) -> Result<Self, CoreError> {
        let out = encode_document(xml, &map, &seed)?;
        Self::from_encode_output(out, map, seed, shards)
    }

    /// Encodes a DOM (for trie-transformed documents; single shard).
    pub fn encode_doc(doc: &Document, map: MapFile, seed: Seed) -> Result<Self, CoreError> {
        Self::encode_doc_sharded(doc, map, seed, 1)
    }

    /// Encodes a DOM across `shards` server filters.
    pub fn encode_doc_sharded(
        doc: &Document,
        map: MapFile,
        seed: Seed,
        shards: u32,
    ) -> Result<Self, CoreError> {
        let out = encode_dom(doc, &map, &seed)?;
        Self::from_encode_output(out, map, seed, shards)
    }

    /// Builds a database around an already-finished encode — e.g. one
    /// produced by [`crate::encode_document_at`] — partitioned across
    /// `shards` server filters. The `map` and `seed` must be the ones the
    /// encode ran under (the client regenerates its shares from them).
    pub fn from_encode_output(
        out: EncodeOutput,
        map: MapFile,
        seed: Seed,
        shards: u32,
    ) -> Result<Self, CoreError> {
        let server = ShardedServer::from_table(out.table, out.ring, shards)?;
        let client = ClientFilter::new(ShardRouter::local(server), map, seed)?;
        Ok(EncryptedDb {
            client,
            encode_stats: out.stats,
            wal: None,
        })
    }

    /// Server-side table sizes, summed across shards (Fig 4 series; the
    /// partition moves rows, it does not change their cost).
    pub fn size_report(&self) -> SizeReport {
        let mut total = SizeReport {
            poly_bytes: 0,
            structure_bytes: 0,
            index_bytes: 0,
            rows: 0,
        };
        for server in self.client.transport().servers() {
            let r = server.table().size_report();
            total.poly_bytes += r.poly_bytes;
            total.structure_bytes += r.structure_bytes;
            total.index_bytes += r.index_bytes;
            total.rows += r.rows;
        }
        total
    }

    /// Number of encoded elements (across all shards).
    pub fn node_count(&self) -> usize {
        self.client
            .transport()
            .servers()
            .map(|s| s.table().len())
            .sum()
    }

    /// Persists the server table — shard partitions are merged back into
    /// one document-ordered table, so the on-disk format is independent of
    /// the shard count (and bit-identical per row). The map and seed are
    /// *not* written — they are the client's secrets and travel separately.
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        ssx_store::save_table(&self.merged_table()?, path)?;
        Ok(())
    }

    /// Shard partitions merged back into one document-ordered table.
    fn merged_table(&self) -> Result<Table, CoreError> {
        let mut rows: Vec<Row> = self
            .client
            .transport()
            .servers()
            .flat_map(|s| s.table().rows().iter().cloned())
            .collect();
        rows.sort_by_key(|r| r.loc.pre);
        let poly_len = self
            .client
            .transport()
            .servers()
            .next()
            .map_or(0, |s| s.table().poly_len());
        let mut merged = Table::new(poly_len);
        for row in rows {
            merged.insert(row)?;
        }
        Ok(merged)
    }

    /// Opens (or bootstraps) a durable store: loads the snapshot at
    /// `snapshot` when present (an empty store otherwise), replays the log
    /// at `wal` over it — recovering every mutation acked since the last
    /// [`EncryptedDb::checkpoint`], truncating any torn tail — and
    /// attaches the log so later mutations append to it.
    pub fn open_durable(
        snapshot: &Path,
        wal: &Path,
        map: MapFile,
        seed: Seed,
        shards: u32,
    ) -> Result<(Self, WalReplay), CoreError> {
        let ring = RingCtx::new(map.p(), map.e())?;
        let expected = ssx_poly::Packer::new(&ring).radix_len();
        let (table, replay) = if snapshot.exists() {
            let (table, replay) = ssx_store::load_table_with_wal(snapshot, wal)?;
            if expected != table.poly_len() {
                return Err(CoreError::Map(format!(
                    "map is for F_{}^{} ({} B/polynomial) but the table stores {} B/polynomial",
                    map.p(),
                    map.e(),
                    expected,
                    table.poly_len()
                )));
            }
            (table, replay)
        } else {
            let mut table = Table::new(expected);
            let replay = ssx_store::replay_wal(wal, &mut table)?;
            (table, replay)
        };
        let server = ShardedServer::from_table(table, ring, shards)?;
        let client = ClientFilter::new(ShardRouter::local(server), map, seed)?;
        let mut db = EncryptedDb {
            client,
            encode_stats: EncodeStats::default(),
            wal: None,
        };
        db.attach_wal(wal)?;
        Ok((db, replay))
    }

    /// Snapshots the merged table to `snapshot` atomically, then truncates
    /// the attached log ([`ssx_store::checkpoint`]): a crash between the
    /// two steps merely replays records the snapshot already contains,
    /// which replay skips idempotently.
    pub fn checkpoint(&mut self, snapshot: &Path) -> Result<(), CoreError> {
        let merged = self.merged_table()?;
        let wal = self.wal.as_mut().ok_or_else(|| {
            CoreError::Unsupported(
                "checkpoint requires an attached WAL (attach_wal or open_durable)".into(),
            )
        })?;
        ssx_store::checkpoint(&merged, snapshot, wal)?;
        Ok(())
    }

    /// Reopens a persisted table with the client secrets (single shard).
    /// Fails with a descriptive error when the map's field parameters do
    /// not match the table's packed polynomial size.
    pub fn load(path: &Path, map: MapFile, seed: Seed) -> Result<Self, CoreError> {
        Self::load_sharded(path, map, seed, 1)
    }

    /// Reopens a persisted table and partitions it across `shards` server
    /// filters — any table can be re-sharded on load.
    pub fn load_sharded(
        path: &Path,
        map: MapFile,
        seed: Seed,
        shards: u32,
    ) -> Result<Self, CoreError> {
        let table = ssx_store::load_table(path)?;
        let ring = RingCtx::new(map.p(), map.e())?;
        let expected = ssx_poly::Packer::new(&ring).radix_len();
        if expected != table.poly_len() {
            return Err(CoreError::Map(format!(
                "map is for F_{}^{} ({} B/polynomial) but the table stores {} B/polynomial",
                map.p(),
                map.e(),
                expected,
                table.poly_len()
            )));
        }
        let server = ShardedServer::from_table(table, ring, shards)?;
        let client = ClientFilter::new(ShardRouter::local(server), map, seed)?;
        Ok(EncryptedDb {
            client,
            encode_stats: EncodeStats::default(),
            wal: None,
        })
    }
}

impl<T: Transport + Send> EncryptedDb<T> {
    /// Parses and runs a query text.
    pub fn query(
        &mut self,
        query_text: &str,
        kind: EngineKind,
        rule: MatchRule,
    ) -> Result<QueryOutcome, CoreError> {
        let query = parse_query(query_text)?.expand_text_predicates();
        Engine::run(kind, rule, &query, &mut self.client)
    }

    /// Runs an already-parsed query.
    pub fn run(
        &mut self,
        query: &ssx_xpath::Query,
        kind: EngineKind,
        rule: MatchRule,
    ) -> Result<QueryOutcome, CoreError> {
        Engine::run(kind, rule, query, &mut self.client)
    }

    /// Parses and runs an aggregation query: COUNT/SUM/AVG over the
    /// matches of `query_text`, optionally keeping only matches whose
    /// numeric value lies in the inclusive `range`. Servers accumulate
    /// share partials blindly; the exact answer exists only client-side.
    /// Retries automatically when a racing writer trips the epoch fence.
    pub fn aggregate(
        &mut self,
        query_text: &str,
        kind: EngineKind,
        rule: MatchRule,
        op: AggOp,
        range: Option<(u64, u64)>,
    ) -> Result<AggregateOutcome, CoreError> {
        let query = parse_query(query_text)?.expand_text_predicates();
        let spec = AggregateSpec { query, op, range };
        run_aggregate(&mut self.client, kind, rule, &spec)
    }

    /// Runs an already-built [`AggregateSpec`].
    pub fn run_aggregate(
        &mut self,
        spec: &AggregateSpec,
        kind: EngineKind,
        rule: MatchRule,
    ) -> Result<AggregateOutcome, CoreError> {
        run_aggregate(&mut self.client, kind, rule, spec)
    }

    /// The client filter (tests and custom protocols).
    pub fn client_mut(&mut self) -> &mut ClientFilter<T> {
        &mut self.client
    }

    /// Encoding statistics of the build (zeroed on loaded or remote
    /// databases — the encode happened elsewhere).
    pub fn encode_stats(&self) -> EncodeStats {
        self.encode_stats
    }

    /// Toggle full verification of equality-test quotients.
    pub fn set_verify_equality(&mut self, verify: bool) {
        self.client.verify_equality = verify;
    }

    /// Caps batch frames at `limit` sub-requests (`None` = whole-frontier
    /// batches; `Some(1)` = the unbatched wire shape, the ablation
    /// baseline).
    pub fn set_batch_limit(&mut self, limit: Option<usize>) {
        self.client.set_batch_limit(limit);
    }

    /// Applies a per-call deadline to every transport under the facade
    /// (`None` = wait forever). A call that exceeds it fails with
    /// [`CoreError::Timeout`] instead of hanging the query.
    pub fn set_deadline(&mut self, budget: Option<std::time::Duration>) {
        self.client.transport_mut().set_call_budget(budget);
    }

    // ---- the write plane --------------------------------------------------

    /// Attaches a write-ahead log at `path`: every later document mutation
    /// is appended (and fsynced) after the store applies it, so the log
    /// holds exactly the acked mutations since the last
    /// [`EncryptedDb::checkpoint`]. An existing log is appended to, not
    /// replayed — replay happens in [`EncryptedDb::open_durable`].
    pub fn attach_wal(&mut self, path: &Path) -> Result<(), CoreError> {
        let poly_len = ssx_poly::Packer::new(self.client.ring()).radix_len();
        self.wal = Some(Wal::open(path, poly_len)?);
        Ok(())
    }

    /// The attached log, if any.
    pub fn wal_mut(&mut self) -> Option<&mut Wal> {
        self.wal.as_mut()
    }

    /// Encodes `xml` as a new document and inserts it into the live store.
    ///
    /// The document is numbered from `offset = max_pre` (a `MaxPre`
    /// handshake, max-merged across shards and agreed across fleet
    /// parties), so its rows extend the forest exactly as
    /// [`crate::encode::encode_document_at`] would have at build time —
    /// including the client-share PRG keys, which is what keeps the
    /// store bit-identical to a fresh encode of the same document set.
    /// Over a fleet, each row is re-split per party in the transport.
    /// Applied atomically: on any shard failure, already-applied shards
    /// are compensated and the store is unchanged.
    pub fn insert_document(&mut self, xml: &str) -> Result<InsertOutcome, CoreError> {
        let offset = self.client.max_pre()?;
        let map = self.client.map().clone();
        let seed = self.client.seed().clone();
        let out = encode_document_at(xml, &map, &seed, offset)?;
        let rows = out.table.into_rows();
        let wire: Vec<(Loc, Vec<u8>)> = rows.iter().map(|r| (r.loc, r.poly.to_vec())).collect();
        let n = self.client.insert_rows(wire)?;
        if n != rows.len() as u64 {
            return Err(CoreError::Transport(format!(
                "store accepted {n} of {} rows",
                rows.len()
            )));
        }
        // Log after the store acks: the in-process table dies with the
        // process anyway, so the durable truth is snapshot + log, and
        // logging only acked mutations means replay never redoes a
        // mutation the caller was told failed.
        if let Some(wal) = &mut self.wal {
            wal.append_insert(&rows)?;
        }
        Ok(InsertOutcome {
            root_pre: offset + 1,
            rows: n,
            offset,
        })
    }

    /// Deletes a whole document by its root `pre` (as returned in
    /// [`InsertOutcome::root_pre`]): the root plus every descendant row is
    /// removed from every shard (and, over a fleet, from both planes of
    /// every party). Returns how many rows were removed.
    pub fn delete_document(&mut self, root_pre: u32) -> Result<u64, CoreError> {
        let loc = self
            .client
            .loc_of(root_pre)?
            .ok_or_else(|| CoreError::Transport(format!("no node with pre={root_pre}")))?;
        if loc.parent != 0 {
            return Err(CoreError::Unsupported(format!(
                "pre={root_pre} is not a document root (parent={}); deletes are whole-document",
                loc.parent
            )));
        }
        let mut pres = vec![root_pre];
        pres.extend(self.client.descendants(loc)?.into_iter().map(|l| l.pre));
        // Every deleted element drops its numeric-plane value row too —
        // idempotent, elements without one are simply skipped — so no
        // orphaned value share outlives its element.
        let numeric: Vec<u32> = pres.iter().map(|&p| numeric_pre(p)).collect();
        pres.extend(numeric);
        let n = self.client.delete_pres(pres.clone())?;
        if let Some(wal) = &mut self.wal {
            wal.append_remove(&pres)?;
        }
        Ok(n)
    }

    /// Replaces the document rooted at `root_pre` with a fresh encode of
    /// `xml` (delete + insert). The replacement gets new `pre` numbers:
    /// `max_pre` is a high-water mark, so `pre`s are never reused and a
    /// client holding an old frontier can never see a reborn node under a
    /// stale number.
    pub fn update_document(
        &mut self,
        root_pre: u32,
        xml: &str,
    ) -> Result<InsertOutcome, CoreError> {
        self.delete_document(root_pre)?;
        self.insert_document(xml)
    }
}

impl<T: Transport + Send> EncryptedDb<ShardRouter<T>> {
    /// Number of shards the table is partitioned across.
    pub fn shards(&self) -> u32 {
        self.client.transport().spec().shards()
    }

    /// Enables or disables speculative wave pipelining: dependent query
    /// waves overlap (the next frontier's expansion rides the current
    /// wave's frames), cutting round trips on chain queries at identical
    /// results. Off by default. See the
    /// [`crate::router::ShardRouter`] module docs.
    pub fn set_speculation(&mut self, enabled: bool) {
        self.client.transport_mut().set_speculation(enabled);
    }
}

impl RemoteMuxDb {
    /// Opens the facade onto a [`crate::transport::serve_tcp_mux`] host
    /// through a shared [`MuxPool`]: every database built on the same pool
    /// multiplexes its query waves over the pool's one socket per shard, so
    /// any number of concurrent clients cost the server a fixed number of
    /// connections. The map and seed stay client-side; the server never
    /// sees them.
    pub fn connect_mux(pool: &MuxPool, map: MapFile, seed: Seed) -> Result<Self, CoreError> {
        let client = ClientFilter::new(ShardRouter::mux(pool), map, seed)?;
        Ok(EncryptedDb {
            client,
            encode_stats: EncodeStats::default(),
            wal: None,
        })
    }
}

/// An [`EncryptedDb`] over an in-process t-of-n fleet: `n` party hosts,
/// each holding only a Shamir share of the data and MAC planes
/// ([`crate::fleet`]).
impl EncryptedDb<ShardRouter<FleetTransport<LocalPartyTransport>>> {
    /// Encodes `xml` and splits it across an in-process `spec.servers`-party
    /// fleet (threshold `spec.threshold`), single data shard per party.
    pub fn encode_fleet(
        xml: &str,
        map: MapFile,
        seed: Seed,
        spec: FleetSpec,
    ) -> Result<Self, CoreError> {
        Self::encode_fleet_sharded(xml, map, seed, spec, 1)
    }

    /// Encodes `xml` across an in-process fleet with `shards` data
    /// partitions per party (each party hosts `2·shards` filters: data +
    /// MAC planes).
    pub fn encode_fleet_sharded(
        xml: &str,
        map: MapFile,
        seed: Seed,
        spec: FleetSpec,
        shards: u32,
    ) -> Result<Self, CoreError> {
        let out = encode_document_fleet(xml, &map, &seed, spec)?;
        Self::from_fleet_output(out, map, seed, shards)
    }

    /// Wraps an already-split fleet encoding in the query facade.
    pub fn from_fleet_output(
        out: FleetEncodeOutput,
        map: MapFile,
        seed: Seed,
        shards: u32,
    ) -> Result<Self, CoreError> {
        let stats = out.stats;
        let router = local_fleet_router(out, &seed, shards, |_, t| t)?;
        let client = ClientFilter::new(router, map, seed)?;
        Ok(EncryptedDb {
            client,
            encode_stats: stats,
            wal: None,
        })
    }
}

impl<T: Transport + Send + 'static> EncryptedDb<ShardRouter<FleetTransport<T>>> {
    /// Installs the resilience policy (bounded retry, hedged
    /// reconstruction) on every fleet pipe. See
    /// [`crate::fleet::ResilienceConfig`]; the per-call deadline is
    /// [`EncryptedDb::set_deadline`].
    pub fn set_resilience(&mut self, cfg: ResilienceConfig) {
        for pipe in self.client.transport_mut().transports_mut() {
            pipe.set_resilience(cfg);
        }
    }

    /// Health snapshot of every party as seen by the first fleet pipe.
    /// Pipes track health independently; with a single data shard (the
    /// default) this is the whole picture.
    pub fn party_status(&self) -> Vec<PartyStatus> {
        self.client
            .transport()
            .transports()
            .first()
            .map(|p| p.party_status())
            .unwrap_or_default()
    }
}

/// An [`EncryptedDb`] over a TCP fleet of party hosts, one [`MuxPool`]
/// per party.
impl EncryptedDb<ShardRouter<FleetTransport<MuxTransport>>> {
    /// Opens the facade onto an `addrs.len()`-party TCP fleet
    /// ([`crate::fleet::connect_fleet_mux`]): one [`MuxPool`] per party;
    /// parties dead at connect are tolerated down to `threshold` live legs,
    /// and every wave reconstructs with MAC verification client-side.
    pub fn connect_fleet_mux(
        addrs: &[String],
        threshold: usize,
        map: MapFile,
        seed: Seed,
    ) -> Result<Self, CoreError> {
        let router = connect_fleet_mux(addrs, threshold, &map, &seed)?;
        let client = ClientFilter::new(router, map, seed)?;
        Ok(EncryptedDb {
            client,
            encode_stats: EncodeStats::default(),
            wal: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> EncryptedDb {
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(33);
        EncryptedDb::encode("<site><a><b/></a><c/></site>", map, seed).unwrap()
    }

    #[test]
    fn query_through_facade() {
        let mut db = demo();
        let out = db
            .query("/site/a/b", EngineKind::Advanced, MatchRule::Equality)
            .unwrap();
        assert_eq!(out.pres(), vec![3]);
        assert_eq!(db.node_count(), 4);
        assert!(db.size_report().data_bytes() > 0);
        assert_eq!(db.encode_stats().elements, 4);
    }

    #[test]
    fn save_load_requery() {
        let db = demo();
        let dir = std::env::temp_dir().join("ssx_core_facade_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.ssxdb");
        db.save(&path).unwrap();

        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(33);
        let mut back = EncryptedDb::load(&path, map, seed).unwrap();
        let out = back
            .query("//b", EngineKind::Simple, MatchRule::Equality)
            .unwrap();
        assert_eq!(out.pres(), vec![3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_facade_matches_single_shard() {
        let map = || MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let xml = "<site><a><b><c/></b></a><a><c/></a><b><a><c/></a></b></site>";
        let mut single = EncryptedDb::encode(xml, map(), Seed::from_test_key(33)).unwrap();
        assert_eq!(single.shards(), 1);
        for shards in [2u32, 4] {
            let mut db =
                EncryptedDb::encode_sharded(xml, map(), Seed::from_test_key(33), shards).unwrap();
            assert_eq!(db.shards(), shards);
            assert_eq!(db.node_count(), single.node_count());
            let r = db.size_report();
            let r1 = single.size_report();
            assert_eq!(r.poly_bytes, r1.poly_bytes);
            assert_eq!(r.rows, r1.rows);
            for q in ["/site/a", "//c", "/site/b//c", "/site/*/c"] {
                for kind in [EngineKind::Simple, EngineKind::Advanced] {
                    for rule in [MatchRule::Containment, MatchRule::Equality] {
                        let a = single.query(q, kind, rule).unwrap();
                        let b = db.query(q, kind, rule).unwrap();
                        assert_eq!(a.pres(), b.pres(), "{q} {kind:?} {rule:?} S={shards}");
                        // Same logical round trips and protocol work.
                        assert_eq!(a.stats.round_trips, b.stats.round_trips, "{q} S={shards}");
                        assert_eq!(a.stats.evaluations(), b.stats.evaluations(), "{q}");
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_save_load_round_trips_any_shard_count() {
        let map = || MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let xml = "<site><a><b/></a><c/></site>";
        let db = EncryptedDb::encode_sharded(xml, map(), Seed::from_test_key(33), 3).unwrap();
        let dir = std::env::temp_dir().join("ssx_core_facade_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db_sharded.ssxdb");
        db.save(&path).unwrap();
        // The file is shard-count independent: load unsharded and re-sharded.
        let mut flat = EncryptedDb::load(&path, map(), Seed::from_test_key(33)).unwrap();
        let mut wide = EncryptedDb::load_sharded(&path, map(), Seed::from_test_key(33), 2).unwrap();
        let a = flat
            .query("//b", EngineKind::Simple, MatchRule::Equality)
            .unwrap();
        let b = wide
            .query("//b", EngineKind::Simple, MatchRule::Equality)
            .unwrap();
        assert_eq!(a.pres(), vec![3]);
        assert_eq!(b.pres(), vec![3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn speculation_through_the_facade_cuts_waves_not_answers() {
        let map = || MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let xml = "<site><a><b><c/></b></a><a><c/></a><b><a><c/></a></b></site>";
        let mut plain = EncryptedDb::encode(xml, map(), Seed::from_test_key(33)).unwrap();
        let mut spec = EncryptedDb::encode(xml, map(), Seed::from_test_key(33)).unwrap();
        spec.set_speculation(true);
        for q in ["/site/a/b/c", "/site/a/c"] {
            let a = plain
                .query(q, EngineKind::Simple, MatchRule::Containment)
                .unwrap();
            let b = spec
                .query(q, EngineKind::Simple, MatchRule::Containment)
                .unwrap();
            assert_eq!(a.pres(), b.pres(), "{q}");
            assert!(
                b.stats.round_trips < a.stats.round_trips,
                "{q}: speculative {} vs plain {}",
                b.stats.round_trips,
                a.stats.round_trips
            );
            assert!(b.stats.speculative_hits > 0, "{q}");
        }
    }

    /// The same facade, two transports: the in-process plane and a remote
    /// host (two databases on one shared pool) answer identically, at the
    /// same wave counts.
    #[test]
    fn remote_facades_match_the_local_plane() {
        use crate::protocol::Request;
        use crate::transport::serve_tcp_mux;
        let map = || MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let xml = "<site><a><b><c/></b></a><a><c/></a><b><a><c/></a></b></site>";
        let shards = 2u32;
        let mut local =
            EncryptedDb::encode_sharded(xml, map(), Seed::from_test_key(33), shards).unwrap();

        let out = crate::encode::encode_document(xml, &map(), &Seed::from_test_key(33)).unwrap();
        let server = ShardedServer::from_table(out.table, out.ring, shards).unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());
        let pool = MuxPool::dial(addr, None).unwrap();
        let mut mux_a = RemoteMuxDb::connect_mux(&pool, map(), Seed::from_test_key(33)).unwrap();
        let mut mux_b = RemoteMuxDb::connect_mux(&pool, map(), Seed::from_test_key(33)).unwrap();
        assert_eq!(mux_a.shards(), shards);

        for q in ["/site/a", "//c", "/site/b//c"] {
            let want = local
                .query(q, EngineKind::Advanced, MatchRule::Equality)
                .unwrap();
            let got = mux_a
                .query(q, EngineKind::Advanced, MatchRule::Equality)
                .unwrap();
            assert_eq!(got.pres(), want.pres(), "{q}");
            assert_eq!(got.stats.round_trips, want.stats.round_trips, "{q}");
            let got = mux_b
                .query(q, EngineKind::Advanced, MatchRule::Equality)
                .unwrap();
            assert_eq!(got.pres(), want.pres(), "{q} (second pooled client)");
        }
        assert_eq!(pool.stray_responses(), 0);

        mux_a
            .client_mut()
            .transport_mut()
            .call(&Request::Shutdown)
            .unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn write_plane_matches_fresh_encode_of_final_document_set() {
        let map = || MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = || Seed::from_test_key(33);
        let doc_a = "<site><a><b/></a><c/></site>";
        let doc_b = "<site><a><b/><b/></a></site>";
        let mut db = EncryptedDb::encode(doc_a, map(), seed()).unwrap();
        let ins = db.insert_document(doc_b).unwrap();
        assert_eq!(
            ins,
            InsertOutcome {
                root_pre: 5,
                rows: 4,
                offset: 4
            }
        );
        assert_eq!(db.node_count(), 8);
        // Drop the original document; only doc B remains, at its offset.
        assert_eq!(db.delete_document(1).unwrap(), 4);
        assert_eq!(db.node_count(), 4);

        // Reference: the same final document set, freshly encoded at the
        // same offset. The mutated store must be bit-identical to it.
        let out = crate::encode::encode_document_at(doc_b, &map(), &seed(), 4).unwrap();
        let mut fresh = EncryptedDb::from_encode_output(out, map(), seed(), 1).unwrap();
        let dir = std::env::temp_dir().join("ssx_core_facade_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let mutated_path = dir.join("write_mutated.ssxdb");
        let fresh_path = dir.join("write_fresh.ssxdb");
        db.save(&mutated_path).unwrap();
        fresh.save(&fresh_path).unwrap();
        assert_eq!(
            std::fs::read(&mutated_path).unwrap(),
            std::fs::read(&fresh_path).unwrap(),
            "mutated store must equal a fresh encode of the final document set"
        );
        for q in ["//b", "/site/a/b", "//a"] {
            for rule in [MatchRule::Containment, MatchRule::Equality] {
                let a = db.query(q, EngineKind::Advanced, rule).unwrap();
                let b = fresh.query(q, EngineKind::Advanced, rule).unwrap();
                assert_eq!(a.pres(), b.pres(), "{q} {rule:?}");
            }
        }
        std::fs::remove_file(&mutated_path).ok();
        std::fs::remove_file(&fresh_path).ok();
    }

    #[test]
    fn queries_span_every_document_in_the_forest() {
        // A store holding two documents (the shape the write plane builds):
        // absolute queries must answer from both, not just the first root.
        let map = || MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = || Seed::from_test_key(33);
        let mut db = EncryptedDb::encode("<site><a><b/></a><c/></site>", map(), seed()).unwrap();
        db.insert_document("<site><a><b/><b/></a></site>").unwrap();
        for kind in [EngineKind::Simple, EngineKind::Advanced] {
            for rule in [MatchRule::Containment, MatchRule::Equality] {
                let site = db.query("/site", kind, rule).unwrap();
                assert_eq!(site.pres(), vec![1, 5], "{kind:?} {rule:?}");
            }
            let b = db.query("//b", kind, MatchRule::Equality).unwrap();
            assert_eq!(b.pres(), vec![3, 7, 8], "{kind:?}");
            let c = db.query("//c", kind, MatchRule::Equality).unwrap();
            assert_eq!(c.pres(), vec![4], "{kind:?}");
        }
    }

    #[test]
    fn update_document_never_reuses_numbering() {
        let map = || MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = || Seed::from_test_key(33);
        let doc_a = "<site><a><b/></a><c/></site>";
        let doc_b = "<site><a><b/><b/></a></site>";
        let mut db = EncryptedDb::encode(doc_a, map(), seed()).unwrap();
        // max_pre is a high-water mark: even though the delete empties the
        // store, the replacement starts past the old block — a stale
        // frontier can never see a reborn node under an old number.
        let ins = db.update_document(1, doc_b).unwrap();
        assert_eq!(ins.root_pre, 5);
        let out = crate::encode::encode_document_at(doc_b, &map(), &seed(), 4).unwrap();
        let mut fresh = EncryptedDb::from_encode_output(out, map(), seed(), 1).unwrap();
        let a = db
            .query("//b", EngineKind::Simple, MatchRule::Equality)
            .unwrap();
        let b = fresh
            .query("//b", EngineKind::Simple, MatchRule::Equality)
            .unwrap();
        assert_eq!(a.pres(), b.pres());
        // Non-roots are refused as delete handles.
        let err = db.delete_document(6).unwrap_err();
        assert!(err.to_string().contains("not a document root"), "{err}");
        // Unknown handles are refused.
        assert!(db.delete_document(99).is_err());
    }

    #[test]
    fn durable_store_recovers_acked_mutations_and_checkpoints() {
        let map = || MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = || Seed::from_test_key(33);
        let doc_a = "<site><a><b/></a><c/></site>";
        let doc_b = "<site><a><b/><b/></a></site>";
        let dir = std::env::temp_dir().join("ssx_core_facade_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("db.ssxdb");
        let walp = dir.join("db.wal");
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&walp).ok();

        {
            // Bootstrap an empty durable store and mutate it, then drop it
            // without checkpointing — the moral equivalent of kill -9: the
            // in-memory table is gone, only snapshot + log survive.
            let (mut db, replay) =
                EncryptedDb::open_durable(&snap, &walp, map(), seed(), 1).unwrap();
            assert_eq!(replay.records, 0);
            assert_eq!(db.node_count(), 0);
            db.insert_document(doc_a).unwrap();
            let b = db.insert_document(doc_b).unwrap();
            db.delete_document(b.root_pre).unwrap();
        }
        assert!(!snap.exists(), "no checkpoint ran");

        let (mut db, replay) = EncryptedDb::open_durable(&snap, &walp, map(), seed(), 1).unwrap();
        assert_eq!(replay.records, 3, "two inserts and a remove replayed");
        assert_eq!(db.node_count(), 4);
        let out = db
            .query("//b", EngineKind::Simple, MatchRule::Equality)
            .unwrap();
        assert_eq!(out.pres(), vec![3]);

        // Checkpoint truncates the log to its header; reopening (at any
        // shard count) loads the snapshot with nothing to replay.
        db.checkpoint(&snap).unwrap();
        assert_eq!(db.wal_mut().unwrap().len_bytes(), 12);
        drop(db);
        let (mut db, replay) = EncryptedDb::open_durable(&snap, &walp, map(), seed(), 2).unwrap();
        assert_eq!(replay.records, 0);
        assert_eq!(
            db.query("//b", EngineKind::Simple, MatchRule::Equality)
                .unwrap()
                .pres(),
            vec![3]
        );
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&walp).ok();
    }

    #[test]
    fn fleet_facade_write_plane_matches_fresh_fleet() {
        let map = || MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = || Seed::from_test_key(33);
        let doc_a = "<site><a><b/></a><c/></site>";
        let doc_b = "<site><a><b/><b/></a></site>";
        let spec = FleetSpec::new(3, 2).unwrap();
        let mut fleet = EncryptedDb::encode_fleet(doc_a, map(), seed(), spec).unwrap();
        let ins = fleet.insert_document(doc_b).unwrap();
        assert_eq!(ins.root_pre, 5);
        assert_eq!(fleet.delete_document(1).unwrap(), 4);
        // A plain store mutated the same way answers identically — the
        // fleet's per-party re-split is invisible to the query plane.
        let mut single = EncryptedDb::encode(doc_a, map(), seed()).unwrap();
        single.insert_document(doc_b).unwrap();
        single.delete_document(1).unwrap();
        for q in ["//b", "/site/a/b"] {
            let a = single
                .query(q, EngineKind::Advanced, MatchRule::Equality)
                .unwrap();
            let b = fleet
                .query(q, EngineKind::Advanced, MatchRule::Equality)
                .unwrap();
            assert_eq!(a.pres(), b.pres(), "{q}");
            assert_eq!(a.stats.round_trips, b.stats.round_trips, "{q}");
        }
    }

    #[test]
    fn aggregates_match_the_oracle_across_shard_counts_and_the_fleet() {
        use crate::reference::reference_aggregate;
        use ssx_xml::Document;
        let map = || MapFile::sequential(83, 1, &["site", "item", "price", "name"]).unwrap();
        let seed = || Seed::from_test_key(41);
        let xml = "<site><item><name>ab</name><price>19</price></item>\
                   <item><price>7</price></item><item><price>30</price></item>\
                   <item><name>cd</name></item></site>";
        let doc = Document::parse(xml).unwrap();
        let cases: &[(&str, Option<(u64, u64)>)] = &[
            ("//price", None),
            ("//price", Some((8, 100))),
            ("/site/item", None),
            ("/site/item/name", Some((0, u64::MAX))),
        ];
        let mut dbs: Vec<(String, EncryptedDb)> = vec![
            (
                "S=1".into(),
                EncryptedDb::encode(xml, map(), seed()).unwrap(),
            ),
            (
                "S=2".into(),
                EncryptedDb::encode_sharded(xml, map(), seed(), 2).unwrap(),
            ),
            (
                "S=4".into(),
                EncryptedDb::encode_sharded(xml, map(), seed(), 4).unwrap(),
            ),
        ];
        let spec = FleetSpec::new(3, 2).unwrap();
        let mut fleet = EncryptedDb::encode_fleet(xml, map(), seed(), spec).unwrap();
        for &(q, range) in cases {
            for rule in [MatchRule::Containment, MatchRule::Equality] {
                let want =
                    reference_aggregate(&doc, &ssx_xpath::parse_query(q).unwrap(), rule, 82, range)
                        .unwrap();
                for kind in [EngineKind::Simple, EngineKind::Advanced] {
                    for (label, db) in dbs.iter_mut() {
                        let count = db.aggregate(q, kind, rule, AggOp::Count, range).unwrap();
                        assert_eq!(count.count, want.count, "{q} {rule:?} {kind:?} {label}");
                        let sum = db.aggregate(q, kind, rule, AggOp::Sum, range).unwrap();
                        assert_eq!(sum.sum, want.sum, "{q} {rule:?} {kind:?} {label}");
                        assert_eq!(sum.contributing, want.contributing, "{q} {label}");
                        let avg = db.aggregate(q, kind, rule, AggOp::Avg, range).unwrap();
                        assert_eq!(avg.value(), want.avg(), "{q} {rule:?} {kind:?} {label}");
                        let expect_waves = if range.is_some() { 2 } else { 1 };
                        assert_eq!(
                            sum.closing_waves, expect_waves,
                            "{q} {label}: waves beyond the walk"
                        );
                    }
                    // The t-of-n fleet answers identically, MAC-verified.
                    let sum = fleet.aggregate(q, kind, rule, AggOp::Sum, range).unwrap();
                    assert_eq!((sum.count, sum.sum), (want.count, want.sum), "{q} fleet");
                }
            }
        }
    }

    #[test]
    fn delete_document_drops_numeric_rows_bit_identically() {
        let map = || MapFile::sequential(83, 1, &["site", "item", "price", "name"]).unwrap();
        let seed = || Seed::from_test_key(41);
        let doc_a = "<site><item><price>11</price></item></site>";
        let doc_b = "<site><item><price>23</price></item><item><name>x</name></item></site>";
        let mut db = EncryptedDb::encode(doc_a, map(), seed()).unwrap();
        db.insert_document(doc_b).unwrap();
        // Deleting doc A must also drop price 11's numeric-plane row.
        db.delete_document(1).unwrap();
        let out = crate::encode::encode_document_at(doc_b, &map(), &seed(), 3).unwrap();
        let fresh = EncryptedDb::from_encode_output(out, map(), seed(), 1).unwrap();
        let dir = std::env::temp_dir().join("ssx_core_facade_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let a_path = dir.join("agg_mutated.ssxdb");
        let b_path = dir.join("agg_fresh.ssxdb");
        db.save(&a_path).unwrap();
        fresh.save(&b_path).unwrap();
        assert_eq!(
            std::fs::read(&a_path).unwrap(),
            std::fs::read(&b_path).unwrap(),
            "numeric rows must come and go with their documents"
        );
        let sum = db
            .aggregate(
                "//price",
                EngineKind::Simple,
                MatchRule::Equality,
                AggOp::Sum,
                None,
            )
            .unwrap();
        assert_eq!((sum.count, sum.sum), (1, 23));
        std::fs::remove_file(&a_path).ok();
        std::fs::remove_file(&b_path).ok();
    }

    #[test]
    fn wrong_map_parameters_rejected_on_load() {
        let db = demo();
        let dir = std::env::temp_dir().join("ssx_core_facade_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db2.ssxdb");
        db.save(&path).unwrap();
        // p = 29 produces a different packed length: a typed error, no panic.
        let wrong_map = MapFile::sequential(29, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(33);
        match EncryptedDb::load(&path, wrong_map, seed) {
            Err(CoreError::Map(msg)) => assert!(msg.contains("polynomial"), "{msg}"),
            other => panic!("expected a Map error, got {:?}", other.map(|_| "db")),
        }
        std::fs::remove_file(&path).ok();
    }
}
