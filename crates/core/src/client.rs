//! The client side of the filter (§5.2).
//!
//! The client holds the two secrets — seed and map — and talks to the server
//! through a [`Transport`]. For a *containment test* it regenerates the
//! node's client share from `(seed, pre)`, evaluates it locally, asks the
//! server for the matching share evaluation, and adds: zero means the tag
//! occurs in the subtree. For an *equality test* it reconstructs the node's
//! and its children's full polynomials and extracts the root of
//! `f / Π children` (§3).

use crate::encode::digits_value;
use crate::error::CoreError;
use crate::map::MapFile;
use crate::protocol::{Request, Response, AGG_FENCE};
use crate::transport::{Transport, TransportStats};
use ssx_poly::{extract_root_evals, random_poly, EvalPoly, Packer, RingCtx, RingPoly, RootOutcome};
use ssx_prg::{node_prg, Seed};
use ssx_store::Loc;
use std::collections::{HashMap, HashSet};

/// Client-side cost counters; the per-query deltas become [`crate::engine::QueryStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Local (client-share) polynomial evaluations.
    pub client_evals: u64,
    /// Server-share evaluations requested.
    pub server_evals: u64,
    /// Containment tests performed.
    pub containment_tests: u64,
    /// Equality tests performed.
    pub equality_tests: u64,
    /// Client shares regenerated from the seed.
    pub shares_regenerated: u64,
    /// Full polynomials fetched from the server.
    pub polys_fetched: u64,
    /// Polynomial reconstructions (share additions).
    pub reconstructions: u64,
}

/// The `ClientFilter`.
pub struct ClientFilter<T: Transport> {
    transport: T,
    ring: RingCtx,
    packer: Packer,
    seed: Seed,
    map: MapFile,
    stats: ClientStats,
    /// Verify equality-test quotients against every evaluation point.
    /// Exact; on by default (tests), disabled in timing runs.
    pub verify_equality: bool,
    /// Cap on sub-requests per batch frame (`None` = one frame per
    /// frontier). `Some(1)` reproduces the unbatched one-request-per-round-
    /// trip wire shape — the ablation baseline.
    batch_limit: Option<usize>,
}

impl<T: Transport> ClientFilter<T> {
    /// Builds a client over `transport` with the client secrets.
    pub fn new(transport: T, map: MapFile, seed: Seed) -> Result<Self, CoreError> {
        let ring = RingCtx::new(map.p(), map.e())?;
        let packer = Packer::new(&ring);
        Ok(ClientFilter {
            transport,
            ring,
            packer,
            seed,
            map,
            stats: ClientStats::default(),
            verify_equality: true,
            batch_limit: None,
        })
    }

    /// Caps how many sub-requests travel in one batch frame; `None` (the
    /// default) batches a whole frontier per round trip, `Some(1)` degrades
    /// to the unbatched protocol (the round-trip ablation baseline).
    pub fn set_batch_limit(&mut self, limit: Option<usize>) {
        self.batch_limit = limit.map(|l| l.max(1));
    }

    /// The configured batch cap.
    pub fn batch_limit(&self) -> Option<usize> {
        self.batch_limit
    }

    /// Issues `reqs` in as few round trips as the batch cap allows.
    fn call_chunked(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CoreError> {
        let chunk = self
            .batch_limit
            .unwrap_or(usize::MAX)
            .min(reqs.len().max(1));
        let mut out = Vec::with_capacity(reqs.len());
        for group in reqs.chunks(chunk) {
            out.extend(self.transport.call_batch(group)?);
        }
        Ok(out)
    }

    /// The tag map (client secret).
    pub fn map(&self) -> &MapFile {
        &self.map
    }

    /// The PRG seed (client secret) — the write plane re-encodes new
    /// documents under it so their shares extend the same keyspace.
    pub fn seed(&self) -> &Seed {
        &self.seed
    }

    /// The ring.
    pub fn ring(&self) -> &RingCtx {
        &self.ring
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Transport counter snapshot.
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Access to the transport (e.g. `LocalTransport::server`).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable transport access.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Maps a tag name to its field value.
    pub fn value_of(&self, name: &str) -> Result<u64, CoreError> {
        self.map.value(name)
    }

    // ---- structure -------------------------------------------------------

    /// All document roots in document order. A freshly encoded store has
    /// one; the write plane grows a forest, and queries start from every
    /// root.
    pub fn roots(&mut self) -> Result<Vec<Loc>, CoreError> {
        match self.transport.call(&Request::Roots)? {
            Response::Locs(ls) => Ok(ls),
            other => Err(unexpected(other)),
        }
    }

    /// Location of a node by `pre`.
    pub fn loc_of(&mut self, pre: u32) -> Result<Option<Loc>, CoreError> {
        match self.transport.call(&Request::GetLoc { pre })? {
            Response::MaybeLoc(l) => Ok(l),
            other => Err(unexpected(other)),
        }
    }

    /// Children of a node.
    pub fn children(&mut self, pre: u32) -> Result<Vec<Loc>, CoreError> {
        match self.transport.call(&Request::Children { pre })? {
            Response::Locs(ls) => Ok(ls),
            other => Err(unexpected(other)),
        }
    }

    /// Descendants of a node.
    pub fn descendants(&mut self, loc: Loc) -> Result<Vec<Loc>, CoreError> {
        match self.transport.call(&Request::Descendants { loc })? {
            Response::Locs(ls) => Ok(ls),
            other => Err(unexpected(other)),
        }
    }

    /// Number of stored nodes.
    pub fn count(&mut self) -> Result<u64, CoreError> {
        match self.transport.call(&Request::Count)? {
            Response::Count(n) => Ok(n),
            other => Err(unexpected(other)),
        }
    }

    // ---- batched structure fetches ----------------------------------------
    //
    // One logical round trip for a whole frontier: the engines' traversal
    // loops issue these instead of per-node calls, so a step costs waves,
    // not nodes. Over a [`crate::router::ShardRouter`] each batch is further
    // split across shards and served concurrently.

    /// Children of every node in `pres`, one list per node, one batch.
    pub fn children_many(&mut self, pres: &[u32]) -> Result<Vec<Vec<Loc>>, CoreError> {
        let reqs: Vec<Request> = pres.iter().map(|&pre| Request::Children { pre }).collect();
        self.call_chunked(&reqs)?
            .into_iter()
            .map(|resp| match resp {
                Response::Locs(ls) => Ok(ls),
                other => Err(unexpected(other)),
            })
            .collect()
    }

    /// Descendants of every subtree root in `locs`, one list per root.
    pub fn descendants_many(&mut self, locs: &[Loc]) -> Result<Vec<Vec<Loc>>, CoreError> {
        let reqs: Vec<Request> = locs
            .iter()
            .map(|&loc| Request::Descendants { loc })
            .collect();
        self.call_chunked(&reqs)?
            .into_iter()
            .map(|resp| match resp {
                Response::Locs(ls) => Ok(ls),
                other => Err(unexpected(other)),
            })
            .collect()
    }

    /// Locations of many nodes (`None` slots for unknown `pre`s).
    pub fn locs_of_many(&mut self, pres: &[u32]) -> Result<Vec<Option<Loc>>, CoreError> {
        let reqs: Vec<Request> = pres.iter().map(|&pre| Request::GetLoc { pre }).collect();
        self.call_chunked(&reqs)?
            .into_iter()
            .map(|resp| match resp {
                Response::MaybeLoc(l) => Ok(l),
                other => Err(unexpected(other)),
            })
            .collect()
    }

    // ---- tests -----------------------------------------------------------

    /// Containment test: does the subtree rooted at `loc` contain a node
    /// with tag value `value`?
    pub fn containment(&mut self, loc: Loc, value: u64) -> Result<bool, CoreError> {
        Ok(self.containment_many(&[loc], &[value])?[0])
    }

    /// Batched containment test: does each subtree in `locs` contain a node
    /// of *every* tag value in `points`? One round trip for the whole
    /// candidate set at every point — one `EvalMany` per point in one batch
    /// (the server evaluates its shares, the client its shares, sums
    /// decide). Each client share is regenerated once and evaluated at every
    /// point, and every node is tested at every point: a node that fails an
    /// early point still costs its later evaluations. A
    /// [`ClientFilter::set_batch_limit`] cap applies here too: at most
    /// `limit` nodes per `EvalMany` and `limit` of those per round trip
    /// (`Some(1)` = the per-node, per-point protocol).
    pub fn containment_many(
        &mut self,
        locs: &[Loc],
        points: &[u64],
    ) -> Result<Vec<bool>, CoreError> {
        Ok(self
            .containment_and_tags(locs, points, &[], &[], &mut Answers::new())?
            .0)
    }

    /// Equality test: is the tag of the node at `loc` exactly `value`?
    ///
    /// Reconstructs the node's polynomial and all its children's, divides,
    /// and compares the extracted root (§3, §5.2). Costs one `Children` and
    /// one `GetPolys` round trip plus `1 + #children` share regenerations.
    pub fn equality(&mut self, loc: Loc, value: u64) -> Result<bool, CoreError> {
        Ok(self.equality_many(&[loc], value)?[0])
    }

    /// Batched equality test: the `Children` lookups of the whole candidate
    /// set travel in one round trip, the `GetPolys` fetches in a second —
    /// two waves for any number of candidates instead of two per candidate.
    /// Reconstruction work and counters are identical to the one-at-a-time
    /// path. Every candidate costs a reconstruction of itself and each of
    /// its children. The simple engine runs it on every candidate; the
    /// advanced engine's strict steps do not call it: they reconstruct
    /// only the nodes that contain every name left, in the wave that tests
    /// the next step's candidates.
    pub fn equality_many(&mut self, locs: &[Loc], value: u64) -> Result<Vec<bool>, CoreError> {
        let tags = self.tag_values_many(locs)?;
        Ok(tags.into_iter().map(|t| t == Some(value)).collect())
    }

    /// Recovers the tag *value* of each node (`None` never occurs today —
    /// indeterminate outcomes are errors instead). Shared by the equality
    /// tests and diagnostics.
    fn tag_values_many(&mut self, locs: &[Loc]) -> Result<Vec<Option<u64>>, CoreError> {
        // Wave 1: every candidate's children; wave 2: the polynomials.
        let children = self.children_many(&locs.iter().map(|l| l.pre).collect::<Vec<_>>())?;
        Ok(self
            .containment_and_tags(&[], &[], locs, &children, &mut Answers::new())?
            .1)
    }

    /// Two jobs in one round trip: the containment test of `tested` at
    /// every point (as [`ClientFilter::containment_many`]) and the tag value
    /// of every node in `heads`, reconstructed from its polynomial family —
    /// itself and `children[i]`, which the caller has already fetched (as
    /// [`ClientFilter::equality_many`] does in its first wave). The strict
    /// advanced engine tests one step's candidates while it reconstructs
    /// the nodes they hang from.
    ///
    /// `answers` records every (pre, point) containment answer: a pair it
    /// holds is answered from it, and every pair asked is added to it, so a
    /// caller that keeps one record for a whole op never asks the server
    /// about a node at a point twice. Callers that test only once pass an
    /// empty record. Nothing left to ask and nothing to reconstruct costs
    /// no round trip.
    pub(crate) fn containment_and_tags(
        &mut self,
        tested: &[Loc],
        points: &[u64],
        heads: &[Loc],
        children: &[Vec<Loc>],
        answers: &mut Answers,
    ) -> Result<(Vec<bool>, Vec<Option<u64>>), CoreError> {
        let families: Vec<Vec<u32>> = heads
            .iter()
            .zip(children)
            .map(|(loc, kids)| {
                let mut pres = Vec::with_capacity(kids.len() + 1);
                pres.push(loc.pre);
                pres.extend(kids.iter().map(|l| l.pre));
                pres
            })
            .collect();
        let asks = Asks::new(tested, points, answers);
        let mut reqs = self.containment_requests(&asks);
        let evals = reqs.len();
        reqs.extend(
            families
                .iter()
                .map(|pres| Request::GetPolys { pres: pres.clone() }),
        );
        let mut responses = self.call_chunked(&reqs)?;
        if responses.len() != reqs.len() {
            return Err(CoreError::Transport("batch length mismatch".into()));
        }
        let polys = responses.split_off(evals);
        self.record_containment(&asks, responses, answers)?;
        let contains = tested
            .iter()
            .map(|l| points.iter().all(|&point| answers[&(l.pre, point)]))
            .collect();
        Ok((contains, self.reconstruct_tags(heads, &families, polys)?))
    }

    /// The `EvalMany` requests for `asks`, point-major: at most `limit`
    /// nodes per request under a batch cap. None when nothing is asked.
    fn containment_requests(&self, asks: &Asks) -> Vec<Request> {
        let limit = self.batch_limit.unwrap_or(usize::MAX).max(1);
        asks.points
            .iter()
            .flat_map(|(point, pres)| {
                pres.chunks(limit).map(move |chunk| Request::EvalMany {
                    pres: chunk.to_vec(),
                    point: *point,
                })
            })
            .collect()
    }

    /// Decides every asked pair from the server's answers to
    /// `containment_requests` and records it: the node's subtree contains
    /// the point when the client + server share sum is zero. Each asked
    /// node's client share is regenerated once, whatever its points.
    fn record_containment(
        &mut self,
        asks: &Asks,
        responses: Vec<Response>,
        answers: &mut Answers,
    ) -> Result<(), CoreError> {
        let mut server_vals = Vec::new();
        for resp in responses {
            match resp {
                Response::Values(vs) => server_vals.extend(vs),
                other => return Err(unexpected(other)),
            }
        }
        let evals: usize = asks.points.iter().map(|(_, pres)| pres.len()).sum();
        if server_vals.len() != evals {
            return Err(CoreError::Transport("EvalMany length mismatch".into()));
        }
        self.stats.server_evals += evals as u64;
        self.stats.client_evals += evals as u64;
        self.stats.containment_tests += evals as u64;
        // The answers are point-major, and each point's nodes keep the order
        // of `asks.nodes`: one pass over those, with a cursor per point,
        // meets every pair of a node together.
        let mut rest = server_vals.as_slice();
        let mut cursors: Vec<_> = asks
            .points
            .iter()
            .map(|(point, pres)| {
                let (vals, tail) = rest.split_at(pres.len());
                rest = tail;
                (*point, pres.iter().zip(vals).peekable())
            })
            .collect();
        let field = self.ring.field().clone();
        for &pre in &asks.nodes {
            let share = self.client_share(pre);
            for (point, pairs) in cursors.iter_mut() {
                if let Some((_, &server)) = pairs.next_if(|(&asked, _)| asked == pre) {
                    let sum = field.add(self.ring.eval(&share, *point), server);
                    answers.insert((pre, *point), sum == 0);
                }
            }
        }
        Ok(())
    }

    /// Reconstructs each head's tag value from the `GetPolys` answers for
    /// its polynomial family (`families[i]`: the head's `pre`, then its
    /// children's).
    fn reconstruct_tags(
        &mut self,
        locs: &[Loc],
        families: &[Vec<u32>],
        responses: Vec<Response>,
    ) -> Result<Vec<Option<u64>>, CoreError> {
        self.stats.equality_tests += locs.len() as u64;
        let mut out = Vec::with_capacity(locs.len());
        for ((loc, pres), resp) in locs.iter().zip(families).zip(responses) {
            let polys = match resp {
                Response::Polys(ps) => ps,
                Response::Err(e) => return Err(CoreError::Transport(e)),
                other => return Err(unexpected(other)),
            };
            if polys.len() != pres.len() {
                return Err(CoreError::Transport("GetPolys length mismatch".into()));
            }
            self.stats.polys_fetched += polys.len() as u64;
            // Reconstruct the node polynomial and the product of its
            // children in the evaluation domain. Per child the dominant
            // cost stays O(n²) — the wire format is coefficient-domain, so
            // each dense reconstructed sum pays one forward transform — but
            // the transform is table-ops cheap, the fold itself is O(n)
            // pointwise, and verified root extraction drops from an O(n²)
            // ring multiply to O(n) component checks.
            let f = self.reconstruct_node_evals(pres[0], &polys[0])?;
            let mut g = self.ring.evals_one();
            for (pre, packed) in pres[1..].iter().zip(&polys[1..]) {
                let child = self.reconstruct_node_evals(*pre, packed)?;
                self.ring.eval_mul_assign(&mut g, &child);
            }
            out.push(
                match extract_root_evals(&self.ring, &f, &g, self.verify_equality) {
                    RootOutcome::Root(t) => Some(t),
                    RootOutcome::Inconsistent => {
                        return Err(CoreError::Corrupt(format!(
                            "node pre={} does not factor as (x - t) * children",
                            loc.pre
                        )))
                    }
                    RootOutcome::Indeterminate => {
                        return Err(CoreError::Indeterminate { pre: loc.pre })
                    }
                },
            );
        }
        Ok(out)
    }

    /// Decrypts the tag value of a node — only possible with the secrets;
    /// used by examples to show what the client can do that the server
    /// cannot.
    pub fn reveal_tag_value(&mut self, loc: Loc) -> Result<u64, CoreError> {
        self.tag_values_many(&[loc])?[0].ok_or(CoreError::Indeterminate { pre: loc.pre })
    }

    /// Reconstructs `server + client` for one node and lifts it into the
    /// evaluation domain (the representation the equality test runs in).
    fn reconstruct_node_evals(&mut self, pre: u32, packed: &[u8]) -> Result<EvalPoly, CoreError> {
        let mut sum = self.packer.unpack_radix(&self.ring, packed)?;
        let client = self.client_share(pre);
        self.ring.add_assign(&mut sum, &client);
        self.stats.reconstructions += 1;
        Ok(self.ring.to_evals(&sum))
    }

    /// Regenerates the client share of node `pre` from the seed.
    fn client_share(&mut self, pre: u32) -> RingPoly {
        self.stats.shares_regenerated += 1;
        let mut prg = node_prg(&self.seed, pre as u64);
        random_poly(&self.ring, &mut prg)
    }

    // ---- writes -----------------------------------------------------------

    /// Inserts pre-split server-share rows (the write plane's wire unit).
    /// Over a sharded router the rows fan to their owning shards; over a
    /// fleet each row is re-split per party. Returns how many rows were
    /// applied.
    pub fn insert_rows(&mut self, rows: Vec<(Loc, Vec<u8>)>) -> Result<u64, CoreError> {
        match self.transport.call(&Request::Insert { rows })? {
            Response::Count(n) => Ok(n),
            other => Err(unexpected(other)),
        }
    }

    /// Deletes rows by `pre` (idempotent: missing `pre`s are skipped).
    /// Returns how many rows were removed.
    pub fn delete_pres(&mut self, pres: Vec<u32>) -> Result<u64, CoreError> {
        match self.transport.call(&Request::Delete { pres })? {
            Response::Count(n) => Ok(n),
            other => Err(unexpected(other)),
        }
    }

    /// The highest `pre` the store holds (0 when empty) — the write
    /// plane's offset-allocation handshake: new documents are encoded at
    /// `offset = max_pre` so their numbering extends the forest.
    pub fn max_pre(&mut self) -> Result<u32, CoreError> {
        match self.transport.call(&Request::MaxPre)? {
            Response::Count(n) => Ok(n as u32),
            other => Err(unexpected(other)),
        }
    }

    // ---- the aggregation plane --------------------------------------------
    //
    // COUNT/SUM/AVG primitives. The orchestration (predicate walk, range
    // filtering, retry-on-conflict) lives in [`crate::aggregate`]; this
    // layer owns the protocol shape and the share arithmetic.

    /// How many data shards the endpoint spreads rows across (1 for a bare
    /// server). Aggregate closing frames must be split by the public
    /// `(pre − 1) mod S` partition because every shard fences on its own
    /// epoch; a router answers this locally, so discovery is free.
    pub fn shard_count(&mut self) -> Result<u32, CoreError> {
        match self.transport.call(&Request::ShardCount)? {
            Response::Count(n) => Ok(n as u32),
            other => Err(unexpected(other)),
        }
    }

    /// Snapshot wave: the document roots and every shard's store epoch in
    /// one batch. The epochs are the aggregate's fence — the closing wave
    /// replays them, and any interleaved write becomes a typed
    /// [`CoreError::EpochConflict`] instead of a silently mixed answer.
    pub fn roots_with_epochs(&mut self) -> Result<(Vec<Loc>, Vec<u64>), CoreError> {
        let mut resps = self
            .transport
            .call_batch(&[Request::Roots, Request::Epoch])?;
        if resps.len() != 2 {
            return Err(CoreError::Transport(
                "snapshot batch length mismatch".into(),
            ));
        }
        let epochs = match resps.pop().expect("length checked") {
            // A bare server answers its single epoch; a router keeps the
            // per-shard epochs separate, in shard order.
            Response::Count(e) => vec![e],
            Response::Values(es) => es,
            Response::Err(e) => return Err(CoreError::Transport(e)),
            other => return Err(unexpected(other)),
        };
        let roots = match resps.pop().expect("length checked") {
            Response::Locs(ls) => ls,
            Response::Err(e) => return Err(CoreError::Transport(e)),
            other => return Err(unexpected(other)),
        };
        Ok((roots, epochs))
    }

    /// One aggregate wave: per-shard [`Request::Agg`] frames in a single
    /// batch, answers in frame order. A fence refusal — a write landed
    /// since the epoch snapshot — surfaces as the typed
    /// [`CoreError::EpochConflict`] so callers can retry from a fresh
    /// snapshot instead of mixing two store states.
    #[allow(clippy::type_complexity)]
    pub fn agg_wave(
        &mut self,
        frames: Vec<Request>,
    ) -> Result<Vec<(Vec<u32>, Vec<Vec<u8>>)>, CoreError> {
        if frames.is_empty() {
            return Ok(Vec::new());
        }
        self.transport
            .call_batch(&frames)?
            .into_iter()
            .map(|resp| match resp {
                Response::Agg { found, partials } => Ok((found, partials)),
                Response::Err(e) if e.starts_with(AGG_FENCE) => Err(CoreError::EpochConflict(e)),
                Response::Err(e) => Err(CoreError::Transport(e)),
                other => Err(unexpected(other)),
            })
            .collect()
    }

    /// Reconstructs one grouped partial: unpacks the server-side pointwise
    /// share-sum, adds the regenerated client share of every group member,
    /// and reads the digit encoding back out as an integer (carries
    /// applied). Exact by construction — a group never exceeds `q − 1`
    /// rows, so no digit sum wraps the field.
    pub fn group_total(&mut self, group: &[u32], partial: &[u8]) -> Result<u128, CoreError> {
        let mut sum = self.packer.unpack_radix(&self.ring, partial)?;
        for &pre in group {
            let share = self.client_share(pre);
            self.ring.add_assign(&mut sum, &share);
        }
        self.stats.reconstructions += 1;
        digits_value(sum.coeffs())
    }

    /// The reconstructed value of a single numeric row (an `AGG_FETCH`
    /// answer): a group of one, narrowed back to the `u64` value domain.
    pub fn numeric_value(&mut self, pre: u32, packed: &[u8]) -> Result<u64, CoreError> {
        let v = self.group_total(&[pre], packed)?;
        u64::try_from(v)
            .map_err(|_| CoreError::Corrupt(format!("numeric row pre={pre} decodes beyond u64")))
    }
}

/// Every (pre, point) containment answer one op has had: the subtree of
/// `pre` contains the tag value `point`.
pub(crate) type Answers = HashMap<(u32, u64), bool>;

/// The (pre, point) pairs of one containment test that its record does not
/// hold yet.
struct Asks {
    /// Every node asked at some point, once each, in the order tested.
    nodes: Vec<u32>,
    /// Per point, the nodes asked at it, in the same order. Points with
    /// nothing to ask are left out.
    points: Vec<(u64, Vec<u32>)>,
}

impl Asks {
    fn new(tested: &[Loc], points: &[u64], answers: &Answers) -> Asks {
        let mut seen = HashSet::with_capacity(tested.len());
        let asked = |pre: u32, point: u64| !answers.contains_key(&(pre, point));
        let nodes: Vec<u32> = tested
            .iter()
            .map(|l| l.pre)
            .filter(|&pre| points.iter().any(|&point| asked(pre, point)) && seen.insert(pre))
            .collect();
        let points = points
            .iter()
            .map(|&point| {
                let pres: Vec<u32> = nodes
                    .iter()
                    .copied()
                    .filter(|&pre| asked(pre, point))
                    .collect();
                (point, pres)
            })
            .filter(|(_, pres)| !pres.is_empty())
            .collect();
        Asks { nodes, points }
    }
}

fn unexpected(resp: Response) -> CoreError {
    match resp {
        Response::Err(e) => CoreError::Transport(e),
        other => CoreError::Transport(format!("unexpected response {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_document;
    use crate::server::ServerFilter;
    use crate::transport::LocalTransport;

    fn client() -> ClientFilter<LocalTransport> {
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(11);
        let out = encode_document("<site><a><b/><b/></a><c/></site>", &map, &seed).unwrap();
        let server = ServerFilter::new(out.table, out.ring);
        ClientFilter::new(LocalTransport::new(server), map, seed).unwrap()
    }

    #[test]
    fn containment_semantics() {
        let mut c = client();
        let root = c.roots().unwrap()[0];
        let va = c.value_of("a").unwrap();
        let vb = c.value_of("b").unwrap();
        let vc = c.value_of("c").unwrap();
        // Root contains everything present.
        assert!(c.containment(root, va).unwrap());
        assert!(c.containment(root, vb).unwrap());
        assert!(c.containment(root, vc).unwrap());
        // Subtree <a> contains b but not c.
        let a = c.children(root.pre).unwrap()[0];
        assert!(c.containment(a, vb).unwrap());
        assert!(!c.containment(a, vc).unwrap());
        // Leaf c contains only itself.
        let cnode = c.children(root.pre).unwrap()[1];
        assert!(c.containment(cnode, vc).unwrap());
        assert!(!c.containment(cnode, va).unwrap());
    }

    #[test]
    fn equality_semantics() {
        let mut c = client();
        let root = c.roots().unwrap()[0];
        let vsite = c.value_of("site").unwrap();
        let va = c.value_of("a").unwrap();
        assert!(c.equality(root, vsite).unwrap());
        assert!(
            !c.equality(root, va).unwrap(),
            "root contains a but is not a"
        );
        let a = c.children(root.pre).unwrap()[0];
        assert!(c.equality(a, va).unwrap());
        // reveal_tag_value decrypts the exact tag.
        assert_eq!(c.reveal_tag_value(a).unwrap(), va);
    }

    #[test]
    fn batched_containment_matches_single() {
        let mut c = client();
        let root = c.roots().unwrap()[0];
        let all = {
            let mut v = vec![root];
            v.extend(c.descendants(root).unwrap());
            v
        };
        let vb = c.value_of("b").unwrap();
        let batched = c.containment_many(&all, &[vb]).unwrap();
        for (loc, &b) in all.iter().zip(&batched) {
            assert_eq!(c.containment(*loc, vb).unwrap(), b, "pre={}", loc.pre);
        }
    }

    #[test]
    fn stats_track_costs() {
        let mut c = client();
        let root = c.roots().unwrap()[0];
        let va = c.value_of("a").unwrap();
        c.containment(root, va).unwrap();
        let s = c.stats();
        assert_eq!(s.containment_tests, 1);
        assert_eq!(s.client_evals, 1);
        assert_eq!(s.server_evals, 1);
        c.equality(root, va).unwrap();
        let s = c.stats();
        assert_eq!(s.equality_tests, 1);
        // Root has 2 children: 3 polys fetched, 3 reconstructions.
        assert_eq!(s.polys_fetched, 3);
        assert_eq!(s.reconstructions, 3);
    }

    #[test]
    fn batched_structure_fetches_match_singles() {
        let mut c = client();
        let root = c.roots().unwrap()[0];
        let all = {
            let mut v = vec![root];
            v.extend(c.descendants(root).unwrap());
            v
        };
        let pres: Vec<u32> = all.iter().map(|l| l.pre).collect();
        let before = c.transport_stats().round_trips;
        let many = c.children_many(&pres).unwrap();
        assert_eq!(
            c.transport_stats().round_trips - before,
            1,
            "one wave for the whole frontier"
        );
        for (pre, kids) in pres.iter().zip(&many) {
            assert_eq!(kids, &c.children(*pre).unwrap(), "pre={pre}");
        }
        let many_desc = c.descendants_many(&all).unwrap();
        for (loc, desc) in all.iter().zip(&many_desc) {
            assert_eq!(desc, &c.descendants(*loc).unwrap(), "pre={}", loc.pre);
        }
        let locs = c.locs_of_many(&[1, 999, 3]).unwrap();
        assert_eq!(locs[0].unwrap().pre, 1);
        assert!(locs[1].is_none());
        assert_eq!(locs[2].unwrap().pre, 3);
    }

    #[test]
    fn batch_limit_trades_round_trips_not_answers() {
        let mut batched = client();
        let mut unbatched = client();
        unbatched.set_batch_limit(Some(1));
        assert_eq!(unbatched.batch_limit(), Some(1));
        let pres: Vec<u32> = (1..=5).collect();
        let b0 = batched.transport_stats().round_trips;
        let u0 = unbatched.transport_stats().round_trips;
        let a = batched.children_many(&pres).unwrap();
        let b = unbatched.children_many(&pres).unwrap();
        assert_eq!(a, b, "batching is invisible in the answers");
        assert_eq!(batched.transport_stats().round_trips - b0, 1);
        assert_eq!(
            unbatched.transport_stats().round_trips - u0,
            5,
            "limit 1 = the old one-request-per-round-trip shape"
        );
        assert_eq!(batched.transport_stats().batched_requests, 5);
        assert_eq!(unbatched.transport_stats().batched_requests, 0);
    }

    #[test]
    fn equality_many_matches_sequential() {
        let mut c = client();
        let root = c.roots().unwrap()[0];
        let all = {
            let mut v = vec![root];
            v.extend(c.descendants(root).unwrap());
            v
        };
        let vb = c.value_of("b").unwrap();
        let before = c.transport_stats().round_trips;
        let many = c.equality_many(&all, vb).unwrap();
        let waves = c.transport_stats().round_trips - before;
        assert_eq!(waves, 2, "children wave + polys wave");
        let mut fresh = client();
        for (loc, &m) in all.iter().zip(&many) {
            assert_eq!(fresh.equality(*loc, vb).unwrap(), m, "pre={}", loc.pre);
        }
        // Same protocol work per candidate, fewer round trips.
        assert_eq!(c.stats().equality_tests, all.len() as u64);
        assert_eq!(c.stats().polys_fetched, fresh.stats().polys_fetched);
    }

    #[test]
    fn writes_pass_through() {
        let mut c = client();
        let n0 = c.count().unwrap();

        // A decodable packed polynomial for the new row.
        let poly = {
            let ring = c.ring().clone();
            let q = ring.field().order();
            let mut x = 0xD00Du64;
            let coeffs = (0..ring.len())
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % q
                })
                .collect();
            Packer::new(&ring).pack_radix(&ring.poly_from_coeffs(coeffs).unwrap())
        };
        let loc = Loc {
            pre: 40,
            post: 40,
            parent: 0,
        };
        assert_eq!(c.insert_rows(vec![(loc, poly)]).unwrap(), 1);
        assert_eq!(c.count().unwrap(), n0 + 1);
        assert_eq!(c.max_pre().unwrap(), 40);
        assert_eq!(c.delete_pres(vec![40, 77]).unwrap(), 1);
        assert_eq!(c.count().unwrap(), n0);
    }

    #[test]
    fn wrong_seed_breaks_tests() {
        // A client with the wrong seed regenerates garbage shares: the
        // containment test of a *present* tag fails with overwhelming
        // probability — the data is meaningless without the key.
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let good = Seed::from_test_key(11);
        let bad = Seed::from_test_key(12);
        let out = encode_document("<site><a><b/><b/></a><c/></site>", &map, &good).unwrap();
        let server = ServerFilter::new(out.table, out.ring);
        let mut c = ClientFilter::new(LocalTransport::new(server), map, bad).unwrap();
        let root = c.roots().unwrap()[0];
        let vsite = c.value_of("site").unwrap();
        assert!(
            !c.containment(root, vsite).unwrap(),
            "wrong seed must not decrypt"
        );
        assert!(
            c.equality(root, vsite).is_err(),
            "reconstruction is inconsistent"
        );
    }
}
