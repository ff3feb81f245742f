//! The streaming encoder — the paper's `MySQLEncode` (§5.1).
//!
//! Consumes SAX events with `O(depth)` memory: each open element keeps one
//! accumulator polynomial (the ring product of its finished children). When
//! an element closes, its polynomial `f = (x − map(tag)) · acc` is computed,
//! split into a PRG client share and a server share, and the server share is
//! stored as a `(pre, post, parent, poly)` row. The client share is
//! discarded — it is regenerated from `(seed, pre)` at query time.
//!
//! The accumulators live in the **evaluation domain** ([`ssx_poly::EvalPoly`]):
//! folding a finished child into its parent and applying `(x − map(tag))`
//! are both `O(q)` pointwise passes instead of `O(q²)` convolutions. The
//! polynomial returns to coefficient form only at the wire/storage boundary
//! (one inverse transform per node, just before the share split), so the
//! packed bytes are bit-identical to the coefficient-domain encoding.

use crate::error::CoreError;
use crate::map::MapFile;
use ssx_poly::{random_poly_into, EvalPoly, Packer, RingCtx, RingPoly};
use ssx_prg::{node_prg, node_prg_from_digest, seed_digest, Seed};
use ssx_store::{Loc, Row, Table, NUM_PLANE_BASE};
use ssx_xml::{Document, NodeKind, PullParser, XmlToken};
use std::time::{Duration, Instant};

/// Numeric-plane row id of element `pre` — where the element's integer
/// value share lives, when it has one.
pub const fn numeric_pre(pre: u32) -> u32 {
    NUM_PLANE_BASE + pre
}

/// How many value bits the numeric-plane encoding can carry: one base-2
/// digit per ring coefficient, capped at the `u64` value domain.
pub fn numeric_capacity_bits(ring_len: usize) -> u32 {
    ring_len.min(64) as u32
}

/// The shared "is this element text a numeric value?" rule, used identically
/// by the encoder and the plaintext oracle so the two planes can never
/// disagree: trimmed, non-empty, ASCII digits only, parses as `u64`, and
/// fits the ring's digit capacity. Anything else — signs, decimals, digit
/// runs split by entities or child nodes — is plain text to the base scheme.
pub fn parse_numeric_text(text: &str, ring_len: usize) -> Option<u64> {
    let t = text.trim();
    if t.is_empty() || !t.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let v: u64 = t.parse().ok()?;
    let bits = numeric_capacity_bits(ring_len);
    if bits < 64 && v >= 1u64 << bits {
        return None;
    }
    Some(v)
}

/// The plaintext numeric-plane polynomial of `value`: coefficient `i` is bit
/// `i` of the value. Bits are the whole trick — a pointwise sum of up to
/// `q − 1` such rows keeps every digit sum below `q`, so grouped share-sums
/// reconstruct *exactly* and the client rebuilds the true total with carries
/// in ordinary integers.
pub fn numeric_digits(ring: &RingCtx, value: u64) -> RingPoly {
    let coeffs = (0..ring.len())
        .map(|i| if i < 64 { (value >> i) & 1 } else { 0 })
        .collect();
    ring.poly_from_coeffs(coeffs).expect("bits are < q")
}

/// Inverse of [`numeric_digits`] generalised to digit *sums*: evaluates
/// `Σ cᵢ·2ⁱ` with carries. Fails (typed, never wrapping) if a hostile
/// coefficient pattern would overflow — honest digit sums of `≤ q − 1` rows
/// of `≤ 64`-bit values fit `u128` with room to spare.
pub fn digits_value(coeffs: &[u64]) -> Result<u128, CoreError> {
    let mut total: u128 = 0;
    for (i, &c) in coeffs.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let term = 1u128
            .checked_shl(i as u32)
            .and_then(|p| p.checked_mul(c as u128))
            .ok_or_else(|| CoreError::Corrupt("numeric digit sum overflows u128".into()))?;
        total = total
            .checked_add(term)
            .ok_or_else(|| CoreError::Corrupt("numeric digit sum overflows u128".into()))?;
    }
    Ok(total)
}

/// Encoding cost metrics (the Fig 4 time series).
#[derive(Clone, Copy, Debug, Default)]
pub struct EncodeStats {
    /// Elements encoded (rows produced).
    pub elements: usize,
    /// Input document size in bytes.
    pub input_bytes: usize,
    /// Wall-clock encode time.
    pub elapsed: Duration,
    /// Maximum open-element depth observed (the encoder's memory bound).
    pub max_depth: usize,
}

/// Result of an encoding run: the filled server table plus the shared
/// context needed to query it.
#[derive(Debug)]
pub struct EncodeOutput {
    /// The server-side table (server shares only).
    pub table: Table,
    /// The ring both sides compute in.
    pub ring: RingCtx,
    /// Packer matching the table's polynomial payload.
    pub packer: Packer,
    /// Cost metrics.
    pub stats: EncodeStats,
}

/// Per-open-element numeric-text state: one clean digit run makes a value,
/// anything else (mixed content, split runs, non-digits) poisons the frame.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NumAcc {
    /// No non-whitespace text seen yet.
    Empty,
    /// Exactly one clean digit run seen so far.
    Value(u64),
    /// Text that can never be a numeric value; stop looking.
    Poison,
}

struct Frame {
    pre: u32,
    parent_pre: u32,
    tag_value: u64,
    /// Numeric-text accumulator; only leaves (no element children) with a
    /// final `Value` state emit a numeric-plane row.
    num: NumAcc,
    /// Product of the finished children, kept in the evaluation domain so
    /// each fold is `O(q)` pointwise. `None` until the first child closes —
    /// a frame that ends with `None` is a leaf and skips the eval-domain
    /// detour entirely.
    acc: Option<EvalPoly>,
    /// Elements already folded into `acc` (children subtree sizes). With
    /// `d` linear factors the node polynomial has exact degree
    /// `min(d, n−1)`, which bounds the inverse-transform work at the
    /// storage boundary.
    subtree_elems: usize,
}

/// Encoder-local tag lookup: an open-addressed FNV-1a table over the map's
/// entries. The map itself is an ordered tree keyed by `String` — fine for
/// config-time lookups, but the encoder resolves one tag per element on the
/// hot path, so it flattens the map into this probe table once per run.
struct TagCache {
    slots: Vec<Option<(Box<str>, u64)>>,
    mask: usize,
}

impl TagCache {
    fn new(map: &MapFile) -> Self {
        let cap = (map.len().max(1) * 2).next_power_of_two();
        let mut slots = vec![None; cap];
        let mask = cap - 1;
        for (name, value) in map.iter() {
            let mut i = fnv1a(name.as_bytes()) as usize & mask;
            while slots[i].is_some() {
                i = (i + 1) & mask;
            }
            slots[i] = Some((name.into(), value));
        }
        TagCache { slots, mask }
    }

    #[inline]
    fn get(&self, name: &str) -> Option<u64> {
        let mut i = fnv1a(name.as_bytes()) as usize & self.mask;
        loop {
            match &self.slots[i] {
                Some((n, v)) if &**n == name => return Some(*v),
                Some(_) => i = (i + 1) & self.mask,
                None => return None,
            }
        }
    }
}

#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

/// Incremental encoder; drive it with [`Encoder::start`]/[`Encoder::end`].
struct Encoder {
    ring: RingCtx,
    packer: Packer,
    table: Table,
    tags: TagCache,
    /// `seed_digest(seed)`, hoisted out of the per-node share derivation.
    digest: u64,
    stack: Vec<Frame>,
    /// Recycled eval-domain buffers: finished accumulators return here and
    /// new first-child accumulators are drawn from here, so the steady-state
    /// encode loop allocates only each row's boxed byte payload.
    pool: Vec<EvalPoly>,
    pre: u32,
    post: u32,
    max_depth: usize,
    /// Scratch buffers reused across nodes; the per-node loop allocates
    /// only the row's own boxed byte payload.
    scratch_node: RingPoly,
    scratch_client: RingPoly,
    scratch_pack_work: Vec<u64>,
    scratch_pack_out: Vec<u8>,
    /// Leaves whose text parsed as a numeric value, in close order; their
    /// numeric-plane rows are emitted at `finish` (after every document row,
    /// sorted by pre).
    numeric: Vec<(Loc, u64)>,
}

impl Encoder {
    fn new(map: &MapFile, seed: &Seed) -> Result<Self, CoreError> {
        let ring = RingCtx::new(map.p(), map.e())?;
        let packer = Packer::new(&ring);
        let table = Table::new(packer.radix_len());
        let scratch_node = ring.zero();
        let scratch_client = ring.zero();
        Ok(Encoder {
            ring,
            packer,
            table,
            tags: TagCache::new(map),
            digest: seed_digest(seed),
            stack: Vec::new(),
            pool: Vec::new(),
            pre: 0,
            post: 0,
            max_depth: 0,
            scratch_node,
            scratch_client,
            scratch_pack_work: Vec::new(),
            scratch_pack_out: Vec::new(),
            numeric: Vec::new(),
        })
    }

    fn start(&mut self, name: &str) -> Result<(), CoreError> {
        let tag_value = match self.tags.get(name) {
            Some(v) => v,
            None => return Err(CoreError::UnknownTag(name.to_string())),
        };
        if self.pre + 1 >= NUM_PLANE_BASE {
            return Err(CoreError::Unsupported(format!(
                "document plane full: pre-order {} would collide with the numeric plane",
                self.pre + 1
            )));
        }
        self.pre += 1;
        let parent_pre = self.stack.last().map_or(0, |f| f.pre);
        self.stack.push(Frame {
            pre: self.pre,
            parent_pre,
            tag_value,
            num: NumAcc::Empty,
            acc: None,
            subtree_elems: 0,
        });
        self.max_depth = self.max_depth.max(self.stack.len());
        Ok(())
    }

    /// Feeds one character-data run to the innermost open element.
    /// Whitespace-only runs are ignored; the first clean digit run becomes a
    /// candidate value; any other text — or a second run — poisons the
    /// frame. Text outside every element (stray in event streams) is a
    /// no-op, matching the base scheme's text-blindness.
    fn text(&mut self, s: &str) {
        let Some(frame) = self.stack.last_mut() else {
            return;
        };
        if s.trim().is_empty() {
            return;
        }
        frame.num = match frame.num {
            NumAcc::Empty => match parse_numeric_text(s, self.ring.len()) {
                Some(v) => NumAcc::Value(v),
                None => NumAcc::Poison,
            },
            NumAcc::Value(_) | NumAcc::Poison => NumAcc::Poison,
        };
    }

    fn end(&mut self) -> Result<(), CoreError> {
        let frame = self.stack.pop().expect("end without start");
        self.post += 1;
        let factors = frame.subtree_elems + 1;
        let loc = Loc {
            pre: frame.pre,
            post: self.post,
            parent: frame.parent_pre,
        };
        // Only leaves (no element children) carry a numeric value; mixed
        // content keeps the element purely structural.
        if frame.acc.is_none() {
            if let NumAcc::Value(v) = frame.num {
                self.numeric.push((loc, v));
            }
        }
        match frame.acc {
            // Leaf: f = x − tag. The coefficient form is known outright, so
            // the boundary skips the eval-domain round trip, and the fold
            // into the parent is the fused linear pass.
            None => {
                debug_assert_eq!(factors, 1);
                self.ring
                    .linear_into(frame.tag_value, &mut self.scratch_node);
                self.split_pack_insert(loc)?;
                if let Some(parent) = self.stack.last_mut() {
                    match &mut parent.acc {
                        Some(acc) => self.ring.eval_mul_linear_assign(acc, frame.tag_value),
                        None => {
                            let mut buf = self.pool.pop().unwrap_or_else(|| self.ring.evals_zero());
                            self.ring.evals_linear_into(frame.tag_value, &mut buf);
                            parent.acc = Some(buf);
                        }
                    }
                    parent.subtree_elems += 1;
                }
            }
            // Internal node: f = (x − tag) · product(children), pointwise in
            // the evaluation domain.
            Some(mut f) => {
                self.ring.eval_mul_linear_assign(&mut f, frame.tag_value);
                // Wire/storage boundary: back to coefficient form — bounded
                // by the node's exact degree — then split.
                self.ring
                    .from_evals_bounded_into(&f, factors, &mut self.scratch_node);
                self.split_pack_insert(loc)?;
                // Fold into the parent; a parent with no accumulator yet
                // adopts `f` wholesale, otherwise `f`'s buffer recycles.
                match self.stack.last_mut() {
                    Some(parent) => {
                        match &mut parent.acc {
                            Some(acc) => {
                                self.ring.eval_mul_assign(acc, &f);
                                self.pool.push(f);
                            }
                            None => parent.acc = Some(f),
                        }
                        parent.subtree_elems += factors;
                    }
                    None => self.pool.push(f),
                }
            }
        }
        Ok(())
    }

    /// Shared tail of the storage boundary: `scratch_node` holds the
    /// plaintext coefficients; subtract the PRG client share, pack, insert.
    /// The client share comes from `PRG(seed, pre)`, so it is regenerable at
    /// query time and independent of encode order.
    fn split_pack_insert(&mut self, loc: Loc) -> Result<(), CoreError> {
        let mut prg = node_prg_from_digest(self.digest, loc.pre as u64);
        random_poly_into(&self.ring, &mut prg, &mut self.scratch_client);
        self.ring
            .sub_assign(&mut self.scratch_node, &self.scratch_client);
        self.packer.pack_radix_into(
            &self.scratch_node,
            &mut self.scratch_pack_work,
            &mut self.scratch_pack_out,
        );
        self.table.insert(Row {
            loc,
            poly: self.scratch_pack_out.as_slice().into(),
        })?;
        Ok(())
    }

    /// Emits the numeric-plane rows collected during the walk, then seals
    /// the output. A value's plaintext polynomial is its base-2 digit vector
    /// ([`numeric_digits`]); the split is the usual one — subtract the PRG
    /// client share keyed by the row's (numeric-plane) pre — so persistence,
    /// WAL replay, resharding and fleet splitting treat these rows exactly
    /// like document rows. Rows go in sorted by pre, after every document
    /// row.
    fn finish(mut self, input_bytes: usize, started: Instant) -> Result<EncodeOutput, CoreError> {
        debug_assert!(self.stack.is_empty(), "unbalanced events");
        self.numeric.sort_unstable_by_key(|(loc, _)| loc.pre);
        let numeric = std::mem::take(&mut self.numeric);
        for (loc, value) in numeric {
            let plain = numeric_digits(&self.ring, value);
            self.scratch_node.clone_from(&plain);
            self.split_pack_insert(Loc {
                pre: numeric_pre(loc.pre),
                post: NUM_PLANE_BASE + loc.post,
                parent: 0,
            })?;
        }
        Ok(EncodeOutput {
            stats: EncodeStats {
                elements: self.table.len(),
                input_bytes,
                elapsed: started.elapsed(),
                max_depth: self.max_depth,
            },
            table: self.table,
            ring: self.ring,
            packer: self.packer,
        })
    }
}

/// Encodes an XML document string. Text is invisible to the base scheme's
/// structural rows (run the document through `ssx_trie::transform_document`
/// first to make text *searchable*), with one exception: a leaf whose entire
/// text is a clean integer also gets a numeric-plane row at
/// [`numeric_pre`]`(pre)` carrying its base-2 digits, which powers the
/// secret-shared aggregates (COUNT/SUM/AVG and range predicates).
pub fn encode_document(xml: &str, map: &MapFile, seed: &Seed) -> Result<EncodeOutput, CoreError> {
    let started = Instant::now();
    let mut enc = Encoder::new(map, seed)?;
    drive_parser(&mut enc, xml)?;
    enc.finish(xml.len(), started)
}

/// Streams `xml` through the borrowed-token parser into `enc` — Start/End
/// drive the structural fold, Text feeds the numeric accumulator. Uses
/// [`PullParser::next_token`] so character data crosses without per-event
/// `String` allocations.
fn drive_parser(enc: &mut Encoder, xml: &str) -> Result<(), CoreError> {
    let mut parser = PullParser::new(xml);
    while let Some(tok) = parser.next_token()? {
        match tok {
            XmlToken::Start(name) => enc.start(name)?,
            XmlToken::End(_) => enc.end()?,
            XmlToken::Text(t) => enc.text(&t),
        }
    }
    Ok(())
}

/// Encodes an XML document as a block starting at `offset`: pre and post
/// numbers run `offset+1 ..= offset+n`, the document root keeps `parent = 0`,
/// and every client-share PRG stream is keyed by the *absolute* `pre` — so a
/// document inserted at `offset` into a live store carries rows bit-identical
/// to a fresh forest encode that placed it there. `offset = 0` is exactly
/// [`encode_document`]. This is the write plane's encoder: allocate an offset
/// past every `pre` ever stored (`MaxPre`) and the new block can never
/// collide with live or deleted rows.
pub fn encode_document_at(
    xml: &str,
    map: &MapFile,
    seed: &Seed,
    offset: u32,
) -> Result<EncodeOutput, CoreError> {
    let started = Instant::now();
    let mut enc = Encoder::new(map, seed)?;
    enc.pre = offset;
    enc.post = offset;
    drive_parser(&mut enc, xml)?;
    enc.finish(xml.len(), started)
}

/// Encodes a DOM directly (used for trie-transformed documents, which exist
/// only as DOMs).
pub fn encode_dom(doc: &Document, map: &MapFile, seed: &Seed) -> Result<EncodeOutput, CoreError> {
    let started = Instant::now();
    let mut enc = Encoder::new(map, seed)?;
    // Iterative DFS emitting start/end pairs.
    let mut stack = vec![(doc.root(), false)];
    while let Some((id, entered)) = stack.pop() {
        if entered {
            enc.end()?;
            continue;
        }
        match doc.kind(id) {
            NodeKind::Element(name) => {
                enc.start(name)?;
                stack.push((id, true));
                for &c in doc.children(id).iter().rev() {
                    stack.push((c, false));
                }
            }
            NodeKind::Text(t) => enc.text(t),
        }
    }
    enc.finish(doc.to_xml().len(), started)
}

// ---------------------------------------------------------------------------
// Multi-party fleet: t-of-n splitting of the server share plane.
// ---------------------------------------------------------------------------

/// PRG domain tag for the per-row Shamir masking randomness. Node pre-orders
/// are `u32`, so any tag above `u32::MAX` is collision-free with the client
/// share streams `node_prg(seed, pre)`.
const FLEET_SPLIT_DOMAIN: u64 = 1u64 << 40;
/// PRG domain tag for the fleet MAC key `α`.
const FLEET_MAC_DOMAIN: u64 = 1u64 << 41;

/// Shape of a multi-party deployment: `servers` parties, any `threshold`
/// of which suffice to answer (and are required to reconstruct).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetSpec {
    /// Number of parties `n` (1-based party ids `1..=n`).
    pub servers: usize,
    /// Reconstruction threshold `t` (`1 ≤ t ≤ n`).
    pub threshold: usize,
}

impl FleetSpec {
    /// Validates `1 ≤ t ≤ n`.
    pub fn new(servers: usize, threshold: usize) -> Result<Self, CoreError> {
        if servers == 0 || threshold == 0 || threshold > servers {
            return Err(CoreError::Transport(format!(
                "invalid fleet spec: need 1 <= t <= n, got n={servers} t={threshold}"
            )));
        }
        Ok(FleetSpec { servers, threshold })
    }

    /// The single-party degenerate case (`n = 1, t = 1`).
    pub fn single() -> Self {
        FleetSpec {
            servers: 1,
            threshold: 1,
        }
    }

    /// X-coordinate (field code) of 1-based party `j`.
    pub fn party_x(party: usize) -> u64 {
        party as u64
    }
}

/// One party's persistent view: its Shamir share of every server-share
/// polynomial (`data`) and of the MAC companion `α ⊙ share` (`mac`).
/// Neither table alone — nor any `t − 1` parties' tables together —
/// determines a single plaintext polynomial.
#[derive(Debug)]
pub struct PartyStore {
    /// 1-based party id (the Shamir x-coordinate).
    pub party: usize,
    /// Shamir share of the server-share polynomials.
    pub data: Table,
    /// Shamir share of the MAC polynomials `α ⊙ share`.
    pub mac: Table,
}

/// Result of a fleet encoding: `n` per-party stores plus the shared context.
#[derive(Debug)]
pub struct FleetEncodeOutput {
    /// Per-party stores, index `j − 1` for party `j`.
    pub parties: Vec<PartyStore>,
    /// The deployment shape used for the split.
    pub spec: FleetSpec,
    /// The ring both sides compute in.
    pub ring: RingCtx,
    /// Packer matching the tables' polynomial payload.
    pub packer: Packer,
    /// Cost metrics of the underlying encode.
    pub stats: EncodeStats,
}

/// Derives the fleet MAC key `α ∈ F_q \ {0}` from the client seed. Servers
/// never see `α`: they store shares of `α ⊙ s` without learning either
/// factor, and the client re-derives `α` at query time exactly like it
/// re-derives client shares.
pub fn fleet_mac_key(seed: &Seed, ring: &RingCtx) -> u64 {
    let q = ring.field().order();
    node_prg(seed, FLEET_MAC_DOMAIN).next_below(q - 1) + 1
}

/// Splits a finished single-server encoding into `n` per-party stores:
/// each server-share polynomial `s` is Shamir-split coefficient-wise
/// (threshold `t`), and so is its MAC companion `α ⊙ s`. Per-row masking
/// randomness comes from `node_prg(seed, FLEET_SPLIT_DOMAIN | pre)`, so the
/// split is deterministic given the seed and disjoint from the client-share
/// streams. With `t = 1` the data tables are bit-identical replicas of the
/// input table.
pub fn split_fleet(
    output: EncodeOutput,
    seed: &Seed,
    spec: FleetSpec,
) -> Result<FleetEncodeOutput, CoreError> {
    let spec = FleetSpec::new(spec.servers, spec.threshold)?; // revalidate
    let EncodeOutput {
        table,
        ring,
        packer,
        stats,
    } = output;
    let q = ring.field().order();
    if spec.servers as u64 >= q {
        return Err(CoreError::Transport(format!(
            "fleet of {} servers needs a field larger than q={q}",
            spec.servers
        )));
    }
    let mut parties: Vec<PartyStore> = (1..=spec.servers)
        .map(|party| PartyStore {
            party,
            data: Table::new(table.poly_len()),
            mac: Table::new(table.poly_len()),
        })
        .collect();
    for row in table.rows() {
        let shares = split_fleet_row(&ring, &packer, seed, spec, row.loc.pre, &row.poly)?;
        for (party, (ds, ms)) in parties.iter_mut().zip(shares) {
            let insert = |table: &mut Table, poly: Vec<u8>| {
                table
                    .insert(Row {
                        loc: row.loc,
                        poly: poly.into_boxed_slice(),
                    })
                    .map_err(CoreError::from)
            };
            insert(&mut party.data, ds)?;
            insert(&mut party.mac, ms)?;
        }
    }
    Ok(FleetEncodeOutput {
        parties,
        spec,
        ring,
        packer,
        stats,
    })
}

/// One party's packed `(data, mac)` payload pair for a re-split row.
pub type PartyRow = (Vec<u8>, Vec<u8>);

/// Splits one stored server-share row into its `n` per-party
/// `(data, mac)` packed payloads, drawing the masking randomness from
/// exactly the PRG stream [`split_fleet`] uses for that `pre` — a row
/// inserted into a live fleet is bit-identical to the row a fresh
/// `split_fleet` of the same table would hand the same party. This is the
/// write plane's splitter: a fleet transport re-splits each incoming row
/// per leg so no single party ever sees the un-split server share.
pub fn split_fleet_row(
    ring: &RingCtx,
    packer: &Packer,
    seed: &Seed,
    spec: FleetSpec,
    pre: u32,
    poly: &[u8],
) -> Result<Vec<PartyRow>, CoreError> {
    let alpha = fleet_mac_key(seed, ring);
    let s = packer.unpack_radix(ring, poly)?;
    let m = ssx_poly::scale_poly(ring, alpha, &s);
    let mut prg = node_prg(seed, FLEET_SPLIT_DOMAIN | pre as u64);
    let data_shares = ssx_poly::split_n(ring, &s, spec.servers, spec.threshold, &mut prg);
    let mac_shares = ssx_poly::split_n(ring, &m, spec.servers, spec.threshold, &mut prg);
    Ok(data_shares
        .into_iter()
        .zip(mac_shares)
        .map(|(d, m)| (packer.pack_radix(&d), packer.pack_radix(&m)))
        .collect())
}

/// Encodes `xml` and splits the result into an `n`-party fleet.
pub fn encode_document_fleet(
    xml: &str,
    map: &MapFile,
    seed: &Seed,
    spec: FleetSpec,
) -> Result<FleetEncodeOutput, CoreError> {
    split_fleet(encode_document(xml, map, seed)?, seed, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssx_poly::{random_poly, reconstruct};

    fn setup() -> (MapFile, Seed) {
        let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
        let seed = Seed::from_test_key(7);
        (map, seed)
    }

    #[test]
    fn encodes_structure() {
        let (map, seed) = setup();
        let out = encode_document("<site><a><b/></a><c/></site>", &map, &seed).unwrap();
        assert_eq!(out.table.len(), 4);
        assert_eq!(out.stats.elements, 4);
        assert_eq!(out.stats.max_depth, 3);
        // Locations follow the paper's convention.
        let root = out.table.root().unwrap();
        assert_eq!(
            root.loc,
            Loc {
                pre: 1,
                post: 4,
                parent: 0
            }
        );
        assert_eq!(
            out.table.by_pre(3).unwrap().loc,
            Loc {
                pre: 3,
                post: 1,
                parent: 2
            }
        );
    }

    #[test]
    fn shares_reconstruct_to_plaintext_polynomials() {
        let (map, seed) = setup();
        let out = encode_document("<site><a><b/></a><c/></site>", &map, &seed).unwrap();
        let ring = &out.ring;
        // Recompute the plaintext polynomial of the root by hand:
        // f(root) = (x - site) * f(a) * f(c); f(a) = (x - a)(x - b); f(c) = (x - c).
        let v = |n: &str| map.value(n).unwrap();
        let fa = ring.mul_linear(&ring.linear(v("b")), v("a"));
        let fc = ring.linear(v("c"));
        let froot = ring.mul_linear(&ring.mul(&fa, &fc), v("site"));
        // Reconstruct from the stored server share + regenerated client share.
        let row = out.table.root().unwrap();
        let server = out.packer.unpack_radix(ring, &row.poly).unwrap();
        let client = random_poly(ring, &mut node_prg(&seed, 1));
        assert_eq!(reconstruct(ring, &client, &server), froot);
    }

    #[test]
    fn server_share_alone_differs_from_plaintext() {
        let (map, seed) = setup();
        let out = encode_document("<site><a/></site>", &map, &seed).unwrap();
        let ring = &out.ring;
        let fa = ring.linear(map.value("a").unwrap());
        let row = out.table.by_pre(2).unwrap();
        let server = out.packer.unpack_radix(ring, &row.poly).unwrap();
        assert_ne!(server, fa);
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let (map, seed) = setup();
        let err = encode_document("<site><zap/></site>", &map, &seed).unwrap_err();
        assert!(matches!(err, CoreError::UnknownTag(t) if t == "zap"));
    }

    #[test]
    fn malformed_xml_is_an_error() {
        let (map, seed) = setup();
        assert!(matches!(
            encode_document("<site><a></site>", &map, &seed),
            Err(CoreError::Xml(_))
        ));
    }

    #[test]
    fn text_is_ignored_by_base_scheme() {
        let (map, seed) = setup();
        let with_text = encode_document("<site><a>hello world</a></site>", &map, &seed).unwrap();
        let without = encode_document("<site><a/></site>", &map, &seed).unwrap();
        assert_eq!(with_text.table.len(), without.table.len());
        assert_eq!(with_text.table.rows()[0].poly, without.table.rows()[0].poly);
    }

    #[test]
    fn dom_and_text_encodings_agree() {
        let (map, seed) = setup();
        let xml = "<site><a><b/><b/></a><c/></site>";
        let via_text = encode_document(xml, &map, &seed).unwrap();
        let doc = Document::parse(xml).unwrap();
        let via_dom = encode_dom(&doc, &map, &seed).unwrap();
        assert_eq!(via_text.table.rows(), via_dom.table.rows());
    }

    #[test]
    fn different_seeds_give_different_server_shares() {
        let (map, _) = setup();
        let xml = "<site><a/></site>";
        let out1 = encode_document(xml, &map, &Seed::from_test_key(1)).unwrap();
        let out2 = encode_document(xml, &map, &Seed::from_test_key(2)).unwrap();
        assert_ne!(out1.table.rows()[0].poly, out2.table.rows()[0].poly);
        // Same seed: identical database.
        let out1b = encode_document(xml, &map, &Seed::from_test_key(1)).unwrap();
        assert_eq!(out1.table.rows(), out1b.table.rows());
    }

    #[test]
    fn repeated_tags_encode_with_multiplicity() {
        // <site><a/><a/></site>: root polynomial has (x - a)^2 as factor,
        // so evaluation at map(a) is zero and at other points nonzero.
        let (map, seed) = setup();
        let out = encode_document("<site><a/><a/></site>", &map, &seed).unwrap();
        let ring = &out.ring;
        let row = out.table.root().unwrap();
        let server = out.packer.unpack_radix(ring, &row.poly).unwrap();
        let client = random_poly(ring, &mut node_prg(&seed, 1));
        let f = reconstruct(ring, &client, &server);
        assert_eq!(ring.eval(&f, map.value("a").unwrap()), 0);
        assert_eq!(ring.eval(&f, map.value("site").unwrap()), 0);
        assert_ne!(ring.eval(&f, map.value("b").unwrap()), 0);
    }

    #[test]
    fn offset_zero_encode_is_bit_identical() {
        let (map, seed) = setup();
        let xml = "<site><a><b/><b/></a><c/></site>";
        let plain = encode_document(xml, &map, &seed).unwrap();
        let at0 = encode_document_at(xml, &map, &seed, 0).unwrap();
        assert_eq!(plain.table.rows(), at0.table.rows());
    }

    /// An offset encode is the same forest block a fresh two-document encode
    /// would produce: locations shift rigidly and every row's share bytes
    /// match, because client-share streams are keyed by absolute pre.
    #[test]
    fn offset_encode_matches_fresh_forest_block() {
        let (map, seed) = setup();
        let first = "<site><a><b/></a><c/></site>"; // 5 nodes: offsets 1..=5
        let second = "<site><a/><c/></site>"; // 3 nodes at offset 5
        let block = encode_document_at(second, &map, &seed, 5).unwrap();
        assert_eq!(
            block
                .table
                .all_locs()
                .iter()
                .map(|l| (l.pre, l.post, l.parent))
                .collect::<Vec<_>>(),
            vec![(6, 8, 0), (7, 6, 6), (8, 7, 6)],
            "locations shift rigidly, root keeps parent 0"
        );
        // Splice both blocks into one table; it must be a valid forest whose
        // per-document scans are independent.
        let mut forest = Table::new(block.table.poly_len());
        let base = encode_document_at(first, &map, &seed, 0).unwrap();
        for row in base.table.rows().iter().chain(block.table.rows()) {
            forest.insert(row.clone()).unwrap();
        }
        forest.check_integrity().unwrap();
        assert_eq!(forest.roots().len(), 2);
        // The spliced block's shares reconstruct to the right polynomials
        // through the absolute-pre client streams.
        let ring = &block.ring;
        let v = |n: &str| map.value(n).unwrap();
        let froot = ring.mul_linear(
            &ring.mul(&ring.linear(v("a")), &ring.linear(v("c"))),
            v("site"),
        );
        let row = forest.by_pre(6).unwrap();
        let server = block.packer.unpack_radix(ring, &row.poly).unwrap();
        let client = random_poly(ring, &mut node_prg(&seed, 6));
        assert_eq!(reconstruct(ring, &client, &server), froot);
    }

    /// The per-row splitter hands out exactly the bytes `split_fleet` stores
    /// for that row — the write plane's bit-identity guarantee.
    #[test]
    fn split_fleet_row_matches_whole_table_split() {
        let (map, seed) = setup();
        let xml = "<site><a><b/></a><c/></site>";
        let single = encode_document(xml, &map, &seed).unwrap();
        let spec = FleetSpec::new(3, 2).unwrap();
        let fleet = split_fleet(encode_document(xml, &map, &seed).unwrap(), &seed, spec).unwrap();
        for row in single.table.rows() {
            let shares = split_fleet_row(
                &fleet.ring,
                &fleet.packer,
                &seed,
                spec,
                row.loc.pre,
                &row.poly,
            )
            .unwrap();
            for (j, (data, mac)) in shares.iter().enumerate() {
                let party = &fleet.parties[j];
                assert_eq!(
                    data.as_slice(),
                    &*party.data.by_pre(row.loc.pre).unwrap().poly,
                    "data party {j} pre {}",
                    row.loc.pre
                );
                assert_eq!(
                    mac.as_slice(),
                    &*party.mac.by_pre(row.loc.pre).unwrap().poly,
                    "mac party {j} pre {}",
                    row.loc.pre
                );
            }
        }
    }

    #[test]
    fn fleet_n1_t1_data_is_bit_identical_to_single_party() {
        let (map, seed) = setup();
        let xml = "<site><a><b/></a><c/></site>";
        let single = encode_document(xml, &map, &seed).unwrap();
        let fleet = encode_document_fleet(xml, &map, &seed, FleetSpec::single()).unwrap();
        assert_eq!(fleet.parties.len(), 1);
        let party = &fleet.parties[0];
        assert_eq!(party.data.len(), single.table.len());
        for row in single.table.rows() {
            let frow = party.data.by_pre(row.loc.pre).unwrap();
            assert_eq!(frow.loc, row.loc);
            assert_eq!(frow.poly, row.poly, "pre {} not bit-identical", row.loc.pre);
        }
    }

    #[test]
    fn fleet_shares_reconstruct_server_share_and_mac_checks() {
        let (map, seed) = setup();
        let xml = "<site><a><b/></a><c/></site>";
        let single = encode_document(xml, &map, &seed).unwrap();
        let spec = FleetSpec::new(3, 2).unwrap();
        let fleet = split_fleet(encode_document(xml, &map, &seed).unwrap(), &seed, spec);
        let fleet = fleet.unwrap();
        let ring = &fleet.ring;
        let alpha = fleet_mac_key(&seed, ring);
        for row in single.table.rows() {
            let s = single.packer.unpack_radix(ring, &row.poly).unwrap();
            // Any 2 of 3 parties reconstruct both planes; MAC relation holds.
            for pair in [[0usize, 1], [0, 2], [1, 2]] {
                let unpack = |t: &Table| {
                    fleet
                        .packer
                        .unpack_radix(ring, &t.by_pre(row.loc.pre).unwrap().poly)
                        .unwrap()
                };
                let data: Vec<RingPoly> = pair
                    .iter()
                    .map(|&j| unpack(&fleet.parties[j].data))
                    .collect();
                let mac: Vec<RingPoly> = pair
                    .iter()
                    .map(|&j| unpack(&fleet.parties[j].mac))
                    .collect();
                let pts = |polys: &[RingPoly]| {
                    pair.iter()
                        .zip(polys)
                        .map(|(&j, p)| (FleetSpec::party_x(j + 1), p.clone()))
                        .collect::<Vec<_>>()
                };
                let dp = pts(&data);
                let dref: Vec<(u64, &RingPoly)> = dp.iter().map(|(x, p)| (*x, p)).collect();
                let got = ssx_poly::reconstruct_t(ring, &dref).unwrap();
                assert_eq!(got, s, "data pair {pair:?} pre {}", row.loc.pre);
                let mp = pts(&mac);
                let mref: Vec<(u64, &RingPoly)> = mp.iter().map(|(x, p)| (*x, p)).collect();
                let gotm = ssx_poly::reconstruct_t(ring, &mref).unwrap();
                assert_eq!(gotm, ssx_poly::scale_poly(ring, alpha, &s));
            }
            // A single party's share is masked (t = 2).
            let lone = fleet
                .packer
                .unpack_radix(
                    ring,
                    &fleet.parties[0].data.by_pre(row.loc.pre).unwrap().poly,
                )
                .unwrap();
            assert_ne!(lone, s);
        }
    }

    #[test]
    fn fleet_spec_validation() {
        assert!(FleetSpec::new(0, 0).is_err());
        assert!(FleetSpec::new(3, 4).is_err());
        assert!(FleetSpec::new(3, 0).is_err());
        assert!(FleetSpec::new(3, 3).is_ok());
        let (map, seed) = setup();
        let out = encode_document("<site/>", &map, &seed).unwrap();
        // n must stay below the field order.
        let err = split_fleet(
            out,
            &seed,
            FleetSpec {
                servers: 90,
                threshold: 1,
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Transport(_)));
    }
}
