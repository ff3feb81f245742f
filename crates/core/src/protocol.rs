//! The client/server message protocol (the RMI stand-in).
//!
//! Every interaction between `ClientFilter` and `ServerFilter` is a
//! request/response pair encoded with a small hand-rolled binary codec, so
//! byte counts and round trips are exact — the quantities the thin-client
//! story of the paper cares about. The same frames travel over the
//! in-process transport and TCP.

use crate::error::CoreError;
use ssx_store::Loc;

/// [`Request::Agg`] op: epoch validation only — no rows touched. Closes a
/// COUNT (whose tally is client-side) while proving no write raced it.
pub const AGG_CHECK: u8 = 0;
/// [`Request::Agg`] op: grouped pointwise share-sum of the listed rows.
pub const AGG_SUM: u8 = 1;
/// [`Request::Agg`] op: fetch the listed rows, skipping absentees.
pub const AGG_FETCH: u8 = 2;

/// Marker prefix of the [`Response::Err`] a server returns when an
/// [`Request::Agg`]'s `expect_epoch` no longer matches the store — a write
/// raced the aggregate. Clients map it to a typed conflict so callers can
/// retry from a fresh snapshot instead of parsing strings.
pub const AGG_FENCE: &str = "store epoch changed";

/// The multiplexed-transport protocol version this build speaks. A
/// [`Request::Hello`] carrying at least this version upgrades a connection
/// to correlation-tagged framing (see [`encode_corr_payload`]); the frames
/// inside the envelope keep their exact bytes.
pub const MUX_PROTOCOL_VERSION: u32 = 1;

/// Client → server messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Location of a specific node.
    GetLoc {
        /// Node `pre`.
        pre: u32,
    },
    /// Children of a node, in document order.
    Children {
        /// Parent `pre`.
        pre: u32,
    },
    /// All descendants of a node, in document order.
    Descendants {
        /// Subtree root location.
        loc: Loc,
    },
    /// Evaluate the stored (server-share) polynomials of many nodes at the
    /// same point — one round trip for a whole candidate set (the paper's
    /// server-side `Queue`); a single node is a one-item list.
    EvalMany {
        /// Node `pre`s.
        pres: Vec<u32>,
        /// Evaluation point.
        point: u64,
    },
    /// Fetch packed server-share polynomials (equality test).
    GetPolys {
        /// Node `pre`s.
        pres: Vec<u32>,
    },
    /// Open a server-buffered cursor over the children of a node set
    /// (models the `nextNode()` pipeline, §5.2).
    OpenChildrenCursor {
        /// Parent `pre`s.
        pres: Vec<u32>,
    },
    /// Open a cursor over the descendants of a node set.
    OpenDescendantsCursor {
        /// Subtree roots.
        locs: Vec<Loc>,
    },
    /// Pull the next node from a cursor.
    Next {
        /// Cursor id.
        cursor: u32,
    },
    /// Release a cursor.
    CloseCursor {
        /// Cursor id.
        cursor: u32,
    },
    /// Number of stored nodes.
    Count,
    /// Ask a TCP server loop to stop (tests/examples).
    Shutdown,
    /// How many shards this endpoint serves. A bare [`ServerFilter`]
    /// answers 1; a sharded host intercepts it and answers its fleet size.
    /// Connecting clients learn the count from [`Response::Hello`]; fleet
    /// pipes send this frame as their re-admission probe.
    ///
    /// [`ServerFilter`]: crate::server::ServerFilter
    ShardCount,
    /// Repartition a sharded host across `shards` filters, in memory,
    /// without a save/load cycle. Intercepted by the TCP host (like
    /// [`Request::ShardCount`]); a bare [`ServerFilter`] refuses it.
    /// Answered with [`Response::Ok`] once every row has moved — shares
    /// move bit-identically, only placement changes. Clients connected
    /// under the old shard count must reconnect (their partition no longer
    /// matches; stale point requests surface as errors, never wrong
    /// answers).
    ///
    /// [`ServerFilter`]: crate::server::ServerFilter
    Reshard {
        /// The new shard count (clamped to ≥ 1 server-side).
        shards: u32,
    },
    /// Opens the multiplexed-transport handshake: "I speak
    /// correlation-tagged framing up to `version`". The host answers
    /// [`Response::Hello`] and switches the connection to the correlation
    /// envelope ([`encode_corr_payload`]) from the next frame on. The
    /// answer carries the host's shard count, so one round trip both
    /// negotiates framing and tells the client how to route. Sent exactly
    /// once, as the first frame of a connection — any other first frame is
    /// refused with [`Response::Err`] and the connection closed; inside a
    /// batch or after the upgrade it is an error.
    Hello {
        /// Highest envelope version the client understands (≥ 1).
        version: u32,
    },
    /// Insert pre-split share rows into the store (the write plane). The
    /// client splits a freshly encoded document into per-shard (and, in a
    /// fleet, per-party) rows and fans one `Insert` per destination — the
    /// server never sees anything but uniformly random share bytes plus the
    /// public `Loc` triples. Answered with [`Response::Count`] (rows
    /// applied); a failed row rolls the whole frame back before the error
    /// returns. Every applied insert bumps the store epoch, fencing off
    /// cursors opened before it. Allowed bare or inside `ToShard`, never
    /// inside a `Batch` (writes are not reorderable against reads).
    Insert {
        /// Rows to insert: location plus packed share polynomial.
        rows: Vec<(Loc, Vec<u8>)>,
    },
    /// Remove the rows with these `pre` numbers (a whole document block per
    /// frame on the facade path). Answered with [`Response::Count`] (rows
    /// removed; missing `pre`s are counted out but not an error, so delete
    /// is idempotent). Bumps the store epoch like [`Request::Insert`].
    Delete {
        /// `pre` numbers to remove.
        pres: Vec<u32>,
    },
    /// Largest `pre` ever stored on this endpoint (0 when empty) — the
    /// write plane's offset-allocation handshake. Fanned to every shard and
    /// max-merged by the router. Answered with [`Response::Count`].
    MaxPre,
    /// All document roots (`parent == 0`) in document order — the query
    /// engines' initial frontier. A store that has only ever held one
    /// document answers `[root]`, but the write plane grows a *forest*, so
    /// queries must start from every root. Fanned to every shard and
    /// merge-sorted by the router. Answered with [`Response::Locs`].
    Roots,
    /// Current store epoch of this endpoint — the aggregation plane's
    /// snapshot handshake. An aggregate captures every shard's epoch in its
    /// first wave (batched with [`Request::Roots`], so the capture is free)
    /// and replays it in the closing [`Request::Agg`] frame; a write landing
    /// in between changes the epoch and surfaces as a typed conflict instead
    /// of a silently torn answer. Answered with [`Response::Count`].
    Epoch,
    /// Per-shard partial aggregate over numeric-plane rows (PR 10). `pres`
    /// are *numeric-plane* row ids (element `pre` + `NUM_PLANE_BASE`); the
    /// server never learns which elements matched the predicate — it only
    /// sees that this shard was touched, like every other read wave. The
    /// frame is refused with a fence error unless the store epoch still
    /// equals `expect_epoch`.
    ///
    /// Ops ([`AGG_CHECK`], [`AGG_SUM`], [`AGG_FETCH`]):
    /// - check: epoch validation only (`pres` empty) — closes a COUNT.
    /// - sum: pointwise share-sum of the listed rows in groups of at most
    ///   `ring_len` rows per partial (so base-2 digit sums cannot wrap mod
    ///   q); rows without a numeric value are skipped and reported absent
    ///   via [`Response::Agg::found`].
    /// - fetch: the packed rows themselves (range-predicate evaluation),
    ///   missing rows skipped rather than erroring like [`Request::GetPolys`].
    Agg {
        /// One of [`AGG_CHECK`], [`AGG_SUM`], [`AGG_FETCH`].
        op: u8,
        /// Numeric-plane row ids to aggregate, in client order.
        pres: Vec<u32>,
        /// The store epoch the aggregate captured in its first wave.
        expect_epoch: u64,
    },
    /// Many sub-requests in one round trip; answered by a parallel
    /// [`Response::Batch`]. Sub-requests may not themselves be `Batch` or
    /// `ToShard` frames (enforced by the codec).
    Batch(Vec<Request>),
    /// Addresses `req` to one shard of a sharded server. The inner request
    /// may be anything except another `ToShard` or a `Pair` (a `Batch` is
    /// common: one tagged frame carries a whole per-shard batch).
    ToShard {
        /// Target shard index.
        shard: u32,
        /// The request the shard should handle.
        req: Box<Request>,
    },
    /// A fleet leg's data-plane frame and its MAC mirror in one round trip,
    /// answered by [`Response::Pair`]. The host answers each half exactly
    /// as it would answer that frame alone, data half first. Pairs are
    /// top-level only: a half may be any top-level frame except another
    /// pair, and no `Batch` or `ToShard` carries a pair (enforced by the
    /// codec). A half addressed to the connection or the whole host
    /// (`Hello`, `ShardCount`, `Reshard`, `Shutdown`) makes the host refuse
    /// the pair with one [`Response::Err`].
    Pair {
        /// The data-plane frame.
        data: Box<Request>,
        /// Its MAC-plane mirror.
        mac: Box<Request>,
    },
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Zero or one location.
    MaybeLoc(Option<Loc>),
    /// A location list in document order.
    Locs(Vec<Loc>),
    /// Field elements, parallel to the request's `pres`.
    Values(Vec<u64>),
    /// Packed polynomials, parallel to the request's `pres`.
    Polys(Vec<Vec<u8>>),
    /// A cursor handle.
    Cursor(u32),
    /// Node count.
    Count(u64),
    /// Generic acknowledgement.
    Ok,
    /// Server-side failure description.
    Err(String),
    /// Sub-responses parallel to a [`Request::Batch`]'s sub-requests. A
    /// failed sub-request yields an inline [`Response::Err`] in its slot —
    /// one bad slot does not poison the rest of the batch.
    Batch(Vec<Response>),
    /// Answers a [`Request::Agg`]: which of the requested numeric-plane rows
    /// exist, and the per-group share partials. For `AGG_SUM` the partials
    /// are one packed share-sum per consecutive group of at most `ring_len`
    /// found rows (in `found` order); for `AGG_FETCH` they are the packed
    /// rows themselves, parallel to `found`; for `AGG_CHECK` both lists are
    /// empty.
    Agg {
        /// The requested `pres` that exist in this shard, in request order.
        found: Vec<u32>,
        /// Packed share partials (grouping depends on the request op).
        partials: Vec<Vec<u8>>,
    },
    /// Accepts a [`Request::Hello`]: the envelope version the server will
    /// speak (the minimum of both sides' maxima) and its shard count. The
    /// connection is correlation-framed from the next frame on.
    Hello {
        /// Negotiated envelope version.
        version: u32,
        /// How many shards this host partitions the table across (the same
        /// figure the [`Request::ShardCount`] handshake reports).
        shards: u32,
    },
    /// Answers a [`Request::Pair`]: each half's response, exactly as that
    /// frame alone would have been answered. A pair refused as a whole
    /// (the reshard fence, a refused half) gets one top-level
    /// [`Response::Err`] instead. Top-level only, like the request.
    Pair {
        /// The data-plane half's response.
        data: Box<Response>,
        /// The MAC-plane half's response.
        mac: Box<Response>,
    },
}

// ---- correlation envelope ---------------------------------------------------

/// Bytes the correlation id occupies at the head of a mux-framed payload.
pub const CORR_BYTES: usize = 8;

/// Wraps an encoded request or response frame in the correlation envelope a
/// multiplexed connection speaks after the [`Request::Hello`] upgrade:
/// `corr` as 8 little-endian bytes, then the untouched request or response
/// frame. The outer 4-byte length prefix of the stream framing is
/// unchanged, so every decoder check (length bounds, per-element checks)
/// still applies to the inner bytes.
pub fn encode_corr_payload(corr: u64, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CORR_BYTES + frame.len());
    out.extend_from_slice(&corr.to_le_bytes());
    out.extend_from_slice(frame);
    out
}

/// Splits a mux-framed payload into its correlation id and the inner
/// frame. Total: any payload shorter than the 8-byte id is a typed error,
/// never a panic — the id is returned exactly as the peer wrote it, so a
/// response can only ever complete the slot whose id it carries.
pub fn decode_corr_payload(payload: &[u8]) -> Result<(u64, &[u8]), CoreError> {
    if payload.len() < CORR_BYTES {
        return Err(CoreError::Transport("short mux frame".into()));
    }
    let corr = u64::from_le_bytes(payload[..CORR_BYTES].try_into().expect("8 bytes"));
    Ok((corr, &payload[CORR_BYTES..]))
}

// ---- codec -----------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(tag: u8) -> Self {
        Writer { buf: vec![tag] }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn loc(&mut self, l: Loc) {
        self.u32(l.pre);
        self.u32(l.post);
        self.u32(l.parent);
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    fn u32s(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn u8(&mut self) -> Result<u8, CoreError> {
        let v = *self.buf.get(self.pos).ok_or_else(short)?;
        self.pos += 1;
        Ok(v)
    }
    fn u32(&mut self) -> Result<u32, CoreError> {
        let end = self.pos.checked_add(4).ok_or_else(short)?;
        let s = self.buf.get(self.pos..end).ok_or_else(short)?;
        self.pos = end;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, CoreError> {
        let end = self.pos.checked_add(8).ok_or_else(short)?;
        let s = self.buf.get(self.pos..end).ok_or_else(short)?;
        self.pos = end;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
    fn loc(&mut self) -> Result<Loc, CoreError> {
        Ok(Loc {
            pre: self.u32()?,
            post: self.u32()?,
            parent: self.u32()?,
        })
    }
    fn bytes(&mut self) -> Result<Vec<u8>, CoreError> {
        Ok(self.bytes_ref()?.to_vec())
    }
    /// Length-prefixed byte run, borrowed from the frame.
    fn bytes_ref(&mut self) -> Result<&'a [u8], CoreError> {
        let len = self.u32()? as usize;
        self.take(len)
    }
    /// Borrows the next `len` raw bytes of the frame.
    fn take(&mut self, len: usize) -> Result<&'a [u8], CoreError> {
        let end = self.pos.checked_add(len).ok_or_else(short)?;
        let s = self.buf.get(self.pos..end).ok_or_else(short)?;
        self.pos = end;
        Ok(s)
    }
    /// Validates a wire-declared element count against the bytes actually
    /// left in the frame: `n` elements of at least `elem_min` bytes each
    /// cannot fit in fewer than `n * elem_min` bytes. Checking *before*
    /// collecting keeps a hostile length prefix from pre-allocating
    /// gigabytes through a collector's size hint.
    fn items(&self, n: usize, elem_min: usize) -> Result<usize, CoreError> {
        let left = self.buf.len() - self.pos;
        if n.checked_mul(elem_min).is_none_or(|need| need > left) {
            return Err(short());
        }
        Ok(n)
    }
    fn u32s(&mut self) -> Result<Vec<u32>, CoreError> {
        let len = self.u32()? as usize;
        let len = self.items(len, 4)?;
        (0..len).map(|_| self.u32()).collect()
    }
    fn finish(self) -> Result<(), CoreError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CoreError::Transport("trailing bytes in frame".into()))
        }
    }
}

fn short() -> CoreError {
    CoreError::Transport("short frame".into())
}

/// Serialises a request.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::GetLoc { pre } => {
            let mut w = Writer::new(1);
            w.u32(*pre);
            w.buf
        }
        Request::Children { pre } => {
            let mut w = Writer::new(2);
            w.u32(*pre);
            w.buf
        }
        Request::Descendants { loc } => {
            let mut w = Writer::new(3);
            w.loc(*loc);
            w.buf
        }
        Request::EvalMany { pres, point } => {
            let mut w = Writer::new(5);
            w.u32s(pres);
            w.u64(*point);
            w.buf
        }
        Request::GetPolys { pres } => {
            let mut w = Writer::new(6);
            w.u32s(pres);
            w.buf
        }
        Request::OpenChildrenCursor { pres } => {
            let mut w = Writer::new(7);
            w.u32s(pres);
            w.buf
        }
        Request::OpenDescendantsCursor { locs } => {
            let mut w = Writer::new(8);
            w.u32(locs.len() as u32);
            for &l in locs {
                w.loc(l);
            }
            w.buf
        }
        Request::Next { cursor } => {
            let mut w = Writer::new(9);
            w.u32(*cursor);
            w.buf
        }
        Request::CloseCursor { cursor } => {
            let mut w = Writer::new(10);
            w.u32(*cursor);
            w.buf
        }
        Request::Count => Writer::new(11).buf,
        Request::Shutdown => Writer::new(12).buf,
        Request::ShardCount => Writer::new(15).buf,
        Request::Reshard { shards } => {
            let mut w = Writer::new(16);
            w.u32(*shards);
            w.buf
        }
        Request::Hello { version } => {
            let mut w = Writer::new(17);
            w.u32(*version);
            w.buf
        }
        Request::Insert { rows } => {
            let mut w = Writer::new(18);
            w.u32(rows.len() as u32);
            for (loc, poly) in rows {
                w.loc(*loc);
                w.bytes(poly);
            }
            w.buf
        }
        Request::Delete { pres } => {
            let mut w = Writer::new(19);
            w.u32s(pres);
            w.buf
        }
        Request::MaxPre => Writer::new(20).buf,
        Request::Roots => Writer::new(21).buf,
        Request::Epoch => Writer::new(22).buf,
        Request::Agg {
            op,
            pres,
            expect_epoch,
        } => {
            let mut w = Writer::new(23);
            w.u8(*op);
            w.u64(*expect_epoch);
            w.u32s(pres);
            w.buf
        }
        Request::Batch(subs) => {
            let mut w = Writer::new(13);
            w.u32(subs.len() as u32);
            for sub in subs {
                debug_assert!(
                    !matches!(sub, Request::Batch(_) | Request::ToShard { .. }),
                    "batches must be flat"
                );
                w.bytes(&encode_request(sub));
            }
            w.buf
        }
        Request::ToShard { shard, req } => {
            let mut w = Writer::new(14);
            w.u32(*shard);
            debug_assert!(
                !matches!(**req, Request::ToShard { .. }),
                "shard tags must not nest"
            );
            w.bytes(&encode_request(req));
            w.buf
        }
        Request::Pair { data, mac } => {
            let mut w = Writer::new(24);
            for half in [data, mac] {
                debug_assert!(
                    !matches!(**half, Request::Pair { .. }),
                    "pairs must not nest"
                );
                w.bytes(&encode_request(half));
            }
            w.buf
        }
    }
}

/// How deep compound frames may nest when decoding: a `Pair` carries two
/// top-level frames, a `ToShard` may carry a `Batch`, a `Batch` carries
/// only simple frames. Responses nest the same way (`Batch` and `Pair`
/// only; `InShard` never arises).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Nesting {
    /// Top level: every frame allowed.
    Top,
    /// A half of a `Pair`: everything the top level allows but a `Pair`.
    InPair,
    /// Inside `ToShard`: `Batch` allowed, `ToShard` and `Pair` not.
    InShard,
    /// Inside `Batch`: simple frames only.
    InBatch,
}

/// Deserialises a request.
pub fn decode_request(buf: &[u8]) -> Result<Request, CoreError> {
    decode_request_nested(buf, Nesting::Top)
}

fn decode_request_nested(buf: &[u8], nesting: Nesting) -> Result<Request, CoreError> {
    let mut r = Reader::new(buf);
    let tag = r.u8()?;
    let req = match tag {
        1 => Request::GetLoc { pre: r.u32()? },
        2 => Request::Children { pre: r.u32()? },
        3 => Request::Descendants { loc: r.loc()? },
        5 => Request::EvalMany {
            pres: r.u32s()?,
            point: r.u64()?,
        },
        6 => Request::GetPolys { pres: r.u32s()? },
        7 => Request::OpenChildrenCursor { pres: r.u32s()? },
        8 => {
            let n = r.u32()? as usize;
            let n = r.items(n, 12)?;
            let locs = (0..n).map(|_| r.loc()).collect::<Result<Vec<_>, _>>()?;
            Request::OpenDescendantsCursor { locs }
        }
        9 => Request::Next { cursor: r.u32()? },
        10 => Request::CloseCursor { cursor: r.u32()? },
        11 => Request::Count,
        12 => Request::Shutdown,
        15 => Request::ShardCount,
        16 => Request::Reshard { shards: r.u32()? },
        17 => Request::Hello { version: r.u32()? },
        18 => {
            if nesting == Nesting::InBatch {
                return Err(CoreError::Transport("write frame refused in batch".into()));
            }
            let n = r.u32()? as usize;
            // Each row costs at least its 12 Loc bytes plus a length prefix.
            let n = r.items(n, 16)?;
            let rows = (0..n)
                .map(|_| Ok((r.loc()?, r.bytes()?)))
                .collect::<Result<Vec<_>, CoreError>>()?;
            Request::Insert { rows }
        }
        19 => {
            if nesting == Nesting::InBatch {
                return Err(CoreError::Transport("write frame refused in batch".into()));
            }
            Request::Delete { pres: r.u32s()? }
        }
        20 => Request::MaxPre,
        21 => Request::Roots,
        22 => Request::Epoch,
        23 => {
            let op = r.u8()?;
            if op > AGG_FETCH {
                return Err(CoreError::Transport(format!("unknown agg op {op}")));
            }
            Request::Agg {
                op,
                expect_epoch: r.u64()?,
                pres: r.u32s()?,
            }
        }
        13 => {
            if nesting == Nesting::InBatch {
                return Err(CoreError::Transport("nested batch refused".into()));
            }
            let n = r.u32()? as usize;
            // Each sub-frame costs at least its length prefix plus a tag.
            let n = r.items(n, 5)?;
            let subs = (0..n)
                .map(|_| decode_request_nested(r.bytes_ref()?, Nesting::InBatch))
                .collect::<Result<Vec<_>, _>>()?;
            Request::Batch(subs)
        }
        14 => {
            if !matches!(nesting, Nesting::Top | Nesting::InPair) {
                return Err(CoreError::Transport("nested shard tag refused".into()));
            }
            let shard = r.u32()?;
            let req = decode_request_nested(r.bytes_ref()?, Nesting::InShard)?;
            Request::ToShard {
                shard,
                req: Box::new(req),
            }
        }
        24 => {
            if nesting != Nesting::Top {
                return Err(CoreError::Transport("nested pair refused".into()));
            }
            let data = decode_request_nested(r.bytes_ref()?, Nesting::InPair)?;
            let mac = decode_request_nested(r.bytes_ref()?, Nesting::InPair)?;
            Request::Pair {
                data: Box::new(data),
                mac: Box::new(mac),
            }
        }
        t => return Err(CoreError::Transport(format!("unknown request tag {t}"))),
    };
    r.finish()?;
    Ok(req)
}

/// Serialises a response.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::MaybeLoc(opt) => {
            let mut w = Writer::new(0);
            match opt {
                None => w.u32(0),
                Some(l) => {
                    w.u32(1);
                    w.loc(*l);
                }
            }
            w.buf
        }
        Response::Locs(locs) => {
            let mut w = Writer::new(1);
            w.u32(locs.len() as u32);
            for &l in locs {
                w.loc(l);
            }
            w.buf
        }
        Response::Values(vs) => {
            let mut w = Writer::new(3);
            w.u32(vs.len() as u32);
            for &v in vs {
                w.u64(v);
            }
            w.buf
        }
        Response::Polys(ps) => {
            let mut w = Writer::new(4);
            w.u32(ps.len() as u32);
            for p in ps {
                w.bytes(p);
            }
            w.buf
        }
        Response::Cursor(c) => {
            let mut w = Writer::new(5);
            w.u32(*c);
            w.buf
        }
        Response::Count(n) => {
            let mut w = Writer::new(6);
            w.u64(*n);
            w.buf
        }
        Response::Ok => Writer::new(7).buf,
        Response::Err(msg) => {
            let mut w = Writer::new(8);
            w.bytes(msg.as_bytes());
            w.buf
        }
        Response::Batch(subs) => {
            let mut w = Writer::new(9);
            w.u32(subs.len() as u32);
            for sub in subs {
                debug_assert!(!matches!(sub, Response::Batch(_)), "batches must be flat");
                w.bytes(&encode_response(sub));
            }
            w.buf
        }
        Response::Hello { version, shards } => {
            let mut w = Writer::new(10);
            w.u32(*version);
            w.u32(*shards);
            w.buf
        }
        Response::Agg { found, partials } => {
            let mut w = Writer::new(11);
            w.u32s(found);
            w.u32(partials.len() as u32);
            for p in partials {
                w.bytes(p);
            }
            w.buf
        }
        Response::Pair { data, mac } => {
            let mut w = Writer::new(12);
            for half in [data, mac] {
                debug_assert!(
                    !matches!(**half, Response::Pair { .. }),
                    "pairs must not nest"
                );
                w.bytes(&encode_response(half));
            }
            w.buf
        }
    }
}

/// Deserialises a response.
pub fn decode_response(buf: &[u8]) -> Result<Response, CoreError> {
    decode_response_nested(buf, Nesting::Top)
}

fn decode_response_nested(buf: &[u8], nesting: Nesting) -> Result<Response, CoreError> {
    let mut r = Reader::new(buf);
    let tag = r.u8()?;
    let resp = match tag {
        0 => {
            let has = r.u32()?;
            Response::MaybeLoc(if has == 1 { Some(r.loc()?) } else { None })
        }
        1 => {
            let n = r.u32()? as usize;
            let n = r.items(n, 12)?;
            Response::Locs((0..n).map(|_| r.loc()).collect::<Result<Vec<_>, _>>()?)
        }
        3 => {
            let n = r.u32()? as usize;
            let n = r.items(n, 8)?;
            Response::Values((0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?)
        }
        4 => {
            let n = r.u32()? as usize;
            // Each packed polynomial costs at least its length prefix.
            let n = r.items(n, 4)?;
            Response::Polys((0..n).map(|_| r.bytes()).collect::<Result<Vec<_>, _>>()?)
        }
        5 => Response::Cursor(r.u32()?),
        6 => Response::Count(r.u64()?),
        7 => Response::Ok,
        8 => {
            let msg = r.bytes()?;
            Response::Err(String::from_utf8_lossy(&msg).into_owned())
        }
        9 => {
            if nesting == Nesting::InBatch {
                return Err(CoreError::Transport("nested batch refused".into()));
            }
            let n = r.u32()? as usize;
            // Each sub-frame costs at least its length prefix plus a tag.
            let n = r.items(n, 5)?;
            let subs = (0..n)
                .map(|_| decode_response_nested(r.bytes_ref()?, Nesting::InBatch))
                .collect::<Result<Vec<_>, _>>()?;
            Response::Batch(subs)
        }
        10 => Response::Hello {
            version: r.u32()?,
            shards: r.u32()?,
        },
        12 => {
            if nesting != Nesting::Top {
                return Err(CoreError::Transport("nested pair refused".into()));
            }
            let data = decode_response_nested(r.bytes_ref()?, Nesting::InPair)?;
            let mac = decode_response_nested(r.bytes_ref()?, Nesting::InPair)?;
            Response::Pair {
                data: Box::new(data),
                mac: Box::new(mac),
            }
        }
        11 => {
            let found = r.u32s()?;
            let n = r.u32()? as usize;
            // Each packed partial costs at least its length prefix.
            let n = r.items(n, 4)?;
            Response::Agg {
                found,
                partials: (0..n).map(|_| r.bytes()).collect::<Result<Vec<_>, _>>()?,
            }
        }
        t => return Err(CoreError::Transport(format!("unknown response tag {t}"))),
    };
    r.finish()?;
    Ok(resp)
}

// ---- zero-copy response views ----------------------------------------------

/// The element array of a `Values` frame, viewed in place when possible.
///
/// A `Values` payload is `count` little-endian `u64`s starting 5 bytes into
/// the frame (tag + count prefix), so its natural alignment is an accident
/// of the receive buffer. When the payload happens to be 8-byte aligned on a
/// little-endian host the slice is reinterpreted in place; otherwise the
/// elements are copied out once. Both arms present the same `&[u64]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValuesView<'a> {
    /// Payload bytes reinterpreted in place — no allocation, no copy.
    Borrowed(&'a [u64]),
    /// Copy fallback: misaligned payload or big-endian host.
    Owned(Vec<u64>),
}

impl ValuesView<'_> {
    /// The elements, wherever they live.
    pub fn as_slice(&self) -> &[u64] {
        match self {
            ValuesView::Borrowed(s) => s,
            ValuesView::Owned(v) => v,
        }
    }

    /// Detaches the view from the frame.
    pub fn into_vec(self) -> Vec<u64> {
        match self {
            ValuesView::Borrowed(s) => s.to_vec(),
            ValuesView::Owned(v) => v,
        }
    }
}

/// Interprets `bytes` (exactly `n` little-endian u64s) as a [`ValuesView`],
/// borrowing in place when alignment and endianness allow.
fn values_view(bytes: &[u8], n: usize) -> ValuesView<'_> {
    debug_assert_eq!(bytes.len(), n * 8);
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `align_to` only yields a non-empty prefix-free middle when
        // the pointer is 8-byte aligned and the length covers whole u64s;
        // every u64 bit pattern is valid, and on a little-endian host the
        // in-memory bytes of a u64 are exactly the wire encoding.
        let (head, mid, tail) = unsafe { bytes.align_to::<u64>() };
        if head.is_empty() && tail.is_empty() && mid.len() == n {
            return ValuesView::Borrowed(mid);
        }
    }
    ValuesView::Owned(
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect(),
    )
}

/// A response decoded without copying its bulk payloads out of the frame.
///
/// Accepts exactly the frames [`decode_response`] accepts and rejects
/// exactly the frames it rejects — the two decoders share the `Reader`
/// validation path, so `decode_response_view(buf).map(ResponseView::into_owned)`
/// is observationally identical to `decode_response(buf)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseView<'a> {
    /// `Values` with the element array viewed in place when aligned.
    Values(ValuesView<'a>),
    /// `Polys` with each packed polynomial borrowed from the frame.
    Polys(Vec<&'a [u8]>),
    /// `Batch` of borrowed sub-views.
    Batch(Vec<ResponseView<'a>>),
    /// Every other variant carries no bulk payload; decoded eagerly.
    Other(Response),
}

impl<'a> ResponseView<'a> {
    /// A view lending the bulk payloads of an already-decoded response —
    /// what [`crate::transport::Transport::call_with`]'s default
    /// implementation hands to the sink when a transport has no wire buffer
    /// to borrow from. Non-bulk variants are cloned (they are a few words).
    pub fn of(resp: &'a Response) -> ResponseView<'a> {
        match resp {
            Response::Values(vs) => ResponseView::Values(ValuesView::Borrowed(vs)),
            Response::Polys(ps) => ResponseView::Polys(ps.iter().map(|p| p.as_slice()).collect()),
            Response::Batch(subs) => {
                ResponseView::Batch(subs.iter().map(ResponseView::of).collect())
            }
            other => ResponseView::Other(other.clone()),
        }
    }

    /// Converts to the owned [`Response`], copying any still-borrowed data.
    pub fn into_owned(self) -> Response {
        match self {
            ResponseView::Values(v) => Response::Values(v.into_vec()),
            ResponseView::Polys(ps) => {
                Response::Polys(ps.into_iter().map(|p| p.to_vec()).collect())
            }
            ResponseView::Batch(subs) => {
                Response::Batch(subs.into_iter().map(|s| s.into_owned()).collect())
            }
            ResponseView::Other(r) => r,
        }
    }
}

/// Zero-copy counterpart of [`decode_response`]: bulk payloads (`Values`
/// elements, `Polys` bytes) stay borrowed from `buf`; everything else is
/// decoded as usual. Same validation, same errors.
pub fn decode_response_view(buf: &[u8]) -> Result<ResponseView<'_>, CoreError> {
    decode_response_view_nested(buf, Nesting::Top)
}

fn decode_response_view_nested(
    buf: &[u8],
    nesting: Nesting,
) -> Result<ResponseView<'_>, CoreError> {
    let mut r = Reader::new(buf);
    let tag = r.u8()?;
    let view = match tag {
        3 => {
            let n = r.u32()? as usize;
            let n = r.items(n, 8)?;
            ResponseView::Values(values_view(r.take(n * 8)?, n))
        }
        4 => {
            let n = r.u32()? as usize;
            let n = r.items(n, 4)?;
            ResponseView::Polys(
                (0..n)
                    .map(|_| r.bytes_ref())
                    .collect::<Result<Vec<_>, _>>()?,
            )
        }
        9 => {
            if nesting == Nesting::InBatch {
                return Err(CoreError::Transport("nested batch refused".into()));
            }
            let n = r.u32()? as usize;
            let n = r.items(n, 5)?;
            let subs = (0..n)
                .map(|_| decode_response_view_nested(r.bytes_ref()?, Nesting::InBatch))
                .collect::<Result<Vec<_>, _>>()?;
            ResponseView::Batch(subs)
        }
        _ => {
            // No bulk payload behind this tag (a `Pair` is answered owned:
            // the fleet combines its halves, nobody views them): the owned
            // decoder takes it under the same nesting rules.
            return decode_response_nested(buf, nesting).map(ResponseView::Other);
        }
    };
    r.finish()?;
    Ok(view)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(pre: u32) -> Loc {
        Loc {
            pre,
            post: pre + 1,
            parent: pre.saturating_sub(1),
        }
    }

    #[test]
    fn request_round_trips() {
        let cases = vec![
            Request::GetLoc { pre: 7 },
            Request::Children { pre: 42 },
            Request::Descendants { loc: loc(3) },
            Request::EvalMany {
                pres: vec![1],
                point: 82,
            },
            Request::EvalMany {
                pres: vec![1, 2, 3],
                point: 5,
            },
            Request::EvalMany {
                pres: vec![],
                point: 0,
            },
            Request::GetPolys { pres: vec![9, 8] },
            Request::OpenChildrenCursor { pres: vec![1] },
            Request::OpenDescendantsCursor {
                locs: vec![loc(1), loc(5)],
            },
            Request::Next { cursor: 2 },
            Request::CloseCursor { cursor: 2 },
            Request::Count,
            Request::Shutdown,
            Request::ShardCount,
            Request::Reshard { shards: 4 },
            Request::Hello {
                version: MUX_PROTOCOL_VERSION,
            },
            Request::Insert { rows: vec![] },
            Request::Insert {
                rows: vec![(loc(1), vec![1, 2, 3]), (loc(2), vec![])],
            },
            Request::Delete { pres: vec![] },
            Request::Delete { pres: vec![4, 5] },
            Request::MaxPre,
            Request::Roots,
            Request::Epoch,
            Request::Agg {
                op: AGG_CHECK,
                pres: vec![],
                expect_epoch: 0,
            },
            Request::Agg {
                op: AGG_SUM,
                pres: vec![1 << 30, (1 << 30) + 7],
                expect_epoch: 12,
            },
            Request::Agg {
                op: AGG_FETCH,
                pres: vec![9],
                expect_epoch: u64::MAX,
            },
            Request::Batch(vec![
                Request::Roots,
                Request::Epoch,
                Request::Agg {
                    op: AGG_SUM,
                    pres: vec![5],
                    expect_epoch: 3,
                },
            ]),
            Request::ToShard {
                shard: 1,
                req: Box::new(Request::Insert {
                    rows: vec![(loc(9), vec![0xAB; 17])],
                }),
            },
            Request::ToShard {
                shard: 3,
                req: Box::new(Request::Delete { pres: vec![7] }),
            },
            Request::Batch(vec![]),
            Request::Batch(vec![
                Request::Roots,
                Request::Children { pre: 4 },
                Request::EvalMany {
                    pres: vec![1, 9],
                    point: 3,
                },
            ]),
            Request::ToShard {
                shard: 2,
                req: Box::new(Request::Count),
            },
            Request::ToShard {
                shard: 0,
                req: Box::new(Request::Batch(vec![Request::Roots, Request::Count])),
            },
            Request::Pair {
                data: Box::new(Request::EvalMany {
                    pres: vec![1, 2],
                    point: 9,
                }),
                mac: Box::new(Request::ToShard {
                    shard: 1,
                    req: Box::new(Request::EvalMany {
                        pres: vec![1, 2],
                        point: 9,
                    }),
                }),
            },
            Request::Pair {
                data: Box::new(Request::Batch(vec![
                    Request::Roots,
                    Request::GetPolys { pres: vec![3] },
                ])),
                mac: Box::new(Request::ToShard {
                    shard: 1,
                    req: Box::new(Request::Batch(vec![Request::GetPolys { pres: vec![3] }])),
                }),
            },
            Request::Pair {
                data: Box::new(Request::ToShard {
                    shard: 0,
                    req: Box::new(Request::Insert {
                        rows: vec![(loc(4), vec![7; 5])],
                    }),
                }),
                mac: Box::new(Request::ToShard {
                    shard: 1,
                    req: Box::new(Request::Delete { pres: vec![4] }),
                }),
            },
        ];
        for req in cases {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let cases = vec![
            Response::MaybeLoc(None),
            Response::MaybeLoc(Some(loc(4))),
            Response::Locs(vec![]),
            Response::Locs(vec![loc(1), loc(2)]),
            Response::Values(vec![0, 1, 82]),
            Response::Polys(vec![vec![1, 2, 3], vec![]]),
            Response::Cursor(9),
            Response::Count(1234),
            Response::Ok,
            Response::Err("boom".into()),
            Response::Batch(vec![]),
            Response::Batch(vec![
                Response::Ok,
                Response::Values(vec![7, 0]),
                Response::Err("one bad slot".into()),
            ]),
            Response::Hello {
                version: 1,
                shards: 4,
            },
            Response::Agg {
                found: vec![],
                partials: vec![],
            },
            Response::Agg {
                found: vec![1 << 30, (1 << 30) + 4],
                partials: vec![vec![7, 8, 9], vec![]],
            },
            Response::Pair {
                data: Box::new(Response::Values(vec![3, 4])),
                mac: Box::new(Response::Values(vec![5, 6])),
            },
            Response::Pair {
                data: Box::new(Response::Batch(vec![
                    Response::Ok,
                    Response::Polys(vec![vec![1]]),
                ])),
                mac: Box::new(Response::Err("one refused half".into())),
            },
        ];
        for resp in cases {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn corrupt_frames_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99]).is_err(), "unknown tag");
        assert!(decode_request(&[2, 1, 0]).is_err(), "truncated Children");
        assert!(
            decode_response(&[1, 255, 255, 255, 255]).is_err(),
            "absurd length"
        );
        // Trailing garbage detected.
        let mut ok = encode_request(&Request::Roots);
        ok.push(0);
        assert!(decode_request(&ok).is_err());
    }

    /// The retired single-shot frames (`Root` = request tag 0, `Eval` =
    /// request tag 4, `Value` = response tag 2) decode like any unknown tag:
    /// a typed error. `Roots` and a one-item `EvalMany` cover them, and no
    /// surviving tag was renumbered.
    #[test]
    fn retired_tags_are_rejected_like_unknown_ones() {
        assert!(decode_request(&[0]).is_err(), "retired Root");
        let mut eval = vec![4u8];
        eval.extend_from_slice(&1u32.to_le_bytes());
        eval.extend_from_slice(&82u64.to_le_bytes());
        assert!(decode_request(&eval).is_err(), "retired Eval");
        let mut value = vec![2u8];
        value.extend_from_slice(&81u64.to_le_bytes());
        assert!(decode_response(&value).is_err(), "retired Value");
        assert!(
            decode_response_view(&value).is_err(),
            "retired Value (view)"
        );
        for (req, tag) in [
            (Request::GetLoc { pre: 1 }, 1u8),
            (Request::Roots, 21),
            (Request::Epoch, 22),
        ] {
            assert_eq!(encode_request(&req)[0], tag, "{req:?}");
        }
    }

    /// A hostile length prefix must fail the per-element bound check before
    /// any collector pre-allocates from it: `n` declared elements cannot
    /// outnumber the bytes left in the frame divided by the element's
    /// minimum encoding size.
    #[test]
    fn absurd_counts_rejected_before_allocation() {
        // Batch claiming u32::MAX sub-requests with an empty body.
        let mut w = vec![13u8];
        w.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&w).is_err());
        // Locs response claiming more entries than 12 bytes each allow.
        let mut w = vec![1u8];
        w.extend_from_slice(&3u32.to_le_bytes());
        w.extend_from_slice(&[0u8; 24]); // room for 2, not 3
        assert!(decode_response(&w).is_err());
        // Polys response with a huge count and no payload.
        let mut w = vec![4u8];
        w.extend_from_slice(&(1u32 << 30).to_le_bytes());
        assert!(decode_response(&w).is_err());
        // OpenDescendantsCursor with a count that cannot fit.
        let mut w = vec![8u8];
        w.extend_from_slice(&1000u32.to_le_bytes());
        w.extend_from_slice(&[0u8; 12]);
        assert!(decode_request(&w).is_err());
        // Insert claiming more rows than 16 bytes each allow.
        let mut w = vec![18u8];
        w.extend_from_slice(&100u32.to_le_bytes());
        w.extend_from_slice(&[0u8; 32]); // room for 2, not 100
        assert!(decode_request(&w).is_err());
        // Agg claiming more pres than the frame holds.
        let mut w = vec![23u8, AGG_SUM];
        w.extend_from_slice(&0u64.to_le_bytes());
        w.extend_from_slice(&1000u32.to_le_bytes());
        w.extend_from_slice(&[0u8; 8]); // room for 2, not 1000
        assert!(decode_request(&w).is_err());
        // Agg response with a hostile partial count.
        let mut w = encode_response(&Response::Agg {
            found: vec![],
            partials: vec![],
        });
        w.truncate(w.len() - 4);
        w.extend_from_slice(&(1u32 << 30).to_le_bytes());
        assert!(decode_response(&w).is_err());
    }

    /// An unknown aggregation op must be refused at decode time — a server
    /// must never guess what a newer client meant.
    #[test]
    fn unknown_agg_op_rejected() {
        let mut w = encode_request(&Request::Agg {
            op: AGG_FETCH,
            pres: vec![],
            expect_epoch: 0,
        });
        w[1] = AGG_FETCH + 1;
        assert!(decode_request(&w).is_err());
    }

    #[test]
    fn compound_nesting_rules_enforced() {
        // A hand-built Batch-in-Batch frame must be refused by the decoder.
        let inner = encode_request(&Request::Batch(vec![Request::Roots]));
        let mut w = vec![13u8];
        w.extend_from_slice(&1u32.to_le_bytes());
        w.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        w.extend_from_slice(&inner);
        assert!(decode_request(&w).is_err(), "nested batch");

        // ToShard-in-ToShard likewise.
        let inner = encode_request(&Request::ToShard {
            shard: 1,
            req: Box::new(Request::Roots),
        });
        let mut w = vec![14u8];
        w.extend_from_slice(&0u32.to_le_bytes());
        w.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        w.extend_from_slice(&inner);
        assert!(decode_request(&w).is_err(), "nested shard tag");

        // ToShard-in-Batch likewise (batches are flat).
        let inner = encode_request(&Request::ToShard {
            shard: 1,
            req: Box::new(Request::Roots),
        });
        let mut w = vec![13u8];
        w.extend_from_slice(&1u32.to_le_bytes());
        w.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        w.extend_from_slice(&inner);
        assert!(decode_request(&w).is_err(), "shard tag inside batch");

        // Write frames inside a Batch are refused (writes must not be
        // reorderable against the reads sharing the round trip).
        for write in [
            Request::Insert {
                rows: vec![(loc(1), vec![1])],
            },
            Request::Delete { pres: vec![1] },
        ] {
            let inner = encode_request(&write);
            let mut w = vec![13u8];
            w.extend_from_slice(&1u32.to_le_bytes());
            w.extend_from_slice(&(inner.len() as u32).to_le_bytes());
            w.extend_from_slice(&inner);
            assert!(decode_request(&w).is_err(), "write frame inside batch");
        }

        // Batch-in-Batch on the response side.
        let inner = encode_response(&Response::Batch(vec![Response::Ok]));
        let mut w = vec![9u8];
        w.extend_from_slice(&1u32.to_le_bytes());
        w.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        w.extend_from_slice(&inner);
        assert!(decode_response(&w).is_err(), "nested response batch");

        // Pairs are top-level only: a pair inside a `Batch`, a `ToShard` or
        // another pair is refused by both decoders.
        let pair = encode_request(&Request::Pair {
            data: Box::new(Request::Count),
            mac: Box::new(Request::Count),
        });
        let count = encode_request(&Request::Count);
        let mut in_batch = vec![13u8];
        in_batch.extend_from_slice(&1u32.to_le_bytes());
        in_batch.extend(framed(&[&pair]));
        assert!(decode_request(&in_batch).is_err(), "pair inside a batch");
        let mut in_shard = vec![14u8];
        in_shard.extend_from_slice(&1u32.to_le_bytes());
        in_shard.extend(framed(&[&pair]));
        assert!(
            decode_request(&in_shard).is_err(),
            "pair inside a shard tag"
        );
        for halves in [[&pair[..], &count[..]], [&count[..], &pair[..]]] {
            let mut in_pair = vec![24u8];
            in_pair.extend(framed(&halves));
            assert!(decode_request(&in_pair).is_err(), "pair inside a pair");
        }

        let resp = encode_response(&Response::Pair {
            data: Box::new(Response::Ok),
            mac: Box::new(Response::Ok),
        });
        let ok = encode_response(&Response::Ok);
        let mut in_batch = vec![9u8];
        in_batch.extend_from_slice(&1u32.to_le_bytes());
        in_batch.extend(framed(&[&resp]));
        let mut in_pair = vec![12u8];
        in_pair.extend(framed(&[&ok, &resp]));
        // A batch inside a response pair's half is legal; inside that
        // batch, a pair is not.
        let mut batch_in_pair = vec![12u8];
        batch_in_pair.extend(framed(&[&in_batch, &ok]));
        for frame in [in_batch, in_pair, batch_in_pair] {
            assert!(decode_response(&frame).is_err(), "nested response pair");
            assert!(decode_response_view(&frame).is_err(), "nested (view)");
        }
    }

    /// Length-prefixes each frame, as a compound frame carries it.
    fn framed(frames: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            out.extend_from_slice(&(f.len() as u32).to_le_bytes());
            out.extend_from_slice(f);
        }
        out
    }

    /// The single-request frames of the seed protocol must stay bit-identical
    /// — a sharded/batched client and a PR-2 server can interoperate on them.
    #[test]
    fn legacy_frame_bytes_unchanged() {
        assert_eq!(
            encode_request(&Request::EvalMany {
                pres: vec![1],
                point: 82
            }),
            vec![5, 1, 0, 0, 0, 1, 0, 0, 0, 82, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(encode_request(&Request::Count), vec![11]);
        assert_eq!(encode_request(&Request::Shutdown), vec![12]);
        assert_eq!(
            encode_request(&Request::Reshard { shards: 2 }),
            vec![16, 2, 0, 0, 0],
            "the PR-4 frame claims a fresh tag"
        );
        assert_eq!(
            encode_request(&Request::Hello { version: 1 }),
            vec![17, 1, 0, 0, 0],
            "the PR-5 handshake claims a fresh tag"
        );
        assert_eq!(
            encode_request(&Request::Insert {
                rows: vec![(
                    Loc {
                        pre: 1,
                        post: 2,
                        parent: 0
                    },
                    vec![0xAA]
                )]
            }),
            vec![18, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xAA],
            "the PR-9 insert frame claims a fresh tag"
        );
        assert_eq!(
            encode_request(&Request::Delete { pres: vec![3] }),
            vec![19, 1, 0, 0, 0, 3, 0, 0, 0],
            "the PR-9 delete frame claims a fresh tag"
        );
        assert_eq!(encode_request(&Request::MaxPre), vec![20]);
        assert_eq!(encode_request(&Request::Roots), vec![21]);
        assert_eq!(
            encode_request(&Request::Epoch),
            vec![22],
            "the PR-10 epoch probe claims a fresh tag"
        );
        assert_eq!(
            encode_request(&Request::Agg {
                op: AGG_SUM,
                pres: vec![2],
                expect_epoch: 3,
            }),
            vec![23, 1, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0],
            "the PR-10 aggregate frame claims a fresh tag"
        );
        assert_eq!(encode_response(&Response::Values(vec![81])), {
            let mut v = vec![3u8, 1, 0, 0, 0];
            v.extend_from_slice(&81u64.to_le_bytes());
            v
        });
        assert_eq!(encode_response(&Response::Ok), vec![7]);
        assert_eq!(
            encode_request(&Request::Pair {
                data: Box::new(Request::Count),
                mac: Box::new(Request::ToShard {
                    shard: 1,
                    req: Box::new(Request::Count)
                }),
            }),
            vec![24, 1, 0, 0, 0, 11, 10, 0, 0, 0, 14, 1, 0, 0, 0, 1, 0, 0, 0, 11],
            "the pair frame claims a fresh tag and carries both frames unchanged"
        );
        assert_eq!(
            encode_response(&Response::Pair {
                data: Box::new(Response::Ok),
                mac: Box::new(Response::Count(2)),
            }),
            vec![12, 1, 0, 0, 0, 7, 9, 0, 0, 0, 6, 2, 0, 0, 0, 0, 0, 0, 0],
            "the pair answer claims a fresh tag and carries both answers unchanged"
        );
    }

    /// The view decoder must accept exactly what the owned decoder accepts
    /// and produce the same value, for every variant and at every buffer
    /// alignment — the borrow is an optimisation, never a semantic change.
    #[test]
    fn view_decode_matches_owned_decode() {
        let cases = vec![
            Response::MaybeLoc(Some(loc(4))),
            Response::Locs(vec![loc(1), loc(2)]),
            Response::Values(vec![]),
            Response::Values(vec![0, 1, 82, u64::MAX]),
            Response::Values((0..100).collect()),
            Response::Polys(vec![vec![1, 2, 3], vec![]]),
            Response::Cursor(9),
            Response::Count(1234),
            Response::Ok,
            Response::Err("boom".into()),
            Response::Batch(vec![
                Response::Ok,
                Response::Values(vec![7, 0]),
                Response::Polys(vec![vec![9]]),
                Response::Err("one bad slot".into()),
            ]),
            Response::Hello {
                version: 1,
                shards: 4,
            },
            Response::Pair {
                data: Box::new(Response::Batch(vec![Response::Values(vec![1, 2])])),
                mac: Box::new(Response::Polys(vec![vec![3]])),
            },
        ];
        for resp in cases {
            let bytes = encode_response(&resp);
            // Decode the same frame at 8 different alignments: copy it into
            // a padded buffer so the Values payload lands aligned for some
            // shifts and misaligned for others. Results must not differ.
            let mut padded = vec![0u8; bytes.len() + 16];
            for shift in 0..8 {
                padded[shift..shift + bytes.len()].copy_from_slice(&bytes);
                let view = decode_response_view(&padded[shift..shift + bytes.len()]).unwrap();
                assert_eq!(view.into_owned(), resp, "{resp:?} shift={shift}");
            }
        }
    }

    /// When the `Values` payload happens to be 8-byte aligned the view must
    /// actually borrow (that is the perf point), and the copy fallback must
    /// fire on the other alignments.
    #[cfg(target_endian = "little")]
    #[test]
    fn values_view_borrows_when_aligned() {
        let resp = Response::Values(vec![5, 6, 7]);
        let bytes = encode_response(&resp);
        let mut padded = vec![0u8; bytes.len() + 16];
        let mut borrowed = 0;
        let mut owned = 0;
        for shift in 0..8 {
            padded[shift..shift + bytes.len()].copy_from_slice(&bytes);
            match decode_response_view(&padded[shift..shift + bytes.len()]).unwrap() {
                ResponseView::Values(ValuesView::Borrowed(s)) => {
                    assert_eq!(s, &[5, 6, 7]);
                    borrowed += 1;
                }
                ResponseView::Values(ValuesView::Owned(v)) => {
                    assert_eq!(v, vec![5, 6, 7]);
                    owned += 1;
                }
                other => panic!("unexpected view {other:?}"),
            }
        }
        // The payload starts 5 bytes into the frame, so exactly one of the
        // 8 shifts puts it on an 8-byte boundary.
        assert_eq!(borrowed, 1, "exactly one shift should align the payload");
        assert_eq!(owned, 7);
    }

    /// Corrupt frames must be rejected by both decoders alike.
    #[test]
    fn view_decode_rejects_what_owned_rejects() {
        let corrupt: Vec<Vec<u8>> = vec![
            vec![],
            vec![99],
            {
                // Values claiming more elements than the frame holds.
                let mut w = vec![3u8];
                w.extend_from_slice(&10u32.to_le_bytes());
                w.extend_from_slice(&[0u8; 16]);
                w
            },
            {
                // Polys with a hostile count.
                let mut w = vec![4u8];
                w.extend_from_slice(&(1u32 << 30).to_le_bytes());
                w
            },
            {
                // Nested batch.
                let inner = encode_response(&Response::Batch(vec![Response::Ok]));
                let mut w = vec![9u8];
                w.extend_from_slice(&1u32.to_le_bytes());
                w.extend_from_slice(&(inner.len() as u32).to_le_bytes());
                w.extend_from_slice(&inner);
                w
            },
            {
                // Trailing garbage after a valid Values frame.
                let mut w = encode_response(&Response::Values(vec![1]));
                w.push(0);
                w
            },
        ];
        for frame in corrupt {
            assert!(
                decode_response(&frame).is_err(),
                "owned should reject {frame:?}"
            );
            assert!(
                decode_response_view(&frame).is_err(),
                "view should reject {frame:?}"
            );
        }
    }

    /// The correlation envelope is the legacy frame with 8 id bytes in
    /// front — nothing inside the frame changes, and splitting returns the
    /// id exactly as written.
    #[test]
    fn corr_envelope_round_trips_and_rejects_short_payloads() {
        let frame = encode_request(&Request::Count);
        for corr in [0u64, 1, u64::MAX, 0xDEAD_BEEF_0102_0304] {
            let payload = encode_corr_payload(corr, &frame);
            assert_eq!(payload.len(), CORR_BYTES + frame.len());
            let (got, inner) = decode_corr_payload(&payload).unwrap();
            assert_eq!(got, corr);
            assert_eq!(inner, &frame[..], "inner bytes are the legacy frame");
        }
        for short in 0..CORR_BYTES {
            assert!(decode_corr_payload(&vec![0u8; short]).is_err());
        }
        // Exactly 8 bytes: a valid envelope around an empty frame.
        let bare = 7u64.to_le_bytes();
        let (corr, inner) = decode_corr_payload(&bare).unwrap();
        assert_eq!(corr, 7);
        assert!(inner.is_empty());
    }
}
