//! The wire decoders are *total*: no byte string — random, truncated,
//! bit-flipped, or length-spliced — may panic or over-allocate. Malformed
//! frames must come back as `Err`, well-formed frames as the value that
//! produced them. This is the fuzz-style hardening suite the speculative /
//! re-sharding plane leans on: every frame a hostile client can send
//! travels through exactly these two entry points.

use proptest::prelude::*;
use ssx_core::protocol::{
    decode_corr_payload, decode_request, decode_response, encode_corr_payload, encode_request,
    encode_response, Request, Response, CORR_BYTES,
};
use ssx_store::Loc;
use std::collections::HashMap;

fn arb_loc() -> impl Strategy<Value = Loc> {
    (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(pre, post, parent)| Loc {
        pre,
        post,
        parent,
    })
}

/// Every simple (non-compound) request variant with arbitrary payloads.
fn arb_simple_request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::Roots),
        any::<u32>().prop_map(|pre| Request::GetLoc { pre }),
        any::<u32>().prop_map(|pre| Request::Children { pre }),
        arb_loc().prop_map(|loc| Request::Descendants { loc }),
        (proptest::collection::vec(any::<u32>(), 0..8), any::<u64>())
            .prop_map(|(pres, point)| Request::EvalMany { pres, point }),
        proptest::collection::vec(any::<u32>(), 0..8).prop_map(|pres| Request::GetPolys { pres }),
        Just(Request::Count),
        Just(Request::Shutdown),
        Just(Request::ShardCount),
        any::<u32>().prop_map(|shards| Request::Reshard { shards }),
        any::<u32>().prop_map(|version| Request::Hello { version }),
    ]
    .boxed()
}

/// Simple, batched, or shard-tagged requests: every legal top-level frame
/// except a pair, i.e. every legal half of one.
fn arb_unpaired_request() -> BoxedStrategy<Request> {
    prop_oneof![
        4 => arb_simple_request(),
        1 => proptest::collection::vec(arb_simple_request(), 0..5)
            .prop_map(Request::Batch),
        1 => (any::<u32>(), arb_simple_request())
            .prop_map(|(shard, req)| Request::ToShard { shard, req: Box::new(req) }),
        1 => (any::<u32>(), proptest::collection::vec(arb_simple_request(), 0..4))
            .prop_map(|(shard, subs)| Request::ToShard {
                shard,
                req: Box::new(Request::Batch(subs)),
            }),
    ]
    .boxed()
}

/// A data/MAC pair of any two legal halves.
fn arb_pair() -> BoxedStrategy<Request> {
    (arb_unpaired_request(), arb_unpaired_request())
        .prop_map(|(data, mac)| Request::Pair {
            data: Box::new(data),
            mac: Box::new(mac),
        })
        .boxed()
}

/// The full legal wire surface: simple, batched, shard-tagged and paired.
fn arb_request() -> BoxedStrategy<Request> {
    prop_oneof![6 => arb_unpaired_request(), 1 => arb_pair()].boxed()
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

/// Every legal top-level response except a pair, i.e. every legal half
/// of one.
fn arb_unpaired_response() -> BoxedStrategy<Response> {
    let simple = prop_oneof![
        proptest::option::of(arb_loc()).prop_map(Response::MaybeLoc),
        proptest::collection::vec(arb_loc(), 0..6).prop_map(Response::Locs),
        proptest::collection::vec(any::<u64>(), 0..8).prop_map(Response::Values),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 0..5)
            .prop_map(Response::Polys),
        any::<u64>().prop_map(Response::Count),
        Just(Response::Ok),
        proptest::collection::vec(any::<u8>(), 0..12)
            .prop_map(|b| Response::Err(String::from_utf8_lossy(&b).into_owned())),
        (any::<u32>(), any::<u32>())
            .prop_map(|(version, shards)| Response::Hello { version, shards }),
    ]
    .boxed();
    let batch = proptest::collection::vec(simple.clone(), 0..5).prop_map(Response::Batch);
    prop_oneof![4 => simple, 1 => batch].boxed()
}

/// The answer to a pair: any two legal halves.
fn arb_response_pair() -> BoxedStrategy<Response> {
    (arb_unpaired_response(), arb_unpaired_response())
        .prop_map(|(data, mac)| Response::Pair {
            data: Box::new(data),
            mac: Box::new(mac),
        })
        .boxed()
}

fn arb_response() -> BoxedStrategy<Response> {
    prop_oneof![6 => arb_unpaired_response(), 1 => arb_response_pair()].boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Raw random bytes: decoding returns, it never panics or aborts.
    #[test]
    fn decoders_total_on_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Random bytes behind every known tag byte: exercises each decoder arm
    /// with garbage payloads (pure random bytes rarely pick small tags).
    #[test]
    fn decoders_total_behind_every_tag(
        tag in 0u8..26,
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut frame = vec![tag];
        frame.extend_from_slice(&body);
        let _ = decode_request(&frame);
        let _ = decode_response(&frame);
    }

    /// Well-formed frames round-trip exactly.
    #[test]
    fn request_encode_decode_round_trips(req in arb_request()) {
        let bytes = encode_request(&req);
        prop_assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn response_encode_decode_round_trips(resp in arb_response()) {
        let bytes = encode_response(&resp);
        prop_assert_eq!(decode_response(&bytes).unwrap(), resp);
    }

    /// Arbitrary responses round-trip wherever the frame lands in the
    /// receive buffer: the bulk `Values` read does not depend on alignment.
    #[test]
    fn responses_round_trip_at_any_alignment(resp in arb_response(), shift in 0usize..8) {
        let bytes = encode_response(&resp);
        let mut padded = vec![0u8; shift];
        padded.extend_from_slice(&bytes);
        prop_assert_eq!(decode_response(&padded[shift..]).unwrap(), resp);
    }

    /// Any truncation of a valid frame decodes to an error — never a panic,
    /// never a silently shorter value.
    #[test]
    fn truncated_frames_error_cleanly(req in arb_request(), cut in any::<proptest::sample::Index>()) {
        let bytes = encode_request(&req);
        let keep = cut.index(bytes.len().max(1));
        if keep < bytes.len() {
            prop_assert!(decode_request(&bytes[..keep]).is_err());
        }
    }

    /// Single-byte corruption of a valid frame must decode to an error or to
    /// some other *valid* value — never panic. (A flipped byte inside a
    /// payload legitimately yields a different frame.)
    #[test]
    fn bitflipped_frames_never_panic(
        req in arb_request(),
        at in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_request(&req);
        if !bytes.is_empty() {
            let i = at.index(bytes.len());
            bytes[i] ^= xor;
            let _ = decode_request(&bytes);
        }
    }

    /// Pairs are top-level only: a well-formed pair carried inside a
    /// `Batch`, inside a `ToShard`, or as either half of another pair is
    /// refused, never decoded.
    #[test]
    fn nested_pairs_are_refused(
        pair in arb_pair(),
        other in arb_unpaired_request(),
        shard in any::<u32>(),
        first in any::<bool>(),
    ) {
        let pair = encode_request(&pair);
        let other = encode_request(&other);
        let mut in_batch = vec![13u8];
        in_batch.extend_from_slice(&1u32.to_le_bytes());
        in_batch.extend(framed(&[&pair]));
        prop_assert!(decode_request(&in_batch).is_err(), "pair inside a batch");
        let mut in_shard = vec![14u8];
        in_shard.extend_from_slice(&shard.to_le_bytes());
        in_shard.extend(framed(&[&pair]));
        prop_assert!(decode_request(&in_shard).is_err(), "pair inside a shard tag");
        let mut in_pair = vec![24u8];
        if first {
            in_pair.extend(framed(&[&pair, &other]));
        } else {
            in_pair.extend(framed(&[&other, &pair]));
        }
        prop_assert!(decode_request(&in_pair).is_err(), "pair inside a pair");
    }

    /// Truncating or bit-flipping a well-formed pair — either direction —
    /// errors or decodes to some other value; it never panics, and a
    /// truncation never decodes.
    #[test]
    fn damaged_pairs_never_panic(
        req in arb_pair(),
        resp in arb_response_pair(),
        cut in any::<proptest::sample::Index>(),
        at in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let req = encode_request(&req);
        let resp = encode_response(&resp);
        for (bytes, is_req) in [(req, true), (resp, false)] {
            let decode = |b: &[u8]| {
                if is_req {
                    decode_request(b).is_ok()
                } else {
                    decode_response(b).is_ok()
                }
            };
            let keep = cut.index(bytes.len());
            prop_assert!(!decode(&bytes[..keep]), "truncated frame decoded");
            let mut flipped = bytes.clone();
            let i = at.index(flipped.len());
            flipped[i] ^= xor;
            let _ = decode(&flipped);
        }
    }

    /// Splicing an arbitrary u32 over any aligned position (where length
    /// prefixes and counts live) must not panic or over-allocate.
    #[test]
    fn length_spliced_frames_never_panic(
        resp in arb_response(),
        at in any::<proptest::sample::Index>(),
        word in any::<u32>(),
    ) {
        let mut bytes = encode_response(&resp);
        if bytes.len() >= 4 {
            let i = at.index(bytes.len() - 3);
            bytes[i..i + 4].copy_from_slice(&word.to_le_bytes());
            let _ = decode_response(&bytes);
        }
    }

    // ---- correlation envelope (the PR-5 mux framing) ------------------------

    /// The envelope round-trips any id around any frame, and the split is
    /// exact: the id comes back bit-identical and the inner bytes are the
    /// untouched legacy frame.
    #[test]
    fn corr_envelope_round_trips(corr in any::<u64>(), req in arb_request()) {
        let frame = encode_request(&req);
        let payload = encode_corr_payload(corr, &frame);
        let (got, inner) = decode_corr_payload(&payload).unwrap();
        prop_assert_eq!(got, corr);
        prop_assert_eq!(decode_request(inner).unwrap(), req);
    }

    /// The envelope splitter is total on random bytes: short payloads are
    /// typed errors, everything ≥ 8 bytes splits without panicking, and the
    /// returned id is exactly the first 8 little-endian bytes — a garbage
    /// or bit-flipped prefix can only ever name the id it spells out.
    #[test]
    fn corr_decoder_total_and_exact_on_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        match decode_corr_payload(&bytes) {
            Ok((corr, inner)) => {
                prop_assert!(bytes.len() >= CORR_BYTES);
                prop_assert_eq!(
                    corr,
                    u64::from_le_bytes(bytes[..CORR_BYTES].try_into().unwrap())
                );
                prop_assert_eq!(inner, &bytes[CORR_BYTES..]);
            }
            Err(_) => prop_assert!(bytes.len() < CORR_BYTES),
        }
    }

    /// Truncating a mux payload anywhere inside the id errors; truncating
    /// inside the inner frame yields an error *from the inner decoder* —
    /// never a panic, never a silently different id.
    #[test]
    fn corr_truncations_never_panic(
        corr in any::<u64>(),
        req in arb_request(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let payload = encode_corr_payload(corr, &encode_request(&req));
        let keep = cut.index(payload.len());
        match decode_corr_payload(&payload[..keep]) {
            Ok((got, inner)) => {
                prop_assert_eq!(got, corr, "a truncation cannot change the id");
                prop_assert!(decode_request(inner).is_err(), "truncated inner frame");
            }
            Err(_) => prop_assert!(keep < CORR_BYTES),
        }
    }

    /// The slot-confusion property, end to end over the real envelope: park
    /// distinct completion slots, deliver their responses in arbitrary
    /// order interleaved with garbage and id-corrupted frames, and require
    /// that every slot resolves with exactly its own payload. A frame can
    /// complete slot `c` only by carrying `c`; the parked ids are chosen to
    /// differ in *every* byte (repeat-byte pattern), so a single-byte
    /// corruption of an id provably names no parked slot — corruption may
    /// lose a delivery, never cross two slots.
    #[test]
    fn corrupted_frames_never_complete_the_wrong_slot(
        raw_ids in proptest::collection::btree_set(any::<u8>(), 2..8),
        order in any::<u64>(),
        garbage in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..24), 0..6),
        flip_at in any::<proptest::sample::Index>(),
        flip_xor in 1u8..=255,
    ) {
        // Distinct bytes fanned across all 8 id bytes: any two parked ids
        // differ everywhere, so no single-byte flip maps one to another.
        let corrs: Vec<u64> = raw_ids
            .into_iter()
            .map(|b| u64::from_le_bytes([b; 8]))
            .collect();
        // Each slot's expected answer is unmistakably its own.
        let frames: Vec<Vec<u8>> = corrs
            .iter()
            .enumerate()
            .map(|(i, &c)| encode_corr_payload(c, &encode_response(&Response::Count(i as u64))))
            .collect();
        let mut pending: HashMap<u64, usize> =
            corrs.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let mut delivered: Vec<Option<Response>> = vec![None; corrs.len()];

        // Interleave: real frames in a rotated order, garbage in between,
        // plus one copy of a real frame with a corrupted id byte.
        let rot = (order as usize) % frames.len();
        let mut wire: Vec<Vec<u8>> = Vec::new();
        for (k, f) in frames.iter().enumerate() {
            wire.push(frames[(k + rot) % frames.len()].clone());
            if let Some(g) = garbage.get(k) {
                wire.push(g.clone());
            }
            if k == 0 {
                let mut flipped = f.clone();
                let i = flip_at.index(CORR_BYTES);
                flipped[i] ^= flip_xor;
                wire.push(flipped);
            }
        }
        // The client reader's delivery discipline: split, look up, remove.
        for payload in wire {
            let Ok((corr, inner)) = decode_corr_payload(&payload) else {
                continue;
            };
            if let Some(slot) = pending.remove(&corr) {
                if let Ok(resp) = decode_response(inner) {
                    prop_assert!(delivered[slot].is_none(), "double delivery");
                    delivered[slot] = Some(resp);
                }
            }
        }
        for (i, got) in delivered.iter().enumerate() {
            match got {
                Some(resp) => prop_assert_eq!(
                    resp,
                    &Response::Count(i as u64),
                    "slot {} resolved with another slot's payload", i
                ),
                None => prop_assert!(false, "slot {} lost its uncorrupted delivery", i),
            }
        }
    }
}
