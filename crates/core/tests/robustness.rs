//! Adversarial-input robustness: malformed frames, corrupted rows and
//! hostile servers must surface as errors, never as panics or wrong answers.

use proptest::prelude::*;
use ssx_core::protocol::{decode_request, decode_response, encode_request, Request};
use ssx_core::{encode_document, ClientFilter, LocalTransport, MapFile, ServerFilter};
use ssx_prg::Seed;
use ssx_store::{Loc, Row, Table};

proptest! {
    /// The wire decoders are total: arbitrary bytes decode or error, never
    /// panic, and never allocate absurd amounts.
    #[test]
    fn decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Valid frames with trailing garbage are rejected.
    #[test]
    fn trailing_garbage_rejected(extra in 1usize..8) {
        let mut frame = encode_request(&Request::Count);
        frame.extend(std::iter::repeat_n(0xAA, extra));
        prop_assert!(decode_request(&frame).is_err());
    }
}

fn secrets() -> (MapFile, Seed) {
    (
        MapFile::sequential(83, 1, &["site", "a", "b"]).unwrap(),
        Seed::from_test_key(404),
    )
}

#[test]
fn server_reports_corrupt_rows_instead_of_panicking() {
    let (map, seed) = secrets();
    let out = encode_document("<site><a/><b/></site>", &map, &seed).unwrap();
    // Rebuild the table with one row's polynomial bytes set to an invalid
    // radix encoding (all 0xFF decodes to a value >= q^n).
    let mut table = Table::new(out.table.poly_len());
    for (i, row) in out.table.rows().iter().enumerate() {
        let poly = if i == 0 {
            vec![0xFFu8; out.table.poly_len()].into_boxed_slice()
        } else {
            row.poly.clone()
        };
        table.insert(Row { loc: row.loc, poly }).unwrap();
    }
    let corrupt_pre = out.table.rows()[0].loc.pre;
    let mut server = ServerFilter::new(table, out.ring);
    match server.handle(&Request::EvalMany {
        pres: vec![corrupt_pre],
        point: 5,
    }) {
        ssx_core::protocol::Response::Err(msg) => {
            assert!(msg.contains(&format!("pre={corrupt_pre}")), "{msg}")
        }
        other => panic!("expected an error response, got {other:?}"),
    }
}

#[test]
fn client_surfaces_corrupt_polys_from_equality_test() {
    let (map, seed) = secrets();
    let out = encode_document("<site><a/><b/></site>", &map, &seed).unwrap();
    // Flip a byte inside the root's stored share: reconstruction no longer
    // factors as (x - t) * children, so a verified equality test fails.
    let mut table = Table::new(out.table.poly_len());
    for row in out.table.rows() {
        let mut poly = row.poly.clone();
        if row.loc.pre == 1 {
            poly[7] ^= 0x11;
        }
        table.insert(Row { loc: row.loc, poly }).unwrap();
    }
    let server = ServerFilter::new(table, out.ring);
    let mut client = ClientFilter::new(LocalTransport::new(server), map, seed).unwrap();
    let root = client.roots().unwrap()[0];
    let vsite = client.value_of("site").unwrap();
    let err = client.equality(root, vsite).unwrap_err();
    assert!(
        matches!(err, ssx_core::CoreError::Corrupt(_)),
        "expected Corrupt, got {err:?}"
    );
}

#[test]
fn unknown_nodes_error_cleanly() {
    let (map, seed) = secrets();
    let out = encode_document("<site/>", &map, &seed).unwrap();
    let server = ServerFilter::new(out.table, out.ring);
    let mut client = ClientFilter::new(LocalTransport::new(server), map, seed).unwrap();
    // Containment on a non-existent node.
    let ghost = Loc {
        pre: 99,
        post: 99,
        parent: 0,
    };
    assert!(client.containment(ghost, 5).is_err());
    // Structure queries on missing nodes return empty, not errors.
    assert_eq!(client.children(99).unwrap(), vec![]);
    assert_eq!(client.loc_of(99).unwrap(), None);
}

#[test]
fn zero_point_evaluation_is_well_defined_but_useless() {
    // map values are never 0, but a hostile client may ask the server to
    // evaluate at 0; the protocol must answer (with the constant term)
    // rather than crash.
    let (map, seed) = secrets();
    let out = encode_document("<site><a/></site>", &map, &seed).unwrap();
    let mut server = ServerFilter::new(out.table, out.ring);
    match server.handle(&Request::EvalMany {
        pres: vec![1],
        point: 0,
    }) {
        ssx_core::protocol::Response::Values(_) => {}
        other => panic!("{other:?}"),
    }
    // Out-of-field points are a client error the server reports.
    match server.handle(&Request::EvalMany {
        pres: vec![1],
        point: 83,
    }) {
        ssx_core::protocol::Response::Err(_) | ssx_core::protocol::Response::Values(_) => {}
        other => panic!("{other:?}"),
    }
}
