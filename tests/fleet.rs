//! The multi-party fleet end to end, pinning the PR-6 acceptance
//! criteria: fig5 chain results, waves and speculation counters must be
//! *bit-identical* between the single-party in-process plane and a
//! 3-server (t = 2) TCP fleet; killing any single server mid-run must
//! still return correct results; a corrupted share must be detected and
//! attributed to the lying party; the 3-process `ssxdb` CLI fleet
//! (encode --servers / serve --party / remote --fleet) must round-trip;
//! every wave costs each party it asks exactly one frame, a read asking
//! t parties and a write all n; and a party lying about structure is
//! caught, at t = 1 too, hedged or not.

mod common;

use common::Hosts;
use ssxdb::core::protocol::{Request, Response};
use ssxdb::core::transport::{Transport, TransportStats};
use ssxdb::core::{
    encode_document_at, encode_document_fleet, fleet_mac_key, local_fleet_router, party_server,
    run_aggregate, serve_tcp_mux, AggOp, AggregateSpec, ChaosConfig, ChaosTransport, ClientFilter,
    CoreError, EncryptedDb, Engine, EngineKind, FleetEncodeOutput, FleetLeg, FleetSpec,
    FleetTransport, LocalPartyTransport, MapFile, MatchRule, MuxPool, PartyHealth, PartyStore,
    ResilienceConfig, ShardRouter, ShardSpec, ShardedServer,
};
use ssxdb::poly::{Packer, RingCtx};
use ssxdb::prg::{Prg, Seed};
use ssxdb::store::{Loc, Row, Table};
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xpath::parse_query;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The Table-1 chain and the bench harness's exact secrets/document (same
/// as `speculation.rs`), so "fig5" here is the committed figure.
const FIG5_CHAIN: &str = "/site/regions/europe/item/description/parlist/listitem/text/keyword";

fn bench_secrets() -> (MapFile, Seed) {
    (
        MapFile::random(83, 1, &DTD_ELEMENTS, &mut Prg::from_u64(0x2005)).unwrap(),
        Seed::from_test_key(0x5D4_2005),
    )
}

fn bench_document() -> String {
    generate(&XmarkConfig {
        seed: 0x2005,
        target_bytes: 64 * 1024,
    })
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

fn stop_host(addr: SocketAddr) {
    let mut closer = MuxPool::dial(addr, None).unwrap().transport(0);
    closer.call(&Request::Shutdown).unwrap();
}

/// The headline acceptance criterion: on the fig5 chain, the 3-server
/// (t = 2) TCP fleet answers with the same results, the same wave count
/// and the same speculation counters as the single-party in-process
/// plane — speculation off and on.
#[test]
fn fig5_chain_is_bit_identical_between_single_party_and_tcp_fleet() {
    let xml = bench_document();
    let (map, seed) = bench_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet_out = encode_document_fleet(&xml, &map, &seed, spec).unwrap();
    let ring = fleet_out.ring.clone();
    let hosts: Vec<_> = fleet_out
        .parties
        .into_iter()
        .map(|p| spawn_party(p, &ring))
        .collect();
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();

    for speculate in [false, true] {
        let mut single = EncryptedDb::encode(&xml, map.clone(), seed.clone()).unwrap();
        single.set_speculation(speculate);
        let mut fleet =
            EncryptedDb::connect_fleet_mux(&addrs, 2, map.clone(), seed.clone()).unwrap();
        fleet.set_speculation(speculate);

        let a = single
            .query(FIG5_CHAIN, EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        let b = fleet
            .query(FIG5_CHAIN, EngineKind::Simple, MatchRule::Containment)
            .unwrap();
        assert_eq!(a.result, b.result, "speculate={speculate}: results");
        assert_eq!(
            a.stats.round_trips, b.stats.round_trips,
            "speculate={speculate}: wave count"
        );
        assert_eq!(
            a.stats.speculative_hits, b.stats.speculative_hits,
            "speculate={speculate}: speculative hits"
        );
        assert_eq!(
            a.stats.speculative_wasted, b.stats.speculative_wasted,
            "speculate={speculate}: speculative waste"
        );
        if speculate {
            assert!(b.stats.speculative_hits > 0, "the chain must speculate");
        }
    }

    for (a, _) in &hosts {
        stop_host(*a);
    }
    for (_, h) in hosts {
        h.join().unwrap();
    }
}

/// What a fleet pipe did, in order: a wave began (`Wave`, logged by the
/// pipe wrapper before the wave runs) or a leg carried a call (`Leg`).
#[derive(Clone, Copy, Debug)]
enum Event {
    Wave { write: bool },
    Leg(usize),
}

type EventLog = Arc<Mutex<Vec<Event>>>;

/// A party leg that logs every call it carries.
struct CountingLeg {
    party: usize,
    inner: LocalPartyTransport,
    log: EventLog,
}

impl Transport for CountingLeg {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        self.log.lock().unwrap().push(Event::Leg(self.party));
        self.inner.call(req)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// A fleet pipe that logs the start of every wave it runs.
struct MarkedPipe {
    pipe: FleetTransport<CountingLeg>,
    log: EventLog,
}

impl Transport for MarkedPipe {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        let inner = match req {
            Request::ToShard { req, .. } => req.as_ref(),
            other => other,
        };
        let write = matches!(inner, Request::Insert { .. } | Request::Delete { .. });
        self.log.lock().unwrap().push(Event::Wave { write });
        self.pipe.call(req)
    }

    fn stats(&self) -> TransportStats {
        self.pipe.stats()
    }
}

/// An in-process 3-party t = 2 fleet client whose legs run in turn, with
/// every wave and leg call logged.
fn logged_fleet(
    xml: &str,
    map: &MapFile,
    seed: &Seed,
) -> (ClientFilter<ShardRouter<MarkedPipe>>, EventLog) {
    let spec = FleetSpec::new(3, 2).unwrap();
    let FleetEncodeOutput {
        parties,
        ring,
        packer,
        ..
    } = encode_document_fleet(xml, map, seed, spec).unwrap();
    let log = EventLog::default();
    let legs = parties
        .into_iter()
        .map(|p| {
            let host = party_server(p.data, p.mac, &ring, 1).unwrap();
            let leg = CountingLeg {
                party: p.party,
                inner: LocalPartyTransport::new(Arc::new(Mutex::new(host))),
                log: Arc::clone(&log),
            };
            FleetLeg::up(p.party, leg)
        })
        .collect();
    let alpha = fleet_mac_key(seed, &ring);
    let mut pipe = FleetTransport::new(legs, 2, 1, 0, ring, packer, alpha, false);
    pipe.set_split_seed(seed.clone());
    let marked = MarkedPipe {
        pipe,
        log: Arc::clone(&log),
    };
    let router = ShardRouter::new(ShardSpec::new(1), vec![marked], false, false);
    (
        ClientFilter::new(router, map.clone(), seed.clone()).unwrap(),
        log,
    )
}

/// One frame per asked party per wave, and a read asks t parties: on an
/// in-process 3-party t = 2 fleet with legs called in turn and no hedging,
/// every read wave of the fig5 chain, a ranged SUM and a query after a
/// write costs exactly two leg calls to two distinct parties, every party
/// is asked within any three consecutive read waves, and an insert and a
/// delete cost one call to each of the three parties — while answers and
/// wave counts stay bit-identical to the single-party plane.
#[test]
fn every_fleet_wave_costs_one_frame_per_party() {
    let xml = bench_document();
    let (map, seed) = bench_secrets();
    let (mut fleet, log) = logged_fleet(&xml, &map, &seed);
    let mut single = EncryptedDb::encode(&xml, map.clone(), seed.clone()).unwrap();
    // Wave counts are compared across the two deployments: pin both sides'
    // speculation, which unpinned follows each one's measured `Roots` wave
    // time.
    fleet.transport_mut().set_speculation(false);
    single.set_speculation(false);

    let chain = parse_query(FIG5_CHAIN).unwrap();
    let (kind, rule) = (EngineKind::Simple, MatchRule::Containment);
    let a = single.run(&chain, kind, rule).unwrap();
    let b = Engine::run(kind, rule, &chain, &mut fleet).unwrap();
    assert!(!a.result.is_empty());
    assert_eq!(a.result, b.result, "fig5 results");
    assert_eq!(a.stats.round_trips, b.stats.round_trips, "fig5 waves");

    let sum = AggregateSpec {
        query: parse_query("//item/quantity").unwrap(),
        op: AggOp::Sum,
        range: Some((1, 3)),
    };
    let (kind, rule) = (EngineKind::Advanced, MatchRule::Equality);
    let a = single.run_aggregate(&sum, kind, rule).unwrap();
    let b = run_aggregate(&mut fleet, kind, rule, &sum).unwrap();
    assert!(a.count > 0, "the range must match something");
    assert_eq!(
        (a.count, a.contributing, a.sum),
        (b.count, b.contributing, b.sum),
        "ranged SUM"
    );
    assert_eq!(a.walk.round_trips, b.walk.round_trips, "SUM walk waves");
    assert_eq!(a.closing_waves, b.closing_waves, "SUM closing waves");

    // A write goes to every party: insert a document, then delete it, and
    // read again after.
    let offset = fleet.max_pre().unwrap();
    let doc = encode_document_at(
        "<site><people><person/></people></site>",
        &map,
        &seed,
        offset,
    )
    .unwrap();
    let rows: Vec<_> = doc
        .table
        .rows()
        .iter()
        .map(|r| (r.loc, r.poly.to_vec()))
        .collect();
    let pres: Vec<u32> = rows.iter().map(|(loc, _)| loc.pre).collect();
    let count = pres.len() as u64;
    assert_eq!(fleet.insert_rows(rows).unwrap(), count);
    assert_eq!(fleet.delete_pres(pres).unwrap(), count);
    let (kind, rule) = (EngineKind::Simple, MatchRule::Containment);
    let b = Engine::run(kind, rule, &chain, &mut fleet).unwrap();
    assert_eq!(single.run(&chain, kind, rule).unwrap().result, b.result);

    let mut waves: Vec<(bool, Vec<usize>)> = Vec::new();
    for event in log.lock().unwrap().iter() {
        match *event {
            Event::Wave { write } => waves.push((write, Vec::new())),
            Event::Leg(party) => waves
                .last_mut()
                .expect("a leg call outside a wave")
                .1
                .push(party),
        }
    }
    let pipe_waves = fleet.transport().transports()[0].stats().round_trips;
    assert_eq!(waves.len() as u64, pipe_waves);
    let (writes, reads): (Vec<_>, Vec<_>) = waves.into_iter().partition(|(write, _)| *write);
    assert_eq!(writes.len(), 2, "one insert wave and one delete wave");
    for (_, mut parties) in writes {
        parties.sort_unstable();
        assert_eq!(parties, [1, 2, 3], "a write wave asks every party once");
    }
    assert!(reads.len() > 40, "{} read waves", reads.len());
    for (i, (_, parties)) in reads.iter().enumerate() {
        assert_eq!(parties.len(), 2, "read wave {i} asked {parties:?}");
        assert_ne!(parties[0], parties[1], "read wave {i} asked {parties:?}");
    }
    for (i, three) in reads.windows(3).enumerate() {
        let mut asked: Vec<usize> = three.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        asked.sort_unstable();
        asked.dedup();
        assert_eq!(
            asked,
            [1, 2, 3],
            "read waves {i}..{} left a party out",
            i + 3
        );
    }
}

/// A party leg whose structural answers lie when `lies` is set: it drops
/// the last location of every `Locs` answer and bumps every `Count`, in
/// batches and in the data half of a pair too. Share answers are honest.
struct LyingLeg {
    inner: LocalPartyTransport,
    lies: bool,
}

fn lie(resp: Response) -> Response {
    match resp {
        Response::Locs(mut locs) => {
            locs.pop();
            Response::Locs(locs)
        }
        Response::Count(c) => Response::Count(c + 1),
        Response::Batch(slots) => Response::Batch(slots.into_iter().map(lie).collect()),
        Response::Pair { data, mac } => Response::Pair {
            data: Box::new(lie(*data)),
            mac,
        },
        other => other,
    }
}

impl Transport for LyingLeg {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        let resp = self.inner.call(req)?;
        Ok(if self.lies { lie(resp) } else { resp })
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

const SMALL_XML: &str = "<site><a><b/><b/></a><c><a><b/></a></c></site>";

type LiarClient<T> = ClientFilter<ShardRouter<FleetTransport<T>>>;

/// An in-process 3-party fleet at `threshold` whose party 2 lies about
/// structure, each party's leg passed through `wrap(party, leg)`, and the
/// single-party answer to `//a/b` on the same document.
fn liar_fleet<T: Transport + Send + 'static>(
    threshold: usize,
    mut wrap: impl FnMut(usize, LyingLeg) -> T,
) -> (LiarClient<T>, Vec<Loc>) {
    let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
    let seed = Seed::from_test_key(21);
    let want = EncryptedDb::encode(SMALL_XML, map.clone(), seed.clone())
        .unwrap()
        .query("//a/b", EngineKind::Simple, MatchRule::Equality)
        .unwrap()
        .result;
    let spec = FleetSpec::new(3, threshold).unwrap();
    let out = encode_document_fleet(SMALL_XML, &map, &seed, spec).unwrap();
    let router = local_fleet_router(out, &seed, 1, |party, inner| {
        wrap(
            party,
            LyingLeg {
                inner,
                lies: party == 2,
            },
        )
    })
    .unwrap();
    (ClientFilter::new(router, map, seed).unwrap(), want)
}

fn query_ab<T: Transport + Send + 'static>(
    client: &mut LiarClient<T>,
) -> Result<Vec<Loc>, CoreError> {
    let query = parse_query("//a/b").unwrap();
    Engine::run(EngineKind::Simple, MatchRule::Equality, &query, client).map(|out| out.result)
}

/// Runs `//a/b` `runs` times on a t = 1 liar fleet: every answer must be
/// exact, exactly one run errs, naming party 2 as outvoted by the two
/// honest parties, and party 2 ends quarantined, so every answer after
/// that error is exact.
fn liar_outvoted<T: Transport + Send + 'static>(
    client: &mut LiarClient<T>,
    want: &[Loc],
    runs: usize,
) {
    let mut caught = 0;
    for run in 0..runs {
        match query_ab(client) {
            Ok(got) => assert_eq!(got, want, "run {run}: the lie was returned"),
            Err(e) => {
                assert_eq!(caught, 0, "run {run} erred after the liar was caught: {e}");
                assert!(
                    matches!(e, CoreError::Corrupt(_))
                        && e.to_string()
                            .contains("party 2 disagreed with the 2-party quorum"),
                    "{e:?}"
                );
                caught += 1;
            }
        }
    }
    assert_eq!(caught, 1, "no structural wave asked party 2");
    let status = client.transport().transports()[0].party_status();
    assert_eq!(status[1].health, PartyHealth::Quarantined);
}

/// A party that lies about structure is caught at t = 2. A read wave asks
/// two parties, so queries run until a structural wave asks the liar: its
/// pair finds no 2-party agreement, the wave widens, and the liar is named
/// and quarantined. Every answer before is exact, and so is the retry.
#[test]
fn a_structural_liar_is_named_and_quarantined() {
    let (mut client, want) = liar_fleet(2, |_, leg| leg);
    let err = (0..6)
        .find_map(|_| match query_ab(&mut client) {
            Ok(got) => {
                assert_eq!(got, want, "an answer before the liar was asked");
                None
            }
            Err(e) => Some(e),
        })
        .expect("no structural wave asked party 2");
    assert!(matches!(err, CoreError::Corrupt(_)), "{err:?}");
    assert!(
        err.to_string()
            .contains("party 2 disagreed with the 2-party quorum"),
        "{err}"
    );
    let status = client.transport().transports()[0].party_status();
    assert_eq!(status[1].health, PartyHealth::Quarantined);
    assert_eq!(
        query_ab(&mut client).unwrap(),
        want,
        "the retry answers exactly"
    );
}

/// At t = 1 a structural answer still needs a second witness, which is why
/// a read asks `max(t, 2)` parties: a wave that asks the liar sees its two
/// answers disagree and widens, and the two honest parties outvote the
/// liar, which is named and quarantined. The lie is never returned, and
/// the fleet answers exactly from then on.
#[test]
fn at_t1_a_structural_lie_is_a_disagreement_never_an_answer() {
    let (mut client, want) = liar_fleet(1, |_, leg| leg);
    liar_outvoted(&mut client, &want, 12);
}

/// A hedged wave waits for `max(t, 2)` answers that verify, not `t`: at
/// t = 1, with the liar answering at once and the honest parties 20 ms
/// late, the liar's answer alone would otherwise answer the wave. Its
/// lie meets a second witness instead, the third answer outvotes it, and
/// the liar is quarantined.
#[test]
fn a_hedged_t1_wave_never_returns_a_structural_lie() {
    let (mut client, want) = liar_fleet(1, |party, leg| {
        let cfg = if party == 2 {
            ChaosConfig::quiet(7)
        } else {
            ChaosConfig::fixed_delay(7, Duration::from_millis(20))
        };
        ChaosTransport::new(leg, cfg)
    });
    for pipe in client.transport_mut().transports_mut() {
        pipe.set_resilience(ResilienceConfig {
            hedge: true,
            ..Default::default()
        });
    }
    liar_outvoted(&mut client, &want, 12);
}

/// A party leg that acknowledges every insert with one row too many, on
/// both of its planes alike: its planes agree, so only the other parties'
/// acknowledgements can expose it. Reads stay honest.
struct AckLiar {
    inner: LocalPartyTransport,
    lies: bool,
}

impl Transport for AckLiar {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        let resp = self.inner.call(req)?;
        let insert = matches!(req, Request::Pair { data, .. }
            if matches!(&**data, Request::ToShard { req, .. } if matches!(**req, Request::Insert { .. })));
        Ok(match resp {
            Response::Pair { data, mac } if self.lies && insert => {
                let bump = |r: Box<Response>| match *r {
                    Response::Count(c) => Box::new(Response::Count(c + 1)),
                    other => Box::new(other),
                };
                Response::Pair {
                    data: bump(data),
                    mac: bump(mac),
                }
            }
            other => other,
        })
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// At t = 1 the outvoting reaches the write path too: a party that
/// acknowledges an insert with a count the two honest parties do not
/// give is named and quarantined, where two 1-party quorums used to fail
/// the write with nobody blamed, and every retry with it. The write still
/// fails, and the router's compensation rolls it back on the honest
/// parties; with the liar gone, a retry commits, and deleting the document
/// restores the exact answers.
#[test]
fn at_t1_a_party_that_lies_about_an_insert_is_outvoted() {
    let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
    let seed = Seed::from_test_key(21);
    let want = EncryptedDb::encode(SMALL_XML, map.clone(), seed.clone())
        .unwrap()
        .query("//a/b", EngineKind::Simple, MatchRule::Equality)
        .unwrap()
        .result;
    let out = encode_document_fleet(SMALL_XML, &map, &seed, FleetSpec::new(3, 1).unwrap()).unwrap();
    let router = local_fleet_router(out, &seed, 1, |party, inner| AckLiar {
        inner,
        lies: party == 2,
    })
    .unwrap();
    let mut client = ClientFilter::new(router, map.clone(), seed.clone()).unwrap();
    assert_eq!(query_ab(&mut client).unwrap(), want);

    let offset = client.max_pre().unwrap();
    let doc = encode_document_at("<site><a><b/></a></site>", &map, &seed, offset).unwrap();
    let rows: Vec<_> = doc
        .table
        .rows()
        .iter()
        .map(|r| (r.loc, r.poly.to_vec()))
        .collect();
    let pres: Vec<u32> = rows.iter().map(|(loc, _)| loc.pre).collect();
    let e = client.insert_rows(rows.clone()).unwrap_err();
    assert!(
        matches!(e, CoreError::Corrupt(_))
            && e.to_string()
                .contains("party 2 disagreed with the 2-party quorum"),
        "{e:?}"
    );
    let status = client.transport().transports()[0].party_status();
    assert_eq!(status[1].health, PartyHealth::Quarantined);
    assert_eq!(query_ab(&mut client).unwrap(), want, "rolled back");
    assert_eq!(client.insert_rows(rows).unwrap(), pres.len() as u64);
    assert_eq!(query_ab(&mut client).unwrap().len(), want.len() + 1);
    assert_eq!(client.delete_pres(pres.clone()).unwrap(), pres.len() as u64);
    for _ in 0..6 {
        assert_eq!(query_ab(&mut client).unwrap(), want);
    }
}

/// A party leg whose share answers lie: in the data half of a pair it adds
/// 1 to one coefficient of the *last* polynomial of a `Polys` answer and of
/// the *last* partial of an `Agg` answer. Values and structure stay honest.
struct ShareLiar {
    inner: LocalPartyTransport,
    ring: RingCtx,
    lies: bool,
}

fn bump_last(ring: &RingCtx, packed: &mut [Vec<u8>]) {
    let packer = Packer::new(ring);
    if let Some(last) = packed.last_mut() {
        let mut coeffs = packer.unpack_radix(ring, last).unwrap().coeffs().to_vec();
        coeffs[0] = ring.field().add(coeffs[0], ring.field().one());
        *last = packer.pack_radix(&ring.poly_from_coeffs(coeffs).unwrap());
    }
}

fn lie_about_shares(ring: &RingCtx, resp: Response) -> Response {
    match resp {
        Response::Polys(mut polys) => {
            bump_last(ring, &mut polys);
            Response::Polys(polys)
        }
        Response::Agg {
            found,
            mut partials,
        } => {
            bump_last(ring, &mut partials);
            Response::Agg { found, partials }
        }
        Response::Batch(slots) => Response::Batch(
            slots
                .into_iter()
                .map(|r| lie_about_shares(ring, r))
                .collect(),
        ),
        Response::Pair { data, mac } => Response::Pair {
            data: Box::new(lie_about_shares(ring, *data)),
            mac,
        },
        other => other,
    }
}

impl Transport for ShareLiar {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        let resp = self.inner.call(req)?;
        Ok(if self.lies {
            lie_about_shares(&self.ring, resp)
        } else {
            resp
        })
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// The share combiner checks every shape in one pass, down to the last
/// element. Party 2 of an in-process 3-party t = 2 fleet corrupts only the
/// last partial of each aggregate close and the last of three fetched
/// polynomials. SUMs are exact until a closing wave asks party 2; that
/// wave widens, attributes the lie to party 2 and quarantines it, and the
/// retry is exact. A fresh fleet's three-polynomial fetch goes the same
/// way.
#[test]
fn a_share_liar_in_a_last_partial_or_polynomial_is_attributed() {
    let xml = generate(&XmarkConfig {
        seed: 0x2005,
        target_bytes: 8 * 1024,
    });
    let (map, seed) = bench_secrets();
    let liar_fleet = || {
        let spec = FleetSpec::new(3, 2).unwrap();
        let out = encode_document_fleet(&xml, &map, &seed, spec).unwrap();
        let ring = out.ring.clone();
        local_fleet_router(out, &seed, 1, |party, inner| ShareLiar {
            inner,
            ring: ring.clone(),
            lies: party == 2,
        })
        .unwrap()
    };
    let attributed = |err: CoreError| {
        assert!(matches!(err, CoreError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("attributed to party 2"), "{err}");
    };

    let sum = AggregateSpec {
        query: parse_query("//item/quantity").unwrap(),
        op: AggOp::Sum,
        range: None,
    };
    let (kind, rule) = (EngineKind::Simple, MatchRule::Containment);
    let want = EncryptedDb::encode(&xml, map.clone(), seed.clone())
        .unwrap()
        .run_aggregate(&sum, kind, rule)
        .unwrap();
    assert!(want.sum > 0, "the quantities must sum to something");
    let want = (want.count, want.contributing, want.sum);
    let mut client = ClientFilter::new(liar_fleet(), map.clone(), seed.clone()).unwrap();
    let sum_on = |client: &mut ClientFilter<_>| {
        run_aggregate(client, kind, rule, &sum).map(|out| (out.count, out.contributing, out.sum))
    };
    let err = (0..6)
        .find_map(|_| match sum_on(&mut client) {
            Ok(got) => {
                assert_eq!(got, want, "a SUM before a close asked party 2");
                None
            }
            Err(e) => Some(e),
        })
        .expect("no closing wave asked party 2");
    attributed(err);
    let status = client.transport().transports()[0].party_status();
    assert_eq!(status[1].health, PartyHealth::Quarantined);
    assert_eq!(sum_on(&mut client).unwrap(), want, "the retry is exact");

    let polys = Request::GetPolys {
        pres: vec![1, 2, 3],
    };
    let single = ssxdb::core::encode_document(&xml, &map, &seed).unwrap();
    let want = ShardRouter::local(ShardedServer::from_table(single.table, single.ring, 1).unwrap())
        .call(&polys)
        .unwrap();
    assert!(
        matches!(&want, Response::Polys(p) if p.len() == 3),
        "{want:?}"
    );
    let mut router = liar_fleet();
    let err = (0..3)
        .find_map(|_| match router.call(&polys) {
            Ok(got) => {
                assert_eq!(got, want, "a fetch before one asked party 2");
                None
            }
            Err(e) => Some(e),
        })
        .expect("no fetch asked party 2");
    attributed(err);
    assert_eq!(router.call(&polys).unwrap(), want, "the retry is exact");
}

/// Killing *any single* server mid-run: for each victim in turn, a live
/// fleet connection keeps answering the fig5 chain correctly after the
/// victim's host winds down under it.
#[test]
fn killing_any_single_server_mid_run_returns_correct_results() {
    let xml = generate(&XmarkConfig {
        seed: 0x2005,
        target_bytes: 8 * 1024,
    });
    let (map, seed) = bench_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let query = "/site/regions/europe/item";

    let expected = EncryptedDb::encode(&xml, map.clone(), seed.clone())
        .unwrap()
        .query(query, EngineKind::Simple, MatchRule::Equality)
        .unwrap()
        .result;

    for victim in 0..3usize {
        let fleet_out = encode_document_fleet(&xml, &map, &seed, spec).unwrap();
        let ring = fleet_out.ring.clone();
        // Hosts wind down their sockets even under live connections — the
        // abrupt-death shape.
        let hosts: Vec<_> = fleet_out
            .parties
            .into_iter()
            .map(|p| spawn_party(p, &ring))
            .collect();
        let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();

        let mut db = EncryptedDb::connect_fleet_mux(&addrs, 2, map.clone(), seed.clone()).unwrap();
        assert_eq!(
            db.query(query, EngineKind::Simple, MatchRule::Equality)
                .unwrap()
                .result,
            expected,
            "victim={victim}: pre-kill"
        );
        stop_host(hosts[victim].0);
        assert_eq!(
            db.query(query, EngineKind::Simple, MatchRule::Equality)
                .unwrap()
                .result,
            expected,
            "victim={victim}: post-kill"
        );
        drop(db);
        for (i, (a, _)) in hosts.iter().enumerate() {
            if i != victim {
                stop_host(*a);
            }
        }
        for (_, h) in hosts {
            h.join().unwrap();
        }
    }
}

/// A corrupted share is *detected and attributed*: the query errors with an
/// integrity failure naming the party, never returns wrong results, and
/// the quarantined fleet answers the retry exactly.
#[test]
fn corrupted_share_is_detected_and_attributed() {
    let xml = generate(&XmarkConfig {
        seed: 0x2005,
        target_bytes: 8 * 1024,
    });
    let (map, seed) = bench_secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let query = "/site/regions/europe/item";

    let expected = EncryptedDb::encode(&xml, map.clone(), seed.clone())
        .unwrap()
        .query(query, EngineKind::Simple, MatchRule::Equality)
        .unwrap()
        .result;

    let mut fleet_out = encode_document_fleet(&xml, &map, &seed, spec).unwrap();
    // Party 3 lies: one flipped bit in every data-share polynomial.
    let clean = std::mem::replace(&mut fleet_out.parties[2].data, Table::new(1));
    let mut corrupted = Table::new(clean.poly_len());
    for row in clean.into_rows() {
        let mut poly = row.poly.into_vec();
        poly[0] ^= 0x01;
        corrupted
            .insert(Row {
                loc: row.loc,
                poly: poly.into_boxed_slice(),
            })
            .unwrap();
    }
    fleet_out.parties[2].data = corrupted;

    let ring = fleet_out.ring.clone();
    let hosts: Vec<_> = fleet_out
        .parties
        .into_iter()
        .map(|p| spawn_party(p, &ring))
        .collect();
    let addrs: Vec<String> = hosts.iter().map(|(a, _)| a.to_string()).collect();

    let mut db = EncryptedDb::connect_fleet_mux(&addrs, 2, map.clone(), seed.clone()).unwrap();
    let err = db
        .query(query, EngineKind::Simple, MatchRule::Equality)
        .unwrap_err();
    assert!(matches!(err, CoreError::Corrupt(_)), "{err:?}");
    let msg = err.to_string();
    assert!(
        msg.contains("integrity") && msg.contains("party 3"),
        "expected an integrity error naming party 3, got: {msg}"
    );
    assert_eq!(
        db.query(query, EngineKind::Simple, MatchRule::Equality)
            .unwrap()
            .result,
        expected,
        "the honest quorum answers the retry exactly"
    );

    drop(db);
    for (a, _) in &hosts {
        stop_host(*a);
    }
    for (_, h) in hosts {
        h.join().unwrap();
    }
}

/// A fleet party host is *not* repartitionable: its data and MAC planes
/// duplicate `pre`s, so an online reshard to a new count is refused and
/// the 2·S layout survives.
#[test]
fn party_hosts_refuse_resharding() {
    use ssxdb::core::protocol::Response;
    let xml = "<site><a><b/><b/></a></site>";
    let map = MapFile::sequential(83, 1, &["site", "a", "b"]).unwrap();
    let seed = Seed::from_test_key(21);
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet_out = encode_document_fleet(xml, &map, &seed, spec).unwrap();
    let ring = fleet_out.ring.clone();
    let party = fleet_out.parties.into_iter().next().unwrap();
    let (addr, handle) = spawn_party(party, &ring);

    let mut admin = MuxPool::dial(addr, None).unwrap().transport(0);
    match admin.call(&Request::Reshard { shards: 4 }).unwrap() {
        Response::Err(e) => assert!(e.contains("refused"), "{e}"),
        other => panic!("a party host accepted a reshard: {other:?}"),
    }
    // Layout intact: still 2·S = 2 shard ids.
    assert_eq!(
        admin.call(&Request::ShardCount).unwrap(),
        Response::Count(2)
    );
    admin.call(&Request::Shutdown).unwrap();
    drop(admin);
    handle.join().unwrap();
}

/// The full 3-process CLI fleet: `encode --servers 3 --threshold 2` splits
/// the store, three `serve --party i` processes host it, `remote --fleet`
/// queries it — and the answers match the single-store CLI `query`.
#[test]
fn cli_three_process_fleet_round_trips() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_ssxdb");
    let dir = std::env::temp_dir().join("ssxdb_fleet_cli");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn ssxdb");
        assert!(
            out.status.success(),
            "ssxdb {args:?} failed:\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    run(&["keygen", "seed.hex"]);
    run(&["xmark", "--bytes", "4000", "--seed", "5", "doc.xml"]);
    run(&["genmap", "--p", "83", "--doc", "doc.xml", "map.properties"]);
    run(&[
        "encode",
        "--map",
        "map.properties",
        "--seed",
        "seed.hex",
        "doc.xml",
        "db.ssxdb",
    ]);
    let split = run(&[
        "encode",
        "--map",
        "map.properties",
        "--seed",
        "seed.hex",
        "--servers",
        "3",
        "--threshold",
        "2",
        "doc.xml",
        "db.ssxdb",
    ]);
    assert!(split.contains("any 2 reconstruct"), "{split}");

    let expected = run(&[
        "query",
        "--map",
        "map.properties",
        "--seed",
        "seed.hex",
        "db.ssxdb",
        "/site/regions/europe/item",
    ]);

    let mut hosts = Hosts::default();
    let addrs: Vec<String> = (1..=3u32)
        .map(|i| {
            let store = format!("db.party{i}.ssxdb");
            hosts.serve(&dir, &["--party", &i.to_string(), &store])
        })
        .collect();

    let fleet_out = run(&[
        "remote",
        "--map",
        "map.properties",
        "--seed",
        "seed.hex",
        "--fleet",
        &addrs.join(","),
        "--threshold",
        "2",
        "/site/regions/europe/item",
    ]);
    assert_eq!(
        fleet_out, expected,
        "the CLI fleet answers exactly like the single-store CLI"
    );

    for i in 0..addrs.len() {
        hosts.stop(i);
    }
}
