//! The resilience plane end to end: the party health machine's full
//! `Live → Suspect → Quarantined → Probation → Live` lifecycle including a
//! failed re-admission probe and its doubled cooldown, hedged t-first
//! waves that stop waiting for a slow party while still crediting its
//! straggler answers, and a chaos-proxy soak whose whole fault schedule
//! replays from a printed seed (`SSXDB_CHAOS_SEED`).

use ssxdb::core::protocol::{Request, Response};
use ssxdb::core::transport::TransportStats;
use ssxdb::core::{
    encode_document_fleet, fleet_mac_key, party_server, serve_tcp_mux, ChaosConfig, ChaosProxy,
    ChaosTransport, ClientFilter, CoreError, EncryptedDb, Engine, EngineKind, FleetLeg, FleetSpec,
    FleetTransport, LocalPartyTransport, MapFile, MatchRule, MuxPool, PartyHealth,
    ResilienceConfig, ShardRouter, ShardSpec, Transport,
};
use ssxdb::prg::Seed;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const XML: &str = "<site><a><b/><b/></a><c><a><b/></a></c></site>";

fn secrets() -> (MapFile, Seed) {
    let map = MapFile::sequential(83, 1, &["site", "a", "b", "c"]).unwrap();
    (map, Seed::from_test_key(21))
}

/// A party leg whose availability is a shared switch: while `down` it
/// refuses every call, re-admission probes included, exactly like an
/// unreachable host, but can be flipped back up to model recovery.
struct FlakyTransport {
    inner: LocalPartyTransport,
    down: Arc<AtomicBool>,
}

impl Transport for FlakyTransport {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        if self.down.load(Ordering::SeqCst) {
            return Err(CoreError::Transport("party host unreachable (test)".into()));
        }
        self.inner.call(req)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// A 3-party t=2 pipe whose party 3 can be switched off and back on. Each
/// leg keeps its one in-process transport, so re-admission probes go out
/// on it: they fail while the party is down and pass once it recovers.
fn flaky_pipe() -> (FleetTransport<FlakyTransport>, Arc<AtomicBool>) {
    let (map, seed) = secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet = encode_document_fleet(XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    let packer = fleet.packer.clone();
    let alpha = fleet_mac_key(&seed, &ring);
    let switch = Arc::new(AtomicBool::new(false));
    let legs = fleet
        .parties
        .into_iter()
        .map(|p| {
            let party = p.party;
            let host = Arc::new(Mutex::new(party_server(p.data, p.mac, &ring, 1).unwrap()));
            let down = if party == 3 {
                Arc::clone(&switch)
            } else {
                Arc::new(AtomicBool::new(false))
            };
            let leg = FlakyTransport {
                inner: LocalPartyTransport::new(host),
                down,
            };
            FleetLeg::up(party, leg).at(format!("party{party}.test:0"))
        })
        .collect();
    let mut pipe = FleetTransport::new(legs, 2, 1, 0, ring, packer, alpha, false);
    pipe.set_resilience(ResilienceConfig {
        retries: 0,
        ..Default::default()
    });
    (pipe, switch)
}

/// The whole health lifecycle, one wave at a time: two strikes quarantine
/// a failing party; a re-admission probe against a still-dead party fails
/// and doubles the cooldown; once the party recovers, the next probe
/// passes, the leg re-enters on probation, and its first successful wave
/// promotes it back to `Live` — after which it serves waves again.
#[test]
fn quarantined_party_recovers_probation_then_live() {
    let (mut pipe, down) = flaky_pipe();
    let health =
        |pipe: &FleetTransport<FlakyTransport>, p: usize| pipe.party_status()[p - 1].health;

    // Wave 1: everyone up.
    let reference = pipe.call(&Request::Count).unwrap();
    assert_eq!(health(&pipe, 3), PartyHealth::Live);

    // Waves 2–3: party 3 is down. First strike demotes, second quarantines
    // (cooldown 4); the honest quorum keeps answering bit-identically.
    down.store(true, Ordering::SeqCst);
    assert_eq!(pipe.call(&Request::Count).unwrap(), reference);
    assert_eq!(health(&pipe, 3), PartyHealth::Suspect);
    assert_eq!(pipe.call(&Request::Count).unwrap(), reference);
    assert_eq!(health(&pipe, 3), PartyHealth::Quarantined);
    assert_eq!(pipe.live_parties(), vec![1, 2]);

    // Waves 4–7 tick the cooldown down; wave 8 probes on the leg's own
    // transport — the party is still dead, so the probe fails and the
    // cooldown doubles to 8.
    for _ in 0..5 {
        assert_eq!(pipe.call(&Request::Count).unwrap(), reference);
    }
    let st = pipe.party_status().remove(2);
    assert_eq!(st.health, PartyHealth::Quarantined);
    assert!(
        st.fault
            .as_deref()
            .unwrap()
            .contains("re-admission probe failed"),
        "{:?}",
        st.fault
    );

    // The party recovers. Waves 9–16 sit out the doubled cooldown...
    down.store(false, Ordering::SeqCst);
    for _ in 0..8 {
        assert_eq!(pipe.call(&Request::Count).unwrap(), reference);
        assert_eq!(health(&pipe, 3), PartyHealth::Quarantined);
    }
    // ...wave 17 probes successfully, re-admits the leg on probation, and
    // its answer in that same wave promotes it to Live with a clean record.
    assert_eq!(pipe.call(&Request::Count).unwrap(), reference);
    let st = pipe.party_status().remove(2);
    assert_eq!(st.health, PartyHealth::Live, "fault: {:?}", st.fault);
    assert!(st.fault.is_none());
    assert_eq!(pipe.live_parties(), vec![1, 2, 3]);

    // And it keeps serving: a read wave asks two of the three parties, so
    // one of the next three asks party 3 and grows its success count.
    let before = st.waves_ok;
    let asked = (0..3).any(|_| {
        assert_eq!(pipe.call(&Request::Count).unwrap(), reference);
        pipe.party_status()[2].waves_ok > before
    });
    assert!(asked, "none of three waves asked party 3");
    assert_eq!(pipe.party_status()[2].waves_ok, before + 1);
}

/// A hedged 3-party t = 2 pipe whose party 3 answers every call `delay`
/// late.
fn hedged_pipe(delay: Duration) -> FleetTransport<ChaosTransport<LocalPartyTransport>> {
    let (map, seed) = secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet = encode_document_fleet(XML, &map, &seed, spec).unwrap();
    let ring = fleet.ring.clone();
    let packer = fleet.packer.clone();
    let alpha = fleet_mac_key(&seed, &ring);
    let legs = fleet
        .parties
        .into_iter()
        .map(|p| {
            let party = p.party;
            let host = Arc::new(Mutex::new(party_server(p.data, p.mac, &ring, 1).unwrap()));
            let cfg = if party == 3 {
                ChaosConfig::fixed_delay(7, delay)
            } else {
                ChaosConfig::quiet(7)
            };
            FleetLeg::up(
                party,
                ChaosTransport::new(LocalPartyTransport::new(host), cfg),
            )
        })
        .collect();
    let mut pipe = FleetTransport::new(legs, 2, 1, 0, ring, packer, alpha, false);
    pipe.set_resilience(ResilienceConfig {
        hedge: true,
        ..Default::default()
    });
    pipe
}

/// Hedged reconstruction: with one party fix-delayed 120 ms, a t-first
/// wave answers from the two fast parties without waiting, counts the
/// hedged win, and later harvests the straggler's answer — crediting both
/// the party (it stays `Live` with successful waves) and the saved wait.
#[test]
fn hedged_waves_answer_at_threshold_and_credit_stragglers() {
    let mut pipe = hedged_pipe(Duration::from_millis(120));

    let t0 = Instant::now();
    let reference = pipe.call(&Request::Count).unwrap();
    let first = t0.elapsed();
    assert!(
        first < Duration::from_millis(80),
        "hedged wave waited for the slow party: {first:?}"
    );

    // Let the straggler finish, then run another wave: it harvests the
    // late answer (crediting the party and the skipped wait) and hedges
    // again.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(pipe.call(&Request::Count).unwrap(), reference);

    let stats = pipe.stats();
    assert!(stats.hedged_wins >= 1, "no hedged win was counted");
    assert!(
        stats.straggler_ms >= 100,
        "straggler lag not credited: {} ms",
        stats.straggler_ms
    );
    let st = pipe.party_status().remove(2);
    assert_eq!(st.health, PartyHealth::Live);
    assert!(st.waves_ok >= 1, "the straggler's answers must count");
}

/// A hedged wave leaves the slow party's transport out with its straggler,
/// yet the pipe's cumulative byte counters never go backwards: over reads
/// (each hedged, the slow leg out when it returns) alternating with no-op
/// deletes (each waits every straggler home), every snapshot is at least
/// the one before it.
#[test]
fn hedged_fleet_byte_counters_never_go_backwards() {
    let mut pipe = hedged_pipe(Duration::from_millis(100));
    let mut last = pipe.stats();
    for wave in 0..8 {
        let resp = if wave % 2 == 0 {
            pipe.call(&Request::GetPolys { pres: vec![1, 2] })
        } else {
            pipe.call(&Request::Delete {
                pres: vec![1_000_000],
            })
        };
        resp.unwrap();
        let now = pipe.stats();
        assert!(
            now.bytes_sent >= last.bytes_sent && now.bytes_received >= last.bytes_received,
            "wave {wave}: byte counters went backwards: {last:?} -> {now:?}"
        );
        last = now;
    }
    assert!(last.hedged_wins >= 3, "reads must hedge: {last:?}");
}

/// A 3-party fleet queried through per-party seeded chaos proxies (delay,
/// drop, reset, reorder, bit flips). Every fault schedule derives from one
/// printed seed, so any failure replays exactly; rounds that survive the
/// chaos must be bit-identical to the clean single-party reference.
#[test]
fn chaos_proxy_soak_replays_from_a_printed_seed() {
    let seed_base: u64 = std::env::var("SSXDB_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    println!("chaos soak: set SSXDB_CHAOS_SEED={seed_base} to replay this fault schedule");

    let (map, key) = secrets();
    let spec = FleetSpec::new(3, 2).unwrap();
    let fleet = encode_document_fleet(XML, &map, &key, spec).unwrap();
    let ring = fleet.ring.clone();
    let packer = fleet.packer.clone();
    let alpha = fleet_mac_key(&key, &ring);

    let expected = EncryptedDb::encode(XML, map.clone(), key.clone())
        .unwrap()
        .query("//a/b", EngineKind::Advanced, MatchRule::Equality)
        .unwrap()
        .result;

    // One host per party, each behind its own seeded chaos proxy.
    let mut hosts = Vec::new();
    let mut proxies = Vec::new();
    for p in fleet.parties {
        let party = p.party;
        let server = party_server(p.data, p.mac, &ring, 1).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || serve_tcp_mux(listener, server, 0).unwrap());
        let cfg = ChaosConfig::soak(seed_base.wrapping_add(party as u64));
        proxies.push(ChaosProxy::spawn(addr, cfg).unwrap());
        hosts.push((addr, handle));
    }

    // Connect through the proxies with a hard per-call deadline, so even a
    // dropped frame — the handshake included — can only cost the deadline,
    // never a hang. Each party is one pool; its data-shard connection is
    // the leg, which reopens itself within the budget once it dies.
    let budget = Some(Duration::from_millis(400));
    let legs = proxies
        .iter()
        .enumerate()
        .map(|(j, proxy)| {
            let addr = proxy.addr().to_string();
            let leg = match MuxPool::dial(proxy.addr(), budget) {
                Ok(pool) => FleetLeg::up(j + 1, pool.transport(0)),
                Err(e) => FleetLeg::down(j + 1, e.to_string()),
            };
            leg.at(&addr)
        })
        .collect();
    let mut pipe = FleetTransport::new(legs, 2, 1, 0, ring, packer, alpha, true);
    pipe.set_call_budget(budget);
    pipe.set_resilience(ResilienceConfig {
        retries: 2,
        ..Default::default()
    });
    let router = ShardRouter::new(ShardSpec::new(1), vec![pipe], false, true);
    let mut client = ClientFilter::new(router, map, key).unwrap();
    let query = ssxdb::xpath::parse_query("//a/b").unwrap();

    let mut ok = 0;
    for round in 0..6 {
        match Engine::run(
            EngineKind::Advanced,
            MatchRule::Equality,
            &query,
            &mut client,
        ) {
            Ok(out) => {
                assert_eq!(
                    out.result, expected,
                    "round {round} returned wrong results under chaos (seed {seed_base})"
                );
                ok += 1;
            }
            Err(e) => println!("round {round} failed under chaos (seed {seed_base}): {e}"),
        }
    }
    assert!(
        ok >= 1,
        "no round survived the chaos soak (seed {seed_base})"
    );

    drop(client);
    for proxy in &proxies {
        proxy.stop();
    }
    drop(proxies);
    for (addr, handle) in hosts {
        let mut closer = MuxPool::dial(addr, None).unwrap().transport(0);
        closer.call(&Request::Shutdown).unwrap();
        drop(closer);
        handle.join().unwrap();
    }
}
