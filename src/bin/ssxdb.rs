//! `ssxdb` — command-line front end for the secret-shared XML database.
//!
//! ```text
//! ssxdb keygen  <seed-file>
//! ssxdb genmap  [--p 83] [--e 1] (--doc <xml> | --dtd | --names a,b,c) [--trie-alphabet] <map-file>
//! ssxdb xmark   [--bytes N] [--seed K] <out.xml>
//! ssxdb encode  --map <map> --seed <seed> [--trie compressed|uncompressed]
//!               [--servers n --threshold t] <in.xml> <out.ssxdb>
//! ssxdb info    <db.ssxdb>
//! ssxdb query   --map <map> --seed <seed> [--engine simple|advanced]
//!               [--rule containment|equality] [--stats] <db.ssxdb> <query>
//! ssxdb agg     --map <map> --seed <seed> --op count|sum|avg [--range LO..HI]
//!               [--engine …] [--rule …] [--stats]
//!               (<db.ssxdb> | --addr <host:port> [--deadline-ms MS]
//!                | --fleet a1,a2,… --threshold t [--deadline-ms MS] [--retries N]
//!                  [--hedge]) <query>
//! ssxdb insert  --map <map> --seed <seed> [--shards S] [--no-checkpoint]
//!               <db.ssxdb> <doc.xml>
//! ssxdb insert  --map <map> --seed <seed>
//!               (--addr <host:port> | --fleet a1,a2,… --threshold t [--retries N] [--hedge])
//!               [--deadline-ms MS] <doc.xml>
//! ssxdb delete  --map <map> --seed <seed> [--shards S] [--no-checkpoint]
//!               <db.ssxdb> <root-pre>
//! ssxdb delete  --map <map> --seed <seed>
//!               (--addr <host:port> | --fleet a1,a2,… --threshold t [--retries N] [--hedge])
//!               [--deadline-ms MS] <root-pre>
//! ssxdb serve   --p <p> --e <e> --addr <host:port> [--shards S] [--workers W]
//!               [--write-stall-ms MS] [--party i] <db.ssxdb | party-store>
//! ssxdb remote  --map <map> --seed <seed> --addr <host:port>
//!               [--engine …] [--rule …] [--speculate] [--deadline-ms MS]
//!               [--stats] <query>
//! ssxdb remote  --map <map> --seed <seed> --fleet a1,a2,… --threshold t
//!               [--engine …] [--rule …] [--speculate] [--deadline-ms MS]
//!               [--retries N] [--hedge] [--stats] <query>
//! ssxdb reshard --addr <host:port> --shards <S'>
//! ```
//!
//! Every command refuses a flag it does not take, naming it, before doing
//! any work.
//!
//! `serve` runs the multiplexed host: a reader thread sweeping nonblocking
//! sockets plus a fixed pool of executor threads (`--workers W`; 0, the
//! default, sizes it to the machine's parallelism clamped to 2..=8, or 4
//! when that is unknown), answering correlation-tagged frames out of order
//! so any number of concurrent clients overlap their query waves.
//! `serve --shards S` partitions the table across `S` independent server
//! filters behind the one listener. Clients (`remote`, `agg`, `insert`,
//! `delete` with `--addr`) open one multiplexed socket per shard and learn
//! `S` from the host's handshake answer, so they take no `--shards`; each
//! query frontier is batched across the shards. `remote --speculate`
//! pins speculation on: dependent waves overlap (the next frontier's
//! expansion rides the current wave's frames). Unpinned, a router
//! speculates for a query only once the `Roots` waves of its last 8
//! queries were all slow, so the one query of a `remote` process
//! speculates only with the flag. `reshard` repartitions a running
//! host to a new shard count **online** — rows move in memory,
//! bit-identically; clients connected under the old count must reconnect.
//! A reshard to the count the host already serves changes nothing.
//!
//! `encode --servers n --threshold t` splits the database into `n`
//! per-party share stores (`out.party1.ssxdb` … `out.partyN.ssxdb`), any
//! `t` of which reconstruct; fewer reveal nothing beyond table shape.
//! `serve --party i` hosts one party's store (data + MAC planes behind
//! `2·S` shard ids); `remote --fleet a1,a2,… --threshold t` sends each
//! read wave to `max(t, 2)` live parties, in turn, widening to the rest
//! only on a fault, a MAC mismatch or a disagreement, and sends every
//! write to all of them; it reconstructs client-side with MAC
//! verification — a corrupted share is detected and attributed, a dead
//! party is tolerated down to `t` responders.
//!
//! The resilience knobs: `--deadline-ms MS` bounds every call (a hung
//! party fails with a typed timeout instead of hanging the query),
//! `--retries N` retries transient failures with exponential backoff over
//! the party's connection (reopened if it died), and `--hedge` asks every
//! live party on each read wave and answers from the first `max(t, 2)`
//! verified responses while stragglers drain in the background: more
//! party requests, in exchange for not waiting on one slow party.
//! On the host side, `serve --write-stall-ms MS` bounds how long a
//! non-reading client may stall a response send before its connection is
//! shed.
//!
//! `insert` and `delete` are the write plane. Against a local store they
//! open the snapshot **durably**: mutations append to a checksummed
//! write-ahead log beside the database (`<db>.wal`) after the store acks
//! them, and the snapshot is rewritten (and the log truncated) on exit —
//! `--no-checkpoint` skips that last step, leaving the mutation in the
//! log alone so the next open replays it (the crash-recovery path,
//! exercisable by hand). Against `--addr`/`--fleet` they mutate the live
//! host in place: the client encodes the document at the store's
//! high-water `pre` offset and ships ready-made share rows (re-split per
//! party over a fleet), so the server never sees the map or seed.
//! Deletes take the document's root `pre` (printed by `insert`) and
//! remove the whole subtree.
//!
//! The map and seed files are the client secrets; `info`, `serve` and
//! `reshard` work without them (they only touch what the untrusted server
//! would hold).

use ssxdb::core::{
    encode_document, encode_dom, party_server, run_aggregate, serve_tcp_mux_opts, split_fleet,
    AggOp, AggregateSpec, ClientFilter, EncryptedDb, Engine, EngineKind, FleetSpec, FleetTransport,
    MapFile, MatchRule, MuxHostOptions, MuxPool, MuxTransport, RemoteMuxDb, ResilienceConfig,
    ServerFilter, ShardRouter, ShardedServer, Transport,
};
use ssxdb::poly::RingCtx;
use ssxdb::prg::Seed;
use ssxdb::store::{
    load_party, load_table_with_wal, save_party, save_table, PartyHeader, Table, WalReplay,
};
use ssxdb::trie::{transform_document, trie_alphabet, TrieMode};
use ssxdb::xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssxdb::xml::Document;
use ssxdb::xpath::parse_query;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut parser = Args::new(args);
    let command = parser.positional("command")?;
    match command.as_str() {
        "keygen" => keygen(parser),
        "genmap" => genmap(parser),
        "xmark" => xmark(parser),
        "encode" => encode(parser),
        "info" => info(parser),
        "query" => query(parser),
        "agg" => agg(parser),
        "insert" => insert(parser),
        "delete" => delete(parser),
        "serve" => serve(parser),
        "remote" => remote(parser),
        "reshard" => reshard(parser),
        "help" | "--help" | "-h" => {
            print!("{}", USAGE);
            Ok(())
        }
        other => Err(format!("unknown command '{other}'; try 'ssxdb help'")),
    }
}

const USAGE: &str = "\
ssxdb — queries over encrypted XML using secret sharing

commands:
  keygen  <seed-file>                         create a fresh 32-byte seed
  genmap  [--p 83] [--e 1] (--doc <xml> | --dtd | --names a,b,c)
          [--trie-alphabet] <map-file>        create the secret tag map
  xmark   [--bytes N] [--seed K] <out.xml>    generate an auction document
  encode  --map M --seed S [--trie MODE]
          [--servers n --threshold t] <in.xml> <out.ssxdb>
  info    <db.ssxdb>                          sizes & structure (no secrets)
  query   --map M --seed S [--engine simple|advanced]
          [--rule containment|equality] [--stats] <db.ssxdb> <query>
  agg     --map M --seed S --op count|sum|avg [--range LO..HI]
          [--engine ..] [--rule ..] [--stats]
          (<db.ssxdb> | --addr H:P [--deadline-ms MS]
           | --fleet A1,.. --threshold t [--deadline-ms MS] [--retries N]
             [--hedge]) <query>
  insert  --map M --seed S [--shards S] [--no-checkpoint] <db.ssxdb> <doc.xml>
  insert  --map M --seed S (--addr H:P | --fleet A1,.. --threshold t
          [--retries N] [--hedge]) [--deadline-ms MS] <doc.xml>
  delete  --map M --seed S [--shards S] [--no-checkpoint] <db.ssxdb> <root-pre>
  delete  --map M --seed S (--addr H:P | --fleet A1,.. --threshold t
          [--retries N] [--hedge]) [--deadline-ms MS] <root-pre>
  serve   --p P --e E --addr HOST:PORT [--shards S] [--workers W]
          [--write-stall-ms MS] [--party i] <db.ssxdb | party store>
  remote  --map M --seed S --addr HOST:PORT
          [--engine ..] [--rule ..] [--speculate] [--deadline-ms MS]
          [--stats] <query>
  remote  --map M --seed S --fleet A1,A2,.. --threshold t
          [--engine ..] [--rule ..] [--speculate] [--deadline-ms MS]
          [--retries N] [--hedge] [--stats] <query>
  reshard --addr HOST:PORT --shards S'            repartition a live host

Clients learn a host's shard count from its handshake. Unknown flags are
refused. A fleet read asks max(t, 2) parties and widens to the rest on a
fault; --hedge asks every party and answers from the first max(t, 2) that
verify.
";

// ---- tiny argument parser ---------------------------------------------------

struct Args {
    flags: Vec<(String, String)>,
    positionals: Vec<String>,
    cursor: usize,
}

impl Args {
    fn new(raw: Vec<String>) -> Self {
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                if name == "stats"
                    || name == "dtd"
                    || name == "trie-alphabet"
                    || name == "speculate"
                    || name == "hedge"
                    || name == "no-checkpoint"
                {
                    // boolean flags
                    flags.push((name.to_string(), "true".to_string()));
                } else {
                    let value = iter.next().unwrap_or_default();
                    flags.push((name.to_string(), value));
                }
            } else {
                positionals.push(a);
            }
        }
        Args {
            flags,
            positionals,
            cursor: 0,
        }
    }

    fn positional(&mut self, what: &str) -> Result<String, String> {
        let v = self
            .positionals
            .get(self.cursor)
            .cloned()
            .ok_or_else(|| format!("missing <{what}>"))?;
        self.cursor += 1;
        Ok(v)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.flag(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn bool(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    /// Refuses the first flag `command` does not take — a typo or a stale
    /// flag must fail loudly, not fall back to a default.
    fn only(&self, command: &str, allowed: &[&[&str]]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !allowed.iter().any(|set| set.contains(&n.as_str())))
        {
            Some((name, _)) => Err(format!(
                "'{command}' does not take --{name}; try 'ssxdb help'"
            )),
            None => Ok(()),
        }
    }
}

/// Flags every query-side client command takes.
const READ_FLAGS: &[&str] = &["map", "seed", "engine", "rule", "stats"];

/// The extra flags of a command's target: a fleet (`--fleet`), one host
/// (`--addr`), or a local store (neither).
fn target_flags(args: &Args) -> &'static [&'static str] {
    if args.flag("fleet").is_some() {
        &["fleet", "threshold", "deadline-ms", "retries", "hedge"]
    } else if args.flag("addr").is_some() {
        &["addr", "deadline-ms"]
    } else {
        &[]
    }
}

fn parse_engine(args: &Args) -> Result<EngineKind, String> {
    match args.flag("engine").unwrap_or("advanced") {
        "simple" => Ok(EngineKind::Simple),
        "advanced" => Ok(EngineKind::Advanced),
        other => Err(format!("unknown engine '{other}' (simple|advanced)")),
    }
}

fn parse_rule(args: &Args) -> Result<MatchRule, String> {
    match args.flag("rule").unwrap_or("equality") {
        "containment" | "nonstrict" => Ok(MatchRule::Containment),
        "equality" | "strict" => Ok(MatchRule::Equality),
        other => Err(format!("unknown rule '{other}' (containment|equality)")),
    }
}

/// Builds the mux host options from `--workers` and `--write-stall-ms`.
fn mux_host_options(args: &Args) -> Result<MuxHostOptions, String> {
    let mut opts = MuxHostOptions {
        workers: args
            .flag("workers")
            .unwrap_or("0")
            .parse()
            .map_err(|_| "bad --workers")?,
        ..MuxHostOptions::default()
    };
    if let Some(ms) = args.flag("write-stall-ms") {
        let ms: u64 = ms.parse().map_err(|_| "bad --write-stall-ms")?;
        opts.write_stall = std::time::Duration::from_millis(ms.max(1));
    }
    Ok(opts)
}

/// The per-call budget from `--deadline-ms` (`None` waits as long as the
/// OS does).
fn deadline(args: &Args) -> Result<Option<std::time::Duration>, String> {
    let Some(ms) = args.flag("deadline-ms") else {
        return Ok(None);
    };
    let ms: u64 = ms.parse().map_err(|_| "bad --deadline-ms")?;
    Ok(Some(std::time::Duration::from_millis(ms.max(1))))
}

/// Connects to the `--fleet` at `--threshold`, with the `--deadline-ms`
/// budget on every call and the `--retries`/`--hedge` policy on every
/// pipe.
fn connect_fleet(
    args: &Args,
    map: MapFile,
    seed: Seed,
) -> Result<EncryptedDb<ShardRouter<FleetTransport<MuxTransport>>>, String> {
    let addrs: Vec<String> = args
        .required("fleet")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let threshold: usize = args
        .required("threshold")?
        .parse()
        .map_err(|_| "bad --threshold")?;
    let budget = deadline(args)?;
    let mut policy = ResilienceConfig::default();
    if let Some(n) = args.flag("retries") {
        policy.retries = n.parse().map_err(|_| "bad --retries")?;
    }
    policy.hedge = args.bool("hedge");
    let mut db =
        EncryptedDb::connect_fleet_mux(&addrs, threshold, map, seed).map_err(|e| e.to_string())?;
    db.set_deadline(budget);
    db.set_resilience(policy);
    Ok(db)
}

fn load_secrets(args: &Args) -> Result<(MapFile, Seed), String> {
    let map = MapFile::load(Path::new(args.required("map")?)).map_err(|e| e.to_string())?;
    let seed = Seed::load(Path::new(args.required("seed")?)).map_err(|e| e.to_string())?;
    Ok((map, seed))
}

// ---- commands ---------------------------------------------------------------

fn keygen(mut args: Args) -> Result<(), String> {
    args.only("keygen", &[])?;
    let out = PathBuf::from(args.positional("seed-file")?);
    // Entropy from the OS (dev/urandom on Unix); falls back to a time+pid
    // mix if unavailable so the command still works everywhere.
    let mut bytes = [0u8; 32];
    if std::fs::File::open("/dev/urandom")
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut bytes))
        .is_err()
    {
        let mut state = std::process::id() as u64
            ^ std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0xDEAD_BEEF);
        let mut prg = ssxdb::prg::Prg::from_u64(state);
        for chunk in bytes.chunks_exact_mut(8) {
            state = prg.next_u64();
            chunk.copy_from_slice(&state.to_le_bytes());
        }
    }
    let seed = Seed::from_bytes(bytes);
    seed.save(&out).map_err(|e| e.to_string())?;
    println!(
        "wrote seed to {} — keep it secret, it IS the key",
        out.display()
    );
    Ok(())
}

fn genmap(mut args: Args) -> Result<(), String> {
    args.only(
        "genmap",
        &[&["p", "e", "doc", "dtd", "names", "trie-alphabet"]],
    )?;
    let p: u64 = args
        .flag("p")
        .unwrap_or("83")
        .parse()
        .map_err(|_| "bad --p")?;
    let e: u32 = args
        .flag("e")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --e")?;
    let mut names: Vec<String> = if let Some(doc_path) = args.flag("doc") {
        let text = std::fs::read_to_string(doc_path).map_err(|err| err.to_string())?;
        let doc = Document::parse(&text).map_err(|err| err.to_string())?;
        let mut set = BTreeSet::new();
        for id in doc.descendants(doc.root()) {
            if let Some(n) = doc.name(id) {
                set.insert(n.to_string());
            }
        }
        set.into_iter().collect()
    } else if args.bool("dtd") {
        DTD_ELEMENTS.iter().map(|s| s.to_string()).collect()
    } else if let Some(list) = args.flag("names") {
        list.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    } else {
        return Err("need one of --doc <xml>, --dtd, or --names a,b,c".into());
    };
    if args.bool("trie-alphabet") {
        let existing: BTreeSet<String> = names.iter().cloned().collect();
        for sym in trie_alphabet() {
            if !existing.contains(&sym) {
                names.push(sym);
            }
        }
    }
    let out = PathBuf::from(args.positional("map-file")?);
    // Random assignment keyed from OS entropy via a throwaway seed.
    let mut key = [0u8; 8];
    let _ = std::fs::File::open("/dev/urandom")
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut key));
    let mut prg = ssxdb::prg::Prg::from_u64(u64::from_le_bytes(key));
    let map = MapFile::random(p, e, &names, &mut prg).map_err(|err| err.to_string())?;
    map.save(&out).map_err(|err| err.to_string())?;
    println!(
        "wrote map with {} names over F_{p}^{e} to {}",
        map.len(),
        out.display()
    );
    Ok(())
}

fn xmark(mut args: Args) -> Result<(), String> {
    args.only("xmark", &[&["bytes", "seed"]])?;
    let bytes: usize = args
        .flag("bytes")
        .unwrap_or("262144")
        .parse()
        .map_err(|_| "bad --bytes")?;
    let seed: u64 = args
        .flag("seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "bad --seed")?;
    let out = PathBuf::from(args.positional("out.xml")?);
    let xml = generate(&XmarkConfig {
        seed,
        target_bytes: bytes,
    });
    std::fs::write(&out, &xml).map_err(|e| e.to_string())?;
    println!(
        "wrote {} bytes of auction data to {}",
        xml.len(),
        out.display()
    );
    Ok(())
}

fn encode(mut args: Args) -> Result<(), String> {
    args.only(
        "encode",
        &[&["map", "seed", "trie", "servers", "threshold"]],
    )?;
    let (map, seed) = load_secrets(&args)?;
    let input = PathBuf::from(args.positional("in.xml")?);
    let output = PathBuf::from(args.positional("out.ssxdb")?);
    let xml = std::fs::read_to_string(&input).map_err(|e| e.to_string())?;
    let out = match args.flag("trie") {
        None => encode_document(&xml, &map, &seed).map_err(|e| e.to_string())?,
        Some(mode) => {
            let mode = match mode {
                "compressed" => TrieMode::Compressed,
                "uncompressed" => TrieMode::Uncompressed,
                other => return Err(format!("unknown trie mode '{other}'")),
            };
            let doc = Document::parse(&xml).map_err(|e| e.to_string())?;
            let trie_doc = transform_document(&doc, mode);
            encode_dom(&trie_doc, &map, &seed).map_err(|e| e.to_string())?
        }
    };
    println!(
        "encoded {} elements ({} input bytes) in {:?}",
        out.stats.elements, out.stats.input_bytes, out.stats.elapsed
    );
    if let Some(n) = args.flag("servers") {
        let servers: usize = n.parse().map_err(|_| "bad --servers")?;
        let threshold: usize = args
            .required("threshold")?
            .parse()
            .map_err(|_| "bad --threshold")?;
        let spec = FleetSpec::new(servers, threshold).map_err(|e| e.to_string())?;
        let fleet = split_fleet(out, &seed, spec).map_err(|e| e.to_string())?;
        for party in &fleet.parties {
            let path = party_path(&output, party.party as u32);
            let header = PartyHeader {
                party: party.party as u32,
                servers: servers as u32,
                threshold: threshold as u32,
            };
            save_party(header, &party.data, &party.mac, &path).map_err(|e| e.to_string())?;
            let report = party.data.size_report();
            println!(
                "party {}: {} bytes data + {} bytes mac shares, {}",
                party.party,
                report.data_bytes(),
                party.mac.size_report().data_bytes(),
                path.display()
            );
        }
        println!(
            "split across {servers} server(s); any {threshold} reconstruct, fewer learn nothing"
        );
        return Ok(());
    }
    save_table(&out.table, &output).map_err(|e| e.to_string())?;
    let report = out.table.size_report();
    println!(
        "server database: {} bytes data ({} poly + {} structure), {}",
        report.data_bytes(),
        report.poly_bytes,
        report.structure_bytes,
        output.display()
    );
    Ok(())
}

/// `out.ssxdb` → `out.party3.ssxdb` (extension preserved, stem suffixed).
fn party_path(base: &Path, party: u32) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("fleet");
    let name = match base.extension().and_then(|s| s.to_str()) {
        Some(ext) => format!("{stem}.party{party}.{ext}"),
        None => format!("{stem}.party{party}"),
    };
    base.with_file_name(name)
}

fn info(mut args: Args) -> Result<(), String> {
    args.only("info", &[])?;
    let path = PathBuf::from(args.positional("db.ssxdb")?);
    let (table, replay) = load_with_log(&path)?;
    let report = table.size_report();
    println!("{}", path.display());
    println!("  rows (elements):    {}", report.rows);
    println!(
        "  polynomial bytes:   {} ({} per row)",
        report.poly_bytes,
        table.poly_len()
    );
    println!(
        "  structure bytes:    {} ({:.1}% of data)",
        report.structure_bytes,
        100.0 * report.structure_fraction()
    );
    println!("  index bytes:        {}", report.index_bytes);
    if let Some(root) = table.root() {
        println!(
            "  root: pre={} post={} (tree of {} nodes)",
            root.loc.pre, root.loc.post, report.rows
        );
    }
    if replay.records > 0 {
        println!(
            "  pending log:        {} record(s) not yet checkpointed",
            replay.records
        );
    }
    println!("  note: without the map and seed this is all anyone can learn.");
    Ok(())
}

fn open_db(
    args: &Args,
    db_path: &Path,
) -> Result<ClientFilter<ssxdb::core::LocalTransport>, String> {
    let (map, seed) = load_secrets(args)?;
    let (table, _) = load_with_log(db_path)?;
    let ring = RingCtx::new(map.p(), map.e()).map_err(|e| e.to_string())?;
    let server = ServerFilter::new(table, ring);
    ClientFilter::new(ssxdb::core::LocalTransport::new(server), map, seed)
        .map_err(|e| e.to_string())
}

fn query(mut args: Args) -> Result<(), String> {
    args.only("query", &[READ_FLAGS])?;
    let db_path = PathBuf::from(args.positional("db.ssxdb")?);
    let query_text = args.positional("query")?;
    let mut client = open_db(&args, &db_path)?;
    let engine = parse_engine(&args)?;
    let rule = parse_rule(&args)?;
    let q = parse_query(&query_text)
        .map_err(|e| e.to_string())?
        .expand_text_predicates();
    let out = Engine::run(engine, rule, &q, &mut client).map_err(|e| e.to_string())?;
    print_outcome(&query_text, &out, args.bool("stats"));
    Ok(())
}

// ---- the aggregation plane --------------------------------------------------

fn parse_op(args: &Args) -> Result<AggOp, String> {
    match args.required("op")? {
        "count" => Ok(AggOp::Count),
        "sum" => Ok(AggOp::Sum),
        "avg" => Ok(AggOp::Avg),
        other => Err(format!("unknown op '{other}' (count|sum|avg)")),
    }
}

/// `--range LO..HI` — inclusive on both ends, matching the wire predicate.
fn parse_range(args: &Args) -> Result<Option<(u64, u64)>, String> {
    let Some(spec) = args.flag("range") else {
        return Ok(None);
    };
    let (lo, hi) = spec
        .split_once("..")
        .ok_or("bad --range: expected LO..HI (inclusive)")?;
    let lo: u64 = lo.parse().map_err(|_| "bad --range low bound")?;
    let hi: u64 = hi.parse().map_err(|_| "bad --range high bound")?;
    if lo > hi {
        return Err(format!("empty --range {lo}..{hi}"));
    }
    Ok(Some((lo, hi)))
}

fn agg(mut args: Args) -> Result<(), String> {
    args.only("agg", &[READ_FLAGS, &["op", "range"], target_flags(&args)])?;
    let op = parse_op(&args)?;
    let range = parse_range(&args)?;
    let engine = parse_engine(&args)?;
    let rule = parse_rule(&args)?;
    let (map, seed) = load_secrets(&args)?;
    if args.flag("fleet").is_some() {
        let query_text = args.positional("query")?;
        let mut db = connect_fleet(&args, map, seed)?;
        let out = db
            .aggregate(&query_text, engine, rule, op, range)
            .map_err(|e| e.to_string())?;
        print_aggregate(&query_text, &out, args.bool("stats"));
        return Ok(());
    } else if let Some(addr) = args.flag("addr") {
        let addr = addr.to_string();
        let query_text = args.positional("query")?;
        let q = parse_query(&query_text)
            .map_err(|e| e.to_string())?
            .expand_text_predicates();
        let spec = AggregateSpec {
            query: q,
            op,
            range,
        };
        let deadline = deadline(&args)?;
        let pool = MuxPool::dial(addr.as_str(), deadline).map_err(|e| e.to_string())?;
        let mut router = ShardRouter::mux(&pool);
        router.set_call_budget(deadline);
        let mut client = ClientFilter::new(router, map, seed).map_err(|e| e.to_string())?;
        let out = run_aggregate(&mut client, engine, rule, &spec).map_err(|e| e.to_string())?;
        print_aggregate(&query_text, &out, args.bool("stats"));
        return Ok(());
    }
    let db_path = PathBuf::from(args.positional("db.ssxdb")?);
    let query_text = args.positional("query")?;
    let q = parse_query(&query_text)
        .map_err(|e| e.to_string())?
        .expand_text_predicates();
    let spec = AggregateSpec {
        query: q,
        op,
        range,
    };
    let mut client = open_db(&args, &db_path)?;
    let out = run_aggregate(&mut client, engine, rule, &spec).map_err(|e| e.to_string())?;
    print_aggregate(&query_text, &out, args.bool("stats"));
    Ok(())
}

fn print_aggregate(query_text: &str, out: &ssxdb::core::AggregateOutcome, stats: bool) {
    match out.op {
        AggOp::Count => println!("COUNT({query_text}) = {}", out.count),
        AggOp::Sum => println!(
            "SUM({query_text}) = {} over {} value(s)",
            out.sum, out.contributing
        ),
        AggOp::Avg => match out.avg_f64() {
            Some(avg) => println!(
                "AVG({query_text}) = {avg} (exactly {}/{})",
                out.sum, out.contributing
            ),
            None => println!("AVG({query_text}) = undefined (no value contributed)"),
        },
    }
    if stats {
        let s = &out.walk;
        println!("stats:");
        println!("  matches:           {}", out.count);
        println!("  contributing:      {}", out.contributing);
        println!(
            "  walk round trips:  {} (+{} closing wave(s))",
            s.round_trips, out.closing_waves
        );
        println!("  evaluations:       {}", s.evaluations());
        println!("  epoch retries:     {}", out.retries);
        println!("  elapsed:           {:?}", s.elapsed);
    }
}

// ---- the write plane --------------------------------------------------------

enum WriteOp {
    Insert(String),
    Delete(u32),
}

/// Applies one mutation to any store the facade can reach (local durable,
/// remote host, or fleet) and describes what happened.
fn apply_write<T: Transport + Send>(
    db: &mut EncryptedDb<T>,
    op: &WriteOp,
) -> Result<String, String> {
    match op {
        WriteOp::Insert(xml) => {
            let out = db.insert_document(xml).map_err(|e| e.to_string())?;
            Ok(format!(
                "inserted {} row(s); document root pre={} (numbered past high-water {})",
                out.rows, out.root_pre, out.offset
            ))
        }
        WriteOp::Delete(pre) => {
            let n = db.delete_document(*pre).map_err(|e| e.to_string())?;
            Ok(format!("deleted {n} row(s) rooted at pre={pre}"))
        }
    }
}

/// The log that shadows a local snapshot: `db.ssxdb` → `db.ssxdb.wal`.
fn wal_path(db: &Path) -> PathBuf {
    let name = db
        .file_name()
        .and_then(|s| s.to_str())
        .unwrap_or("store.ssxdb");
    db.with_file_name(format!("{name}.wal"))
}

/// Loads a snapshot plus whatever its sidecar log holds — acked mutations
/// a writer appended but never checkpointed must not vanish from reads.
fn load_with_log(db_path: &Path) -> Result<(Table, WalReplay), String> {
    let (table, replay) =
        load_table_with_wal(db_path, &wal_path(db_path)).map_err(|e| e.to_string())?;
    if replay.records > 0 {
        eprintln!(
            "note: replayed {} uncheckpointed log record(s) from {} (+{} row(s), -{})",
            replay.records,
            wal_path(db_path).display(),
            replay.rows_inserted,
            replay.rows_removed
        );
    }
    Ok((table, replay))
}

/// Mutates a local snapshot durably: open (replaying any log left by a
/// crash), apply, append to the log, then checkpoint — unless
/// `--no-checkpoint`, which leaves the mutation in the log alone so the
/// next open replays it.
fn local_write(args: &Args, db_path: &Path, op: &WriteOp) -> Result<(), String> {
    let (map, seed) = load_secrets(args)?;
    let shards: u32 = args
        .flag("shards")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --shards")?;
    let wal = wal_path(db_path);
    let (mut db, replay) =
        EncryptedDb::open_durable(db_path, &wal, map, seed, shards).map_err(|e| e.to_string())?;
    if replay.records > 0 {
        println!(
            "replayed {} log record(s) from {} (+{} row(s), -{})",
            replay.records,
            wal.display(),
            replay.rows_inserted,
            replay.rows_removed
        );
    }
    println!("{}", apply_write(&mut db, op)?);
    if args.bool("no-checkpoint") {
        println!(
            "not checkpointed: the mutation lives in {} until the next open replays it",
            wal.display()
        );
    } else {
        db.checkpoint(db_path).map_err(|e| e.to_string())?;
        println!(
            "checkpointed {} ({} node(s)); log truncated",
            db_path.display(),
            db.node_count()
        );
    }
    Ok(())
}

/// Mutates a live host (`--addr`) or fleet (`--fleet`) in place. The
/// client encodes at the store's high-water `pre` and ships ready-made
/// share rows; the server never sees the secrets.
fn remote_write(args: &Args, op: &WriteOp) -> Result<(), String> {
    let (map, seed) = load_secrets(args)?;
    let msg = if args.flag("fleet").is_some() {
        apply_write(&mut connect_fleet(args, map, seed)?, op)?
    } else {
        let addr = args.required("addr")?.to_string();
        let deadline = deadline(args)?;
        let pool = MuxPool::dial(addr.as_str(), deadline).map_err(|e| e.to_string())?;
        let mut db = RemoteMuxDb::connect_mux(&pool, map, seed).map_err(|e| e.to_string())?;
        db.set_deadline(deadline);
        apply_write(&mut db, op)?
    };
    println!("{msg}");
    Ok(())
}

/// Flags of a write command: its target's, or the local store's.
fn write_flags(args: &Args) -> &'static [&'static str] {
    match target_flags(args) {
        [] => &["shards", "no-checkpoint"],
        remote => remote,
    }
}

fn insert(mut args: Args) -> Result<(), String> {
    args.only("insert", &[&["map", "seed"], write_flags(&args)])?;
    if args.flag("addr").is_some() || args.flag("fleet").is_some() {
        let xml_path = PathBuf::from(args.positional("doc.xml")?);
        let xml = std::fs::read_to_string(&xml_path).map_err(|e| e.to_string())?;
        return remote_write(&args, &WriteOp::Insert(xml));
    }
    let db_path = PathBuf::from(args.positional("db.ssxdb")?);
    let xml_path = PathBuf::from(args.positional("doc.xml")?);
    let xml = std::fs::read_to_string(&xml_path).map_err(|e| e.to_string())?;
    local_write(&args, &db_path, &WriteOp::Insert(xml))
}

fn delete(mut args: Args) -> Result<(), String> {
    args.only("delete", &[&["map", "seed"], write_flags(&args)])?;
    if args.flag("addr").is_some() || args.flag("fleet").is_some() {
        let pre: u32 = args
            .positional("root-pre")?
            .parse()
            .map_err(|_| "bad <root-pre>")?;
        return remote_write(&args, &WriteOp::Delete(pre));
    }
    let db_path = PathBuf::from(args.positional("db.ssxdb")?);
    let pre: u32 = args
        .positional("root-pre")?
        .parse()
        .map_err(|_| "bad <root-pre>")?;
    local_write(&args, &db_path, &WriteOp::Delete(pre))
}

fn serve(mut args: Args) -> Result<(), String> {
    args.only(
        "serve",
        &[&[
            "p",
            "e",
            "addr",
            "shards",
            "workers",
            "write-stall-ms",
            "party",
        ]],
    )?;
    let p: u64 = args.required("p")?.parse().map_err(|_| "bad --p")?;
    let e: u32 = args
        .flag("e")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --e")?;
    let shards: u32 = args
        .flag("shards")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --shards")?;
    let addr = args.required("addr")?.to_string();
    let db_path = PathBuf::from(args.positional("db.ssxdb")?);
    let ring = RingCtx::new(p, e).map_err(|err| err.to_string())?;
    let opts = mux_host_options(&args)?;
    if let Some(i) = args.flag("party") {
        let party: u32 = i.parse().map_err(|_| "bad --party")?;
        let (header, data, mac) = load_party(&db_path).map_err(|err| err.to_string())?;
        if header.party != party {
            return Err(format!(
                "{} holds party {}'s shares, not party {party}'s",
                db_path.display(),
                header.party
            ));
        }
        let server = party_server(data, mac, &ring, shards).map_err(|err| err.to_string())?;
        let listener = std::net::TcpListener::bind(&addr).map_err(|err| err.to_string())?;
        println!(
            "serving party {party} of {} (threshold {}) on {addr}: {shards} data shard(s) \
             + MAC mirror (Ctrl-C or a Shutdown request stops it)",
            header.servers, header.threshold
        );
        let server = serve_tcp_mux_opts(listener, server, opts).map_err(|err| err.to_string())?;
        for (i, f) in server.filters().iter().enumerate() {
            let s = f.stats();
            let plane = if (i as u32) < shards { "data" } else { "mac" };
            println!(
                "{plane} shard {}: {} rows, {} requests, {} evaluations",
                i as u32 % shards,
                f.table().len(),
                s.requests,
                s.evaluations
            );
        }
        return Ok(());
    }
    let (table, _) = load_with_log(&db_path)?;
    let server = ShardedServer::from_table(table, ring, shards).map_err(|err| err.to_string())?;
    let listener = std::net::TcpListener::bind(&addr).map_err(|err| err.to_string())?;
    println!(
        "serving {} on {addr} across {shards} shard(s) \
         (Ctrl-C or a Shutdown request stops it)",
        db_path.display()
    );
    let server = serve_tcp_mux_opts(listener, server, opts).map_err(|err| err.to_string())?;
    for (i, f) in server.filters().iter().enumerate() {
        let s = f.stats();
        println!(
            "shard {i}: {} rows, {} requests, {} evaluations, {} polynomials",
            f.table().len(),
            s.requests,
            s.evaluations,
            s.polys_served
        );
    }
    Ok(())
}

fn remote(mut args: Args) -> Result<(), String> {
    args.only("remote", &[READ_FLAGS, &["speculate"], target_flags(&args)])?;
    let (map, seed) = load_secrets(&args)?;
    if args.flag("fleet").is_some() {
        let query_text = args.positional("query")?;
        let engine = parse_engine(&args)?;
        let rule = parse_rule(&args)?;
        let mut db = connect_fleet(&args, map, seed)?;
        // Unpinned, the router decides per query from its measured
        // `Roots` waves.
        if args.bool("speculate") {
            db.set_speculation(true);
        }
        let out = db
            .query(&query_text, engine, rule)
            .map_err(|e| e.to_string())?;
        print_outcome(&query_text, &out, args.bool("stats"));
        return Ok(());
    }
    let addr = args.required("addr")?.to_string();
    let query_text = args.positional("query")?;
    let engine = parse_engine(&args)?;
    let rule = parse_rule(&args)?;
    let q = parse_query(&query_text)
        .map_err(|e| e.to_string())?
        .expand_text_predicates();
    // One multiplexed socket per shard; the host's handshake answer says
    // how many shards it has, so the router always routes by the live
    // partition.
    let deadline = deadline(&args)?;
    let pool = MuxPool::dial(addr.as_str(), deadline).map_err(|e| e.to_string())?;
    let mut router = ShardRouter::mux(&pool);
    if args.bool("speculate") {
        router.set_speculation(true);
    }
    router.set_call_budget(deadline);
    let mut client = ClientFilter::new(router, map, seed).map_err(|e| e.to_string())?;
    let out = Engine::run(engine, rule, &q, &mut client).map_err(|e| e.to_string())?;
    print_outcome(&query_text, &out, args.bool("stats"));
    Ok(())
}

fn reshard(args: Args) -> Result<(), String> {
    use ssxdb::core::protocol::{Request, Response};
    args.only("reshard", &[&["addr", "shards"]])?;
    let addr = args.required("addr")?.to_string();
    let shards: u32 = args
        .required("shards")?
        .parse()
        .map_err(|_| "bad --shards")?;
    let pool = MuxPool::dial(addr.as_str(), None).map_err(|e| e.to_string())?;
    match pool
        .transport(0)
        .call(&Request::Reshard { shards })
        .map_err(|e| e.to_string())?
    {
        Response::Ok => {}
        Response::Err(e) => return Err(format!("server refused reshard: {e}")),
        other => return Err(format!("unexpected reshard response {other:?}")),
    }
    // A count change fenced the old connections; a fresh handshake reports
    // the new layout.
    let now = MuxPool::dial(addr.as_str(), None)
        .map_err(|e| e.to_string())?
        .shards();
    println!("{addr} now serves {now} shard(s); clients pick the new count up when they reconnect");
    Ok(())
}

fn print_outcome(query_text: &str, out: &ssxdb::core::QueryOutcome, stats: bool) {
    println!("{query_text}: {} match(es)", out.result.len());
    for loc in &out.result {
        println!(
            "  node pre={} post={} parent={}",
            loc.pre, loc.post, loc.parent
        );
    }
    if stats {
        let s = &out.stats;
        println!("stats:");
        println!("  containment tests: {}", s.containment_tests);
        println!("  equality tests:    {}", s.equality_tests);
        println!(
            "  evaluations:       {} ({} client + {} server)",
            s.evaluations(),
            s.client_evals,
            s.server_evals
        );
        println!("  polys fetched:     {}", s.polys_fetched);
        println!("  round trips:       {}", s.round_trips);
        if s.speculative_hits > 0 || s.speculative_wasted > 0 {
            println!(
                "  speculation:       {} hits / {} wasted",
                s.speculative_hits, s.speculative_wasted
            );
        }
        if s.hedged_wins > 0 || s.straggler_ms > 0 {
            println!(
                "  hedging:           {} waves answered early ({} straggler ms not waited for)",
                s.hedged_wins, s.straggler_ms
            );
        }
        println!(
            "  bytes sent/recv:   {} / {}",
            s.bytes_sent, s.bytes_received
        );
        println!("  elapsed:           {:?}", s.elapsed);
    }
}
