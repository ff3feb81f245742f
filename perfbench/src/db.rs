//! The program's public API as the workloads drive it, and the op loop
//! around it: bounded retries, failure accounting and the oracle checks.

use crate::inputs::{ReadKind, ReadOp};
use crate::report::Snapshot;
use crate::trace::Tracer;
use ssx_core::encode::numeric_pre;
use ssx_core::{
    run_aggregate, AggregateOutcome, AggregateSpec, ClientFilter, CoreError, Engine, EngineKind,
    InsertOutcome, MatchRule, QueryOutcome, RemoteMuxDb, ServerStats, Transport,
};
use ssx_store::Loc;
use ssx_xpath::Query;
use std::sync::Arc;
use std::time::Instant;

/// The CLI's default engine.
pub const ENGINE: EngineKind = EngineKind::Advanced;

/// Attempts an op may make before it counts as failed. Each failed attempt
/// is a typed conflict the caller is expected to retry.
pub const MAX_ATTEMPTS: u32 = 64;

/// One client of the program: the facade where a workload can use it, or
/// a [`Session`] over a hand-built transport stack.
pub trait Db: Send {
    fn query(&mut self, q: &Query, rule: MatchRule) -> Result<QueryOutcome, CoreError>;
    fn aggregate(
        &mut self,
        spec: &AggregateSpec,
        rule: MatchRule,
    ) -> Result<AggregateOutcome, CoreError>;
    fn insert(&mut self, xml: &str) -> Result<InsertOutcome, CoreError>;
    fn delete(&mut self, root_pre: u32) -> Result<u64, CoreError>;
    /// The program's counters: client, transport, and whatever server
    /// counters this client can reach in-process (zero otherwise).
    fn counters(&mut self) -> Snapshot;
}

/// The facade's query and write calls.
macro_rules! facade_ops {
    () => {
        fn query(&mut self, q: &Query, rule: MatchRule) -> Result<QueryOutcome, CoreError> {
            self.run(q, ENGINE, rule)
        }

        fn aggregate(
            &mut self,
            spec: &AggregateSpec,
            rule: MatchRule,
        ) -> Result<AggregateOutcome, CoreError> {
            self.run_aggregate(spec, ENGINE, rule)
        }

        fn insert(&mut self, xml: &str) -> Result<InsertOutcome, CoreError> {
            self.insert_document(xml)
        }

        fn delete(&mut self, root_pre: u32) -> Result<u64, CoreError> {
            self.delete_document(root_pre)
        }
    };
}

/// The mux facade (`RemoteMuxDb::connect_mux`); the host's counters are
/// out of reach until it stops.
impl Db for RemoteMuxDb {
    facade_ops!();

    fn counters(&mut self) -> Snapshot {
        let c = self.client_mut();
        Snapshot {
            client: c.stats(),
            transport: c.transport_stats(),
            server: ServerStats::default(),
        }
    }
}

/// Reads the server counters reachable from a transport stack.
pub type ServerProbe<T> = Box<dyn Fn(&T) -> ServerStats + Send>;

/// A client filter over any transport stack, running the facade's own
/// insert and delete call sequences (with an encode span when traced).
pub struct Session<T: Transport> {
    pub client: ClientFilter<T>,
    pub tracer: Option<Arc<Tracer>>,
    pub server: Option<ServerProbe<T>>,
}

impl<T: Transport> Session<T> {
    pub fn new(client: ClientFilter<T>) -> Self {
        Session {
            client,
            tracer: None,
            server: None,
        }
    }
}

impl<T: Transport + Send> Db for Session<T> {
    fn query(&mut self, q: &Query, rule: MatchRule) -> Result<QueryOutcome, CoreError> {
        Engine::run(ENGINE, rule, q, &mut self.client)
    }

    fn aggregate(
        &mut self,
        spec: &AggregateSpec,
        rule: MatchRule,
    ) -> Result<AggregateOutcome, CoreError> {
        run_aggregate(&mut self.client, ENGINE, rule, spec)
    }

    /// `EncryptedDb::insert_document`'s sequence: `MaxPre`, encode at the
    /// high-water mark, ship the rows.
    fn insert(&mut self, xml: &str) -> Result<InsertOutcome, CoreError> {
        let offset = self.client.max_pre()?;
        let map = self.client.map().clone();
        let seed = self.client.seed().clone();
        let encode = || ssx_core::encode_document_at(xml, &map, &seed, offset);
        let out = match &self.tracer {
            Some(t) => t.encode(rows_of, encode),
            None => encode(),
        }?;
        let rows = out.table.into_rows();
        let wire: Vec<(Loc, Vec<u8>)> = rows.iter().map(|r| (r.loc, r.poly.to_vec())).collect();
        let n = self.client.insert_rows(wire)?;
        if n != rows.len() as u64 {
            return Err(CoreError::Transport(format!(
                "store accepted {n} of {} rows",
                rows.len()
            )));
        }
        Ok(InsertOutcome {
            root_pre: offset + 1,
            rows: n,
            offset,
        })
    }

    /// `EncryptedDb::delete_document`'s sequence: locate the root, list
    /// its descendants, delete them with their numeric-plane twins.
    fn delete(&mut self, root_pre: u32) -> Result<u64, CoreError> {
        let loc = self
            .client
            .loc_of(root_pre)?
            .ok_or_else(|| CoreError::Transport(format!("no node with pre={root_pre}")))?;
        let mut pres = vec![root_pre];
        pres.extend(self.client.descendants(loc)?.into_iter().map(|l| l.pre));
        let numeric: Vec<u32> = pres.iter().map(|&p| numeric_pre(p)).collect();
        pres.extend(numeric);
        self.client.delete_pres(pres)
    }

    fn counters(&mut self) -> Snapshot {
        Snapshot {
            client: self.client.stats(),
            transport: self.client.transport_stats(),
            server: self
                .server
                .as_ref()
                .map(|f| f(self.client.transport()))
                .unwrap_or_default(),
        }
    }
}

/// Rows of an encode result (0 when it failed).
pub fn rows_of(r: &Result<ssx_core::EncodeOutput, CoreError>) -> usize {
    r.as_ref().map_or(0, |o| o.table.len())
}

/// Why an attempt failed, for the failure accounting. Any error outside
/// these four fails the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Conflict {
    /// A racing write moved the epoch under an aggregate's snapshot.
    Epoch,
    /// A node a multi-wave read had seen was deleted before the next wave.
    NoNode,
    /// A cursor crossed a write (the server's epoch fence).
    CursorFence,
    /// A call exceeded its deadline.
    Timeout,
}

impl Conflict {
    pub const ALL: [Conflict; 4] = [
        Conflict::Epoch,
        Conflict::NoNode,
        Conflict::CursorFence,
        Conflict::Timeout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Conflict::Epoch => "epoch_conflict",
            Conflict::NoNode => "no_node",
            Conflict::CursorFence => "cursor_fence",
            Conflict::Timeout => "timeout",
        }
    }

    fn of(e: &CoreError) -> Option<Conflict> {
        match e {
            CoreError::EpochConflict(_) => Some(Conflict::Epoch),
            CoreError::Timeout(_) => Some(Conflict::Timeout),
            other => {
                let msg = other.to_string();
                if msg.contains("no node") {
                    Some(Conflict::NoNode)
                } else if msg.contains(ssx_core::server::EPOCH_FENCE) {
                    Some(Conflict::CursorFence)
                } else {
                    None
                }
            }
        }
    }
}

/// The kinds of op a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Query,
    Agg,
    Write,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Query, OpKind::Agg, OpKind::Write];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Query => "query",
            OpKind::Agg => "agg",
            OpKind::Write => "write",
        }
    }
}

/// Failed attempts of one op, by kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Failures {
    pub counts: [u64; 4],
}

impl Failures {
    fn note(&mut self, c: Conflict, n: u64) {
        self.counts[c as usize] += n;
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// The answer of a read op.
pub enum Answer {
    Pres(Vec<u32>),
    Agg(AggregateOutcome),
}

/// One finished op.
pub struct Done<R> {
    pub value: R,
    /// Every try, including the aggregate plane's own snapshot retries.
    pub attempts: u64,
    pub failures: Failures,
    pub ms: f64,
}

/// An op that ran out of attempts, or failed outside the conflict
/// contract (which fails the run).
pub enum OpError {
    Exhausted(Failures),
    Fatal(String),
}

/// Runs `f` until it succeeds, retrying typed conflicts up to
/// [`MAX_ATTEMPTS`]. Latency runs from `start` (the first attempt, or an
/// open-loop op's scheduled time) to the answer.
pub fn with_retries<R>(
    start: Instant,
    mut f: impl FnMut(&mut Failures) -> Result<R, CoreError>,
) -> Result<Done<R>, OpError> {
    let mut failures = Failures::default();
    for _ in 0..MAX_ATTEMPTS {
        match f(&mut failures) {
            Ok(value) => {
                return Ok(Done {
                    value,
                    attempts: failures.total() + 1,
                    failures,
                    ms: start.elapsed().as_secs_f64() * 1e3,
                })
            }
            Err(e) => match Conflict::of(&e) {
                Some(c) => failures.note(c, 1),
                None => return Err(OpError::Fatal(e.to_string())),
            },
        }
    }
    Err(OpError::Exhausted(failures))
}

/// Runs one read op with retries. An aggregate's own snapshot retries
/// (`AggregateOutcome::retries`) count as failed attempts too.
pub fn run_read(db: &mut dyn Db, op: &ReadOp, start: Instant) -> Result<Done<Answer>, OpError> {
    with_retries(start, |failures| match &op.kind {
        ReadKind::Query { query, .. } => db.query(query, op.rule).map(|o| Answer::Pres(o.pres())),
        ReadKind::Agg { spec, .. } => match db.aggregate(spec, op.rule) {
            Ok(o) => {
                failures.note(Conflict::Epoch, o.retries as u64);
                Ok(Answer::Agg(o))
            }
            Err(e @ CoreError::EpochConflict(_)) => {
                // Every snapshot the call took was discarded.
                failures.note(
                    Conflict::Epoch,
                    ssx_core::aggregate::DEFAULT_AGG_RETRIES as u64,
                );
                Err(e)
            }
            Err(e) => Err(e),
        },
    })
}

/// Checks an answer against the oracle on the base document: the exact
/// plaintext answer.
pub fn check_exact(op: &ReadOp, answer: &Answer) -> Result<(), String> {
    match (&op.kind, answer) {
        (ReadKind::Query { expect, .. }, Answer::Pres(got)) => {
            if got == expect {
                Ok(())
            } else {
                Err(format!(
                    "{}: {} matches, oracle has {}",
                    op.label,
                    got.len(),
                    expect.len()
                ))
            }
        }
        (ReadKind::Agg { spec, expect }, Answer::Agg(got)) => {
            let ok = got.count == expect.count
                && match spec.op {
                    ssx_core::AggOp::Count => got.sum == 0,
                    _ => got.sum == expect.sum && got.contributing == expect.contributing,
                };
            if ok {
                Ok(())
            } else {
                Err(format!(
                    "{}: got count {} sum {} of {}, oracle count {} sum {} of {}",
                    op.label,
                    got.count,
                    got.sum,
                    got.contributing,
                    expect.count,
                    expect.sum,
                    expect.contributing
                ))
            }
        }
        _ => Err(format!("{}: answer of the wrong shape", op.label)),
    }
}
