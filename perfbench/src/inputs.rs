//! Everything a run feeds the program, derived from the one `--seed`: the
//! documents, the tag map and client key, the op order, the range bounds
//! and the documents the writers insert. The plaintext oracle answers are
//! computed here too, from the parsed documents.

use ssx_bench::{TABLE1_CHAIN, TABLE2};
use ssx_core::{
    reference_aggregate, reference_eval, AggOp, AggregateSpec, MapFile, MatchRule, RefAggregate,
};
use ssx_prg::{Prg, Seed};
use ssx_xmark::{generate, XmarkConfig, DTD_ELEMENTS};
use ssx_xml::Document;
use ssx_xpath::{parse_query, Query};

/// Field of every workload: the paper's `p = 83, e = 1`.
const P: u64 = 83;
/// Digits per numeric-plane group at `q = 83` (the ring length `q − 1`),
/// the `ring_len` the aggregate oracle needs.
pub const RING_LEN: usize = 82;
/// Target size of each document a writer inserts.
pub const INSERT_DOC_BYTES: usize = 2 * 1024;

/// The numeric paths the aggregates run over.
const AGG_PATHS: [&str; 2] = ["//item/quantity", "//person/profile/age"];

/// Derives an independent 64-bit stream value from the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A read op and its plaintext answer on the base document.
pub struct ReadOp {
    pub label: String,
    /// The query or aggregate path as written.
    pub text: &'static str,
    pub rule: MatchRule,
    pub kind: ReadKind,
}

pub enum ReadKind {
    Query {
        query: Query,
        expect: Vec<u32>,
    },
    Agg {
        spec: AggregateSpec,
        expect: RefAggregate,
    },
}

impl ReadOp {
    pub fn is_agg(&self) -> bool {
        matches!(self.kind, ReadKind::Agg { .. })
    }

    fn query(text: &'static str, rule: MatchRule, doc: &Document) -> ReadOp {
        let query = parse_query(text)
            .expect("benchmark query parses")
            .expand_text_predicates();
        let expect = reference_eval(doc, &query, rule).expect("oracle query");
        ReadOp {
            label: format!("{text} [{}]", rule_name(rule)),
            text,
            rule,
            kind: ReadKind::Query { query, expect },
        }
    }

    fn agg(path: &'static str, op: AggOp, range: Option<(u64, u64)>, doc: &Document) -> ReadOp {
        let query = parse_query(path).expect("benchmark aggregate parses");
        let rule = MatchRule::Equality;
        let expect = reference_aggregate(doc, &query, rule, RING_LEN, range).expect("oracle agg");
        let label = match range {
            Some((lo, hi)) => format!("{op:?} {path} in {lo}..{hi}"),
            None => format!("{op:?} {path}"),
        };
        ReadOp {
            label,
            text: path,
            rule,
            kind: ReadKind::Agg {
                spec: AggregateSpec { query, op, range },
                expect,
            },
        }
    }
}

fn rule_name(rule: MatchRule) -> &'static str {
    match rule {
        MatchRule::Equality => "strict",
        MatchRule::Containment => "non-strict",
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub seed: u64,
    pub xml: String,
    pub doc: Document,
    pub map: MapFile,
    pub key: Seed,
}

impl Inputs {
    /// The base document of `bytes` bytes plus the client secrets.
    pub fn generate(seed: u64, bytes: usize) -> Inputs {
        let xml = generate(&XmarkConfig {
            seed: derive(seed, 1),
            target_bytes: bytes,
        });
        let doc = Document::parse(&xml).expect("generated document parses");
        let map = MapFile::random(P, 1, &DTD_ELEMENTS, &mut Prg::from_u64(derive(seed, 2)))
            .expect("tag map");
        let key = Seed::from_test_key(derive(seed, 3));
        Inputs {
            seed,
            xml,
            doc,
            map,
            key,
        }
    }

    fn order_prg(&self, stream: u64) -> Prg {
        Prg::from_u64(derive(self.seed, 4 + stream))
    }

    /// The paper's query set — the Fig-6 queries plus the Table-1 chain —
    /// each strict and non-strict, in a seeded order.
    pub fn paper_queries(&self) -> Vec<ReadOp> {
        let mut ops = Vec::new();
        for text in TABLE2.iter().copied().chain([TABLE1_CHAIN]) {
            for rule in [MatchRule::Equality, MatchRule::Containment] {
                ops.push(ReadOp::query(text, rule, &self.doc));
            }
        }
        shuffle(&mut ops, &mut self.order_prg(0));
        ops
    }

    /// COUNT, SUM and AVG over both numeric paths, each with and without a
    /// seeded inclusive range, in a seeded order.
    pub fn aggregates(&self) -> Vec<ReadOp> {
        let mut prg = self.order_prg(1);
        let mut ops = Vec::new();
        for path in AGG_PATHS {
            // Quantities are 1..=10, ages 18..=80 (see ssx_xmark).
            let (lo, hi) = if path.ends_with("quantity") {
                let lo = prg.next_range(1, 5);
                (lo, lo + prg.next_range(2, 4))
            } else {
                let lo = prg.next_range(18, 40);
                (lo, lo + prg.next_range(10, 30))
            };
            for op in [AggOp::Count, AggOp::Sum, AggOp::Avg] {
                ops.push(ReadOp::agg(path, op, None, &self.doc));
                ops.push(ReadOp::agg(path, op, Some((lo, hi)), &self.doc));
            }
        }
        shuffle(&mut ops, &mut prg);
        ops
    }

    /// Strict queries alternating with aggregates: one cycle runs every
    /// aggregate once, with the strict paper queries round-robin between
    /// them.
    pub fn strict_and_aggregates(&self) -> Vec<ReadOp> {
        let texts: Vec<&str> = self
            .paper_queries()
            .iter()
            .filter(|op| op.rule == MatchRule::Equality)
            .map(|op| op.text)
            .collect();
        let mut out = Vec::new();
        for (i, agg) in self.aggregates().into_iter().enumerate() {
            out.push(ReadOp::query(
                texts[i % texts.len()],
                MatchRule::Equality,
                &self.doc,
            ));
            out.push(agg);
        }
        out
    }

    /// The `k`-th document a writer inserts (~2 KB).
    pub fn insert_doc(&self, k: usize) -> String {
        generate(&XmarkConfig {
            seed: derive(self.seed, 1000 + k as u64),
            target_bytes: INSERT_DOC_BYTES,
        })
    }
}

/// Fisher–Yates with the benchmark's PRG.
fn shuffle<T>(items: &mut [T], prg: &mut Prg) {
    for i in (1..items.len()).rev() {
        let j = prg.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}
