//! The encoded-node table: `(pre, post, parent, polynomial)` rows plus the
//! three B-tree indices of the paper.

use crate::btree::BTree;
use std::fmt;

/// First `pre` of the auxiliary numeric plane. Rows at or above this
/// boundary carry per-element *numeric values* (base-2 digit shares for the
/// aggregation plane) rather than tag polynomials: an element `p` whose text
/// is an integer stores its value share at `pre = NUM_PLANE_BASE + p`.
/// Numeric rows are leaf-only and carry `parent = 0` with a pre/post
/// interval mirroring the element's, so [`Table::check_integrity`]'s nesting
/// scan sees them as disjoint single-node trees. Structural answers
/// ([`Table::roots`], [`Table::max_pre`], and the server's children and
/// descendants) leave the plane out; the ordinary document plane must stay
/// below the boundary.
pub const NUM_PLANE_BASE: u32 = 1 << 30;

/// A node location as the engines see it: the pre/post/parent triple. This
/// is all the *structural* information the server reveals per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Open-tag sequence number (1-based; the primary key).
    pub pre: u32,
    /// Close-tag sequence number.
    pub post: u32,
    /// `pre` of the parent; 0 for the root.
    pub parent: u32,
}

/// A stored row: location plus the packed server-share polynomial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Node location.
    pub loc: Loc,
    /// Packed polynomial (constant length per table).
    pub poly: Box<[u8]>,
}

/// Errors from table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Row violated a structural constraint.
    BadRow(String),
    /// A queried `pre` does not exist.
    NoSuchNode(u32),
    /// Polynomial payload had the wrong length for this table.
    WrongPolyLen {
        /// Expected packed length.
        expected: usize,
        /// Actual length supplied.
        got: usize,
    },
    /// Persistence-layer failure (I/O or corruption).
    Persist(String),
    /// A WAL record's payload or row count exceeds what its 4-byte wire
    /// length prefix can carry — writing it would silently truncate the
    /// length and corrupt the log for every later replay.
    RecordTooLarge {
        /// The length that did not fit.
        len: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadRow(m) => write!(f, "bad row: {m}"),
            StoreError::NoSuchNode(pre) => write!(f, "no node with pre = {pre}"),
            StoreError::WrongPolyLen { expected, got } => {
                write!(f, "polynomial payload {got} bytes, table stores {expected}")
            }
            StoreError::Persist(m) => write!(f, "persistence error: {m}"),
            StoreError::RecordTooLarge { len } => {
                write!(f, "record of {len} bytes exceeds the 4-byte length prefix")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Byte-level size report backing the Fig 4 reproduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeReport {
    /// Total bytes of packed polynomials.
    pub poly_bytes: usize,
    /// Total bytes of pre/post/parent triples (12 per row).
    pub structure_bytes: usize,
    /// Estimated bytes of the three B-tree indices.
    pub index_bytes: usize,
    /// Number of rows.
    pub rows: usize,
}

impl SizeReport {
    /// Data bytes: polynomials + structure (the paper's "output size").
    pub fn data_bytes(&self) -> usize {
        self.poly_bytes + self.structure_bytes
    }

    /// Fraction of the output taken by pre/post/parent (paper: ≈ 17%).
    pub fn structure_fraction(&self) -> f64 {
        if self.data_bytes() == 0 {
            return 0.0;
        }
        self.structure_bytes as f64 / self.data_bytes() as f64
    }
}

/// The server table. Insertion order is free, but the usual producer (the
/// encoder) emits rows in `post` order; all indices accept any order.
#[derive(Clone, Debug)]
pub struct Table {
    rows: Vec<Row>,
    poly_len: usize,
    /// pre → row position.
    pre_idx: BTree,
    /// post → row position.
    post_idx: BTree,
    /// (parent << 32 | pre) → row position; enables ordered children scans.
    parent_idx: BTree,
    /// Largest `post` inserted so far; a new `post` above it is fresh
    /// without probing the index. The usual producer (the encoder) emits
    /// `post = 1, 2, 3, …`, so its duplicate probe is one comparison.
    /// Removal leaves it as a stale-high hint (still sound for the probe).
    max_post: u64,
    /// Largest `pre` ever inserted; like `max_post`, a stale-high hint after
    /// removals. The write plane allocates fresh document offsets above it.
    max_pre: u64,
}

impl Table {
    /// Creates an empty table storing `poly_len`-byte packed polynomials.
    pub fn new(poly_len: usize) -> Self {
        Table {
            rows: Vec::new(),
            poly_len,
            pre_idx: BTree::new(),
            post_idx: BTree::new(),
            parent_idx: BTree::new(),
            max_post: 0,
            max_pre: 0,
        }
    }

    /// Largest *document-plane* `pre` ever inserted (a stale-high hint after
    /// removals — never reused, which is exactly what offset allocation
    /// wants). Numeric-plane rows (`pre >= NUM_PLANE_BASE`) are excluded:
    /// their ids are derived from element `pre`s, so counting them here
    /// would wreck offset allocation the moment one lands.
    pub fn max_pre(&self) -> u32 {
        self.max_pre as u32
    }

    /// Largest `post` ever inserted (stale-high after removals).
    pub fn max_post(&self) -> u32 {
        self.max_post as u32
    }

    /// Packed polynomial length for this table.
    pub fn poly_len(&self) -> usize {
        self.poly_len
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row, enforcing uniqueness of `pre` and `post`, payload
    /// length, and basic sanity (`pre >= 1`, `parent < pre`).
    pub fn insert(&mut self, row: Row) -> Result<(), StoreError> {
        if row.poly.len() != self.poly_len {
            return Err(StoreError::WrongPolyLen {
                expected: self.poly_len,
                got: row.poly.len(),
            });
        }
        let Loc { pre, post, parent } = row.loc;
        if pre == 0 {
            return Err(StoreError::BadRow("pre must be >= 1".into()));
        }
        if parent >= pre {
            return Err(StoreError::BadRow(format!(
                "parent {parent} not before pre {pre}"
            )));
        }
        let pos = self.rows.len() as u64;
        // `post` is probed before any index mutates so a duplicate leaves
        // the table untouched; `pre` uniqueness rides on the combined
        // probe-and-insert descent, and the parent key embeds `pre` so its
        // uniqueness follows. Monotone producers skip the probe descent via
        // the `max_post` high-water mark.
        if post as u64 <= self.max_post && self.post_idx.contains(post as u64) {
            return Err(StoreError::BadRow(format!("duplicate post {post}")));
        }
        if !self.pre_idx.insert_new(pre as u64, pos) {
            return Err(StoreError::BadRow(format!("duplicate pre {pre}")));
        }
        let fresh_post = self.post_idx.insert_new(post as u64, pos);
        debug_assert!(fresh_post, "post checked above");
        let fresh_parent = self
            .parent_idx
            .insert_new(((parent as u64) << 32) | pre as u64, pos);
        debug_assert!(fresh_parent, "parent key embeds the unique pre");
        self.max_post = self.max_post.max(post as u64);
        if pre < NUM_PLANE_BASE {
            self.max_pre = self.max_pre.max(pre as u64);
        }
        self.rows.push(row);
        Ok(())
    }

    /// Removes the row with `pre`, returning it. The last row is swapped
    /// into the vacated position and its three index entries re-pointed, so
    /// removal is O(log n) regardless of position. Removing an interior node
    /// while its descendants stay behind leaves those rows orphaned — the
    /// write plane always removes whole document blocks, and
    /// [`Table::check_integrity`] catches anything less.
    pub fn remove(&mut self, pre: u32) -> Result<Row, StoreError> {
        let pos = self
            .pre_idx
            .remove(pre as u64)
            .ok_or(StoreError::NoSuchNode(pre))? as usize;
        let loc = self.rows[pos].loc;
        self.post_idx.remove(loc.post as u64);
        self.parent_idx
            .remove(((loc.parent as u64) << 32) | pre as u64);
        let row = self.rows.swap_remove(pos);
        if pos < self.rows.len() {
            let moved = self.rows[pos].loc;
            self.pre_idx.insert(moved.pre as u64, pos as u64);
            self.post_idx.insert(moved.post as u64, pos as u64);
            self.parent_idx
                .insert(((moved.parent as u64) << 32) | moved.pre as u64, pos as u64);
        }
        Ok(row)
    }

    /// Row by `pre` (indexed point lookup).
    pub fn by_pre(&self, pre: u32) -> Option<&Row> {
        self.pre_idx
            .get(pre as u64)
            .map(|pos| &self.rows[pos as usize])
    }

    /// The first root row — "the node without a parent (parent = 0)", found
    /// through the parent index in logarithmic time (§5.3). A multi-document
    /// store is a forest; this returns the root with the smallest `pre`
    /// (document order), and [`Table::roots`] enumerates them all.
    pub fn root(&self) -> Option<&Row> {
        let (key, pos) = self.parent_idx.lower_bound(0)?;
        if key >> 32 != 0 {
            return None; // no parent-0 entry at all (cannot happen for trees)
        }
        Some(&self.rows[pos as usize])
    }

    /// All document roots (`parent = 0`) in document order — one ordered
    /// scan of the parent-0 prefix of the `(parent, pre)` index. A parent-0
    /// key is its `pre`, so bounding the scan below [`NUM_PLANE_BASE`]
    /// leaves out the numeric-plane rows (also `parent = 0`) and the scan
    /// costs the number of roots, not the number of numeric values.
    pub fn roots(&self) -> Vec<Loc> {
        self.parent_idx
            .range(0, NUM_PLANE_BASE as u64 - 1)
            .map(|(_, pos)| self.rows[pos as usize].loc)
            .collect()
    }

    /// Children of the node with `pre = parent`, in document order — one
    /// ordered scan of the `(parent, pre)` index.
    pub fn children_of(&self, parent: u32) -> Vec<Loc> {
        let lo = (parent as u64) << 32;
        let hi = lo | u32::MAX as u64;
        self.parent_idx
            .range(lo, hi)
            .map(|(_, pos)| self.rows[pos as usize].loc)
            .collect()
    }

    /// Descendants of `loc` in document order. Exploits the interval
    /// property: they are exactly the rows with `pre > loc.pre` and
    /// `post < loc.post`, *contiguous* in `pre` order — a single range scan
    /// that stops at the first row with `post > loc.post`.
    pub fn descendants_of(&self, loc: Loc) -> Vec<Loc> {
        let mut out = Vec::new();
        for (_, pos) in self.pre_idx.range(loc.pre as u64 + 1, u64::MAX) {
            let row = &self.rows[pos as usize];
            if row.loc.post > loc.post {
                break;
            }
            out.push(row.loc);
        }
        out
    }

    /// Descendants via a full table scan (no index) — the baseline for the
    /// index ablation bench; returns the same set as
    /// [`Table::descendants_of`].
    pub fn descendants_of_scan(&self, loc: Loc) -> Vec<Loc> {
        let mut out: Vec<Loc> = self
            .rows
            .iter()
            .filter(|r| r.loc.pre > loc.pre && r.loc.post < loc.post)
            .map(|r| r.loc)
            .collect();
        out.sort_by_key(|l| l.pre);
        out
    }

    /// All locations in document (`pre`) order.
    pub fn all_locs(&self) -> Vec<Loc> {
        self.pre_idx
            .iter()
            .map(|(_, pos)| self.rows[pos as usize].loc)
            .collect()
    }

    /// Direct row access in insertion order (persistence).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consumes the table, yielding its rows in insertion order (used to
    /// repartition a table across shards without cloning the payloads).
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Byte-level size accounting for the Fig 4 series.
    pub fn size_report(&self) -> SizeReport {
        SizeReport {
            poly_bytes: self.rows.len() * self.poly_len,
            structure_bytes: self.rows.len() * 12,
            index_bytes: self.pre_idx.byte_size()
                + self.post_idx.byte_size()
                + self.parent_idx.byte_size(),
            rows: self.rows.len(),
        }
    }

    /// Structural integrity check: the rows in `pre` order must form a
    /// forest of properly nested intervals (one tree per document) in which
    /// every row's `parent` is exactly its innermost enclosing node — the
    /// shape the single-range-scan [`Table::descendants_of`] relies on. A
    /// single-document table is the one-root special case. Used after
    /// loading from disk and after write-plane mutations.
    pub fn check_integrity(&self) -> Result<(), StoreError> {
        if self.rows.is_empty() {
            return Ok(());
        }
        let mut stack: Vec<Loc> = Vec::new();
        let mut roots = 0usize;
        for loc in self.all_locs() {
            // Close every open node whose interval ended before this row.
            while let Some(top) = stack.last() {
                if top.post < loc.post {
                    stack.pop();
                } else {
                    break;
                }
            }
            match stack.last() {
                None => {
                    if loc.parent != 0 {
                        return Err(StoreError::BadRow(format!(
                            "row pre={} claims parent {} but no node encloses it",
                            loc.pre, loc.parent
                        )));
                    }
                    roots += 1;
                }
                Some(top) => {
                    if loc.parent != top.pre {
                        return Err(StoreError::BadRow(format!(
                            "row pre={} has parent {} but its innermost enclosing node is {}",
                            loc.pre, loc.parent, top.pre
                        )));
                    }
                }
            }
            stack.push(loc);
        }
        debug_assert!(roots >= 1, "non-empty table always surfaces a root");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the table for this little tree (pre/post/parent as the paper
    /// numbers them):
    ///
    /// ```text
    /// a(1,4,0) { b(2,2,1) { c(3,1,2) }, d(4,3,1) }
    /// ```
    fn sample_table() -> Table {
        let mut t = Table::new(4);
        for (pre, post, parent) in [(1u32, 4u32, 0u32), (2, 2, 1), (3, 1, 2), (4, 3, 1)] {
            t.insert(Row {
                loc: Loc { pre, post, parent },
                poly: vec![pre as u8; 4].into_boxed_slice(),
            })
            .unwrap();
        }
        t
    }

    #[test]
    fn point_lookups() {
        let t = sample_table();
        assert_eq!(t.len(), 4);
        assert_eq!(
            t.by_pre(3).unwrap().loc,
            Loc {
                pre: 3,
                post: 1,
                parent: 2
            }
        );
        assert!(t.by_pre(99).is_none());
        assert_eq!(t.root().unwrap().loc.pre, 1);
    }

    #[test]
    fn children_in_document_order() {
        let t = sample_table();
        let kids = t.children_of(1);
        assert_eq!(kids.iter().map(|l| l.pre).collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(t.children_of(3), vec![]);
    }

    #[test]
    fn descendants_interval_scan() {
        let t = sample_table();
        let root = t.root().unwrap().loc;
        let desc = t.descendants_of(root);
        assert_eq!(
            desc.iter().map(|l| l.pre).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        let b = t.by_pre(2).unwrap().loc;
        assert_eq!(
            t.descendants_of(b)
                .iter()
                .map(|l| l.pre)
                .collect::<Vec<_>>(),
            vec![3]
        );
        // Scan baseline agrees.
        assert_eq!(t.descendants_of(root), t.descendants_of_scan(root));
        assert_eq!(t.descendants_of(b), t.descendants_of_scan(b));
    }

    #[test]
    fn insert_validation() {
        let mut t = sample_table();
        let poly = vec![0u8; 4].into_boxed_slice();
        assert!(matches!(
            t.insert(Row {
                loc: Loc {
                    pre: 0,
                    post: 9,
                    parent: 0
                },
                poly: poly.clone()
            }),
            Err(StoreError::BadRow(_))
        ));
        assert!(matches!(
            t.insert(Row {
                loc: Loc {
                    pre: 2,
                    post: 9,
                    parent: 1
                },
                poly: poly.clone()
            }),
            Err(StoreError::BadRow(_)) // duplicate pre
        ));
        assert!(matches!(
            t.insert(Row {
                loc: Loc {
                    pre: 9,
                    post: 2,
                    parent: 1
                },
                poly: poly.clone()
            }),
            Err(StoreError::BadRow(_)) // duplicate post
        ));
        assert!(matches!(
            t.insert(Row {
                loc: Loc {
                    pre: 9,
                    post: 9,
                    parent: 9
                },
                poly: poly.clone()
            }),
            Err(StoreError::BadRow(_)) // parent not before pre
        ));
        assert!(matches!(
            t.insert(Row {
                loc: Loc {
                    pre: 9,
                    post: 9,
                    parent: 1
                },
                poly: vec![0; 3].into()
            }),
            Err(StoreError::WrongPolyLen {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn size_report_accounts_everything() {
        let t = sample_table();
        let r = t.size_report();
        assert_eq!(r.rows, 4);
        assert_eq!(r.poly_bytes, 16);
        assert_eq!(r.structure_bytes, 48);
        assert!(r.index_bytes > 0);
        assert_eq!(r.data_bytes(), 64);
        assert!((r.structure_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn integrity_checks() {
        let t = sample_table();
        t.check_integrity().unwrap();
        // A second root with its own disjoint block is a valid forest.
        let mut forest = sample_table();
        forest
            .insert(Row {
                loc: Loc {
                    pre: 9,
                    post: 9,
                    parent: 0,
                },
                poly: vec![0; 4].into_boxed_slice(),
            })
            .unwrap();
        forest.check_integrity().unwrap();
        assert_eq!(forest.roots().len(), 2);
        // A dangling parent breaks it.
        let mut bad = sample_table();
        bad.insert(Row {
            loc: Loc {
                pre: 9,
                post: 9,
                parent: 7,
            },
            poly: vec![0; 4].into_boxed_slice(),
        })
        .unwrap();
        assert!(bad.check_integrity().is_err());
        // A "root" nested inside another root's interval breaks it: the
        // descendants range scan for pre=1 would sweep it up.
        let mut bad2 = Table::new(1);
        for (pre, post, parent) in [(1u32, 3u32, 0u32), (2, 1, 1), (3, 2, 0)] {
            bad2.insert(Row {
                loc: Loc { pre, post, parent },
                poly: vec![0].into_boxed_slice(),
            })
            .unwrap();
        }
        assert!(bad2.check_integrity().is_err());
        // A parent pointer that skips the innermost enclosing node breaks
        // it (children_of and the interval scan would disagree).
        let mut bad3 = Table::new(1);
        for (pre, post, parent) in [(1u32, 3u32, 0u32), (2, 2, 1), (3, 1, 1)] {
            bad3.insert(Row {
                loc: Loc { pre, post, parent },
                poly: vec![0].into_boxed_slice(),
            })
            .unwrap();
        }
        assert!(bad3.check_integrity().is_err());
    }

    #[test]
    fn remove_swaps_and_repoints_indices() {
        let mut t = sample_table();
        // Remove an interior-position row: the last row (pre=4) swaps into
        // its slot and every index must still resolve it.
        let gone = t.remove(2).unwrap();
        assert_eq!(gone.loc.pre, 2);
        assert_eq!(t.len(), 3);
        assert!(t.by_pre(2).is_none());
        assert_eq!(t.by_pre(4).unwrap().loc.post, 3);
        assert_eq!(
            t.children_of(1).iter().map(|l| l.pre).collect::<Vec<_>>(),
            vec![4]
        );
        assert!(matches!(t.remove(2), Err(StoreError::NoSuchNode(2))));
        // max_pre/max_post stay stale-high hints.
        assert_eq!(t.max_pre(), 4);
        assert_eq!(t.max_post(), 4);
        // Re-inserting the removed location is accepted again.
        t.insert(gone).unwrap();
        t.check_integrity().unwrap();
        assert_eq!(
            t.all_locs().iter().map(|l| l.pre).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
    }

    #[test]
    fn forest_blocks_scan_independently() {
        // Two documents at offsets 0 and 4 (the sample tree twice): every
        // per-document query must answer as if the other were absent.
        let mut t = Table::new(4);
        for offset in [0u32, 4] {
            for (pre, post, parent) in [(1u32, 4u32, 0u32), (2, 2, 1), (3, 1, 2), (4, 3, 1)] {
                t.insert(Row {
                    loc: Loc {
                        pre: pre + offset,
                        post: post + offset,
                        parent: if parent == 0 { 0 } else { parent + offset },
                    },
                    poly: vec![pre as u8; 4].into_boxed_slice(),
                })
                .unwrap();
            }
        }
        t.check_integrity().unwrap();
        assert_eq!(
            t.roots().iter().map(|l| l.pre).collect::<Vec<_>>(),
            vec![1, 5]
        );
        assert_eq!(t.root().unwrap().loc.pre, 1, "first root in pre order");
        for offset in [0u32, 4] {
            let root = t.by_pre(1 + offset).unwrap().loc;
            let desc: Vec<u32> = t.descendants_of(root).iter().map(|l| l.pre).collect();
            assert_eq!(desc, vec![2 + offset, 3 + offset, 4 + offset]);
            assert_eq!(t.descendants_of(root), t.descendants_of_scan(root));
        }
        // Delete the first document block; the second must be untouched.
        for pre in 1..=4u32 {
            t.remove(pre).unwrap();
        }
        t.check_integrity().unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.root().unwrap().loc.pre, 5);
        let root = t.by_pre(5).unwrap().loc;
        assert_eq!(
            t.descendants_of(root)
                .iter()
                .map(|l| l.pre)
                .collect::<Vec<_>>(),
            vec![6, 7, 8]
        );
    }

    #[test]
    fn roots_leave_out_the_numeric_plane() {
        // Numeric-plane rows are stored with `parent = 0`, like roots.
        let mut t = sample_table();
        for pre in [2u32, 3] {
            t.insert(Row {
                loc: Loc {
                    pre: NUM_PLANE_BASE + pre,
                    post: NUM_PLANE_BASE + pre,
                    parent: 0,
                },
                poly: vec![0; 4].into_boxed_slice(),
            })
            .unwrap();
        }
        t.check_integrity().unwrap();
        assert_eq!(t.roots().iter().map(|l| l.pre).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn empty_table() {
        let t = Table::new(4);
        assert!(t.is_empty());
        assert!(t.root().is_none());
        assert_eq!(t.all_locs(), vec![]);
        t.check_integrity().unwrap();
        assert_eq!(t.size_report().data_bytes(), 0);
    }

    #[test]
    fn larger_tree_children_vs_descendants() {
        // A star: root with 100 children, each child with one grandchild.
        let mut t = Table::new(1);
        let n = 100u32;
        // pre numbers: root 1; child i -> 2i, grandchild -> 2i+1 (i from 1).
        // posts: grandchild closes first.
        t.insert(Row {
            loc: Loc {
                pre: 1,
                post: 2 * n + 1,
                parent: 0,
            },
            poly: vec![0].into(),
        })
        .unwrap();
        for i in 1..=n {
            t.insert(Row {
                loc: Loc {
                    pre: 2 * i,
                    post: 2 * i,
                    parent: 1,
                },
                poly: vec![0].into(),
            })
            .unwrap();
            t.insert(Row {
                loc: Loc {
                    pre: 2 * i + 1,
                    post: 2 * i - 1,
                    parent: 2 * i,
                },
                poly: vec![0].into(),
            })
            .unwrap();
        }
        t.check_integrity().unwrap();
        assert_eq!(t.children_of(1).len(), n as usize);
        let root = t.root().unwrap().loc;
        assert_eq!(t.descendants_of(root).len(), 2 * n as usize);
        assert_eq!(t.descendants_of(root), t.descendants_of_scan(root));
    }
}
