//! Checksummed single-file persistence for [`Table`], plus the per-party
//! fleet file that stores one party's data + MAC share tables together.
//!
//! Single-table layout (all integers little-endian):
//!
//! ```text
//! magic    8  b"SSXDB\x01\0\0"
//! poly_len 4
//! rows     8
//! row * rows: pre u32 | post u32 | parent u32 | poly[poly_len]
//! checksum 8  FNV-1a over everything before it
//! ```
//!
//! Per-party fleet layout:
//!
//! ```text
//! magic     8  b"SSXFL\x01\0\0"
//! party     4  (1-based Shamir x-coordinate)
//! servers   4  (fleet size n)
//! threshold 4  (reconstruction threshold t)
//! poly_len  4
//! data_rows 8
//! mac_rows  8
//! data rows … mac rows … (same row format as above)
//! checksum  8  FNV-1a over everything before it
//! ```
//!
//! Loading verifies the checksum, rebuilds the three indices and runs the
//! structural integrity check, so a truncated or bit-flipped file is
//! reported as [`StoreError::Persist`] instead of corrupting queries. A
//! party file holds only Shamir shares: no single file (nor any `t − 1`
//! of them) reconstructs the encoded document.
//!
//! The write plane adds a **write-ahead log** next to the snapshot:
//!
//! ```text
//! wal header: magic 8 b"SSXWL\x01\0\0" | poly_len u32
//! record:     len u32 | kind u8 | payload[len − 1] | checksum u64
//! kind 1 insert: rows u32, then per row pre/post/parent u32 + poly
//! kind 2 remove: pres u32 count, then pre u32 each
//! ```
//!
//! `len` counts kind + payload; the FNV-1a checksum covers the length,
//! kind and payload, so a torn tail and a bit-flipped record are both
//! detected. One record = one whole-document mutation, so replaying up to
//! the last complete record always lands on a structurally consistent
//! forest. Replay is idempotent (duplicate inserts and already-gone
//! removes are skipped), and a torn tail is truncated away so later
//! appends start on a clean record boundary.

use crate::table::{Loc, Row, StoreError, Table};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"SSXDB\x01\0\0";
const FLEET_MAGIC: &[u8; 8] = b"SSXFL\x01\0\0";
const WAL_MAGIC: &[u8; 8] = b"SSXWL\x01\0\0";
/// WAL header length: magic + poly_len.
const WAL_HDR: usize = 12;
/// WAL record kinds.
const WAL_INSERT: u8 = 1;
const WAL_REMOVE: u8 = 2;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the row payloads of `table` to `buf` (shared row format).
fn write_rows(buf: &mut Vec<u8>, table: &Table) {
    for row in table.rows() {
        buf.extend_from_slice(&row.loc.pre.to_le_bytes());
        buf.extend_from_slice(&row.loc.post.to_le_bytes());
        buf.extend_from_slice(&row.loc.parent.to_le_bytes());
        buf.extend_from_slice(&row.poly);
    }
}

/// Parses `rows` rows of `poly_len`-byte polynomials starting at
/// `body[off..]` into a fresh, integrity-checked [`Table`].
fn read_rows(body: &[u8], off: usize, rows: usize, poly_len: usize) -> Result<Table, StoreError> {
    let row_size = 12 + poly_len;
    let mut table = Table::new(poly_len);
    for i in 0..rows {
        let at = off + i * row_size;
        let pre = u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
        let post = u32::from_le_bytes(body[at + 4..at + 8].try_into().unwrap());
        let parent = u32::from_le_bytes(body[at + 8..at + 12].try_into().unwrap());
        let poly = body[at + 12..at + row_size].to_vec().into_boxed_slice();
        table
            .insert(Row {
                loc: Loc { pre, post, parent },
                poly,
            })
            .map_err(|e| StoreError::Persist(format!("row {i}: {e}")))?;
    }
    table.check_integrity()?;
    Ok(table)
}

/// Writes `buf` to `path` atomically (write temp + rename).
fn write_atomic(buf: &[u8], path: &Path) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| StoreError::Persist(e.to_string());
    let mut f = std::fs::File::create(&tmp).map_err(io)?;
    f.write_all(buf).map_err(io)?;
    f.sync_all().map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)?;
    Ok(())
}

/// Serialises `table` to `path` atomically (write temp + rename).
pub fn save_table(table: &Table, path: &Path) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(MAGIC.len() + 12 + table.len() * (12 + table.poly_len()) + 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(table.poly_len() as u32).to_le_bytes());
    buf.extend_from_slice(&(table.len() as u64).to_le_bytes());
    write_rows(&mut buf, table);
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    write_atomic(&buf, path)
}

/// Loads a table previously written by [`save_table`], rebuilding indices
/// and verifying integrity.
pub fn load_table(path: &Path) -> Result<Table, StoreError> {
    let io = |e: std::io::Error| StoreError::Persist(e.to_string());
    let mut buf = Vec::new();
    std::fs::File::open(path)
        .map_err(io)?
        .read_to_end(&mut buf)
        .map_err(io)?;
    if buf.len() < MAGIC.len() + 12 + 8 {
        return Err(StoreError::Persist("file too short".into()));
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    let stored_sum = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != stored_sum {
        return Err(StoreError::Persist("checksum mismatch".into()));
    }
    if &body[..8] != MAGIC {
        return Err(StoreError::Persist("bad magic".into()));
    }
    let poly_len = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
    let rows = u64::from_le_bytes(body[12..20].try_into().unwrap()) as usize;
    let row_size = 12 + poly_len;
    let expected = 20 + rows * row_size;
    if body.len() != expected {
        return Err(StoreError::Persist(format!(
            "expected {expected} body bytes, found {}",
            body.len()
        )));
    }
    read_rows(body, 20, rows, poly_len)
}

/// An append-only write-ahead log of whole-document mutations. Every
/// mutation is appended and fsynced once the store has applied it (the
/// facade logs only acknowledged mutations), so a crash at any point
/// recovers by replaying the log over the last snapshot.
#[derive(Debug)]
pub struct Wal {
    file: std::fs::File,
    path: PathBuf,
    poly_len: usize,
}

impl Wal {
    /// Opens (or creates) the log at `path` for `poly_len`-byte rows. An
    /// existing log must carry the same `poly_len` in its header.
    pub fn open(path: &Path, poly_len: usize) -> Result<Wal, StoreError> {
        let io = |e: std::io::Error| StoreError::Persist(e.to_string());
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        let len = file.metadata().map_err(io)?.len();
        if len == 0 {
            let mut hdr = Vec::with_capacity(WAL_HDR);
            hdr.extend_from_slice(WAL_MAGIC);
            hdr.extend_from_slice(&(poly_len as u32).to_le_bytes());
            file.write_all(&hdr).map_err(io)?;
            file.sync_data().map_err(io)?;
        } else {
            if len < WAL_HDR as u64 {
                return Err(StoreError::Persist("wal shorter than its header".into()));
            }
            let mut hdr = [0u8; WAL_HDR];
            file.seek(std::io::SeekFrom::Start(0)).map_err(io)?;
            file.read_exact(&mut hdr).map_err(io)?;
            if &hdr[..8] != WAL_MAGIC {
                return Err(StoreError::Persist("bad wal magic".into()));
            }
            let stored = u32::from_le_bytes(hdr[8..12].try_into().unwrap()) as usize;
            if stored != poly_len {
                return Err(StoreError::Persist(format!(
                    "wal stores {stored}-byte rows, table stores {poly_len}"
                )));
            }
            file.seek(std::io::SeekFrom::End(0)).map_err(io)?;
        }
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            poly_len,
        })
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current file length in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }

    fn append_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        let io = |e: std::io::Error| StoreError::Persist(e.to_string());
        let len = wire_u32(1 + payload.len() as u64)?;
        let mut rec = Vec::with_capacity(4 + 1 + payload.len() + 8);
        rec.extend_from_slice(&len.to_le_bytes());
        rec.push(kind);
        rec.extend_from_slice(payload);
        let sum = fnv1a(&rec);
        rec.extend_from_slice(&sum.to_le_bytes());
        self.file.write_all(&rec).map_err(io)?;
        self.file.sync_data().map_err(io)?;
        Ok(())
    }

    /// Logs the insertion of one whole document block (`rows` must be the
    /// complete set of rows of one document, so replay of the record is an
    /// all-or-nothing document insert).
    pub fn append_insert(&mut self, rows: &[Row]) -> Result<(), StoreError> {
        let count = wire_u32(rows.len() as u64)?;
        let mut payload = Vec::with_capacity(4 + rows.len() * (12 + self.poly_len));
        payload.extend_from_slice(&count.to_le_bytes());
        for row in rows {
            if row.poly.len() != self.poly_len {
                return Err(StoreError::Persist(format!(
                    "wal row poly {} bytes, log stores {}",
                    row.poly.len(),
                    self.poly_len
                )));
            }
            payload.extend_from_slice(&row.loc.pre.to_le_bytes());
            payload.extend_from_slice(&row.loc.post.to_le_bytes());
            payload.extend_from_slice(&row.loc.parent.to_le_bytes());
            payload.extend_from_slice(&row.poly);
        }
        self.append_record(WAL_INSERT, &payload)
    }

    /// Logs the removal of one whole document block by its `pre` numbers.
    pub fn append_remove(&mut self, pres: &[u32]) -> Result<(), StoreError> {
        let count = wire_u32(pres.len() as u64)?;
        let mut payload = Vec::with_capacity(4 + pres.len() * 4);
        payload.extend_from_slice(&count.to_le_bytes());
        for &pre in pres {
            payload.extend_from_slice(&pre.to_le_bytes());
        }
        self.append_record(WAL_REMOVE, &payload)
    }

    /// Drops every record (keeping the header) — called right after the
    /// table is snapshotted, so the snapshot + empty log equal the old
    /// snapshot + full log.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        let io = |e: std::io::Error| StoreError::Persist(e.to_string());
        self.file.set_len(WAL_HDR as u64).map_err(io)?;
        self.file.seek(std::io::SeekFrom::End(0)).map_err(io)?;
        self.file.sync_data().map_err(io)?;
        Ok(())
    }
}

/// Validates a record length or row count against the 4-byte wire prefix
/// *before* any bytes hit the file: a value past `u32::MAX` used to wrap
/// under `as u32` and write a record whose declared length disagreed with
/// its body — silent log corruption surfacing only at the next replay.
fn wire_u32(len: u64) -> Result<u32, StoreError> {
    u32::try_from(len).map_err(|_| StoreError::RecordTooLarge { len })
}

/// What [`replay_wal`] found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Complete, checksum-valid records applied.
    pub records: usize,
    /// Rows inserted into the table.
    pub rows_inserted: usize,
    /// Rows removed from the table.
    pub rows_removed: usize,
    /// Rows skipped because the table already reflected them (idempotent
    /// re-replay after a crash between apply and truncate).
    pub duplicates_skipped: usize,
    /// Bytes of torn tail / corrupt trailing record discarded.
    pub torn_bytes: usize,
}

/// Replays the log at `path` onto `table`, stopping at (and truncating
/// away) the first incomplete or checksum-invalid record. Missing file =
/// nothing to replay. The table is integrity-checked after replay.
pub fn replay_wal(path: &Path, table: &mut Table) -> Result<WalReplay, StoreError> {
    let io = |e: std::io::Error| StoreError::Persist(e.to_string());
    let mut replay = WalReplay::default();
    let buf = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(replay),
        Err(e) => return Err(io(e)),
    };
    if buf.len() < WAL_HDR {
        return Err(StoreError::Persist("wal shorter than its header".into()));
    }
    if &buf[..8] != WAL_MAGIC {
        return Err(StoreError::Persist("bad wal magic".into()));
    }
    let poly_len = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
    if poly_len != table.poly_len() {
        return Err(StoreError::Persist(format!(
            "wal stores {poly_len}-byte rows, table stores {}",
            table.poly_len()
        )));
    }
    let mut at = WAL_HDR;
    let valid_end = loop {
        if at == buf.len() {
            break at; // clean end
        }
        if buf.len() - at < 4 {
            break at; // torn length prefix
        }
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        if len == 0 || buf.len() - at < 4 + len + 8 {
            break at; // torn record
        }
        let framed = &buf[at..at + 4 + len];
        let stored_sum =
            u64::from_le_bytes(buf[at + 4 + len..at + 4 + len + 8].try_into().unwrap());
        if fnv1a(framed) != stored_sum {
            break at; // bit flip anywhere in the record
        }
        let kind = framed[4];
        let payload = &framed[5..];
        match kind {
            WAL_INSERT => {
                if payload.len() < 4 {
                    break at;
                }
                let rows = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
                let row_size = 12 + poly_len;
                if payload.len() != 4 + rows * row_size {
                    break at;
                }
                for i in 0..rows {
                    let p = 4 + i * row_size;
                    let pre = u32::from_le_bytes(payload[p..p + 4].try_into().unwrap());
                    let post = u32::from_le_bytes(payload[p + 4..p + 8].try_into().unwrap());
                    let parent = u32::from_le_bytes(payload[p + 8..p + 12].try_into().unwrap());
                    if table.by_pre(pre).is_some() {
                        replay.duplicates_skipped += 1;
                        continue;
                    }
                    table
                        .insert(Row {
                            loc: Loc { pre, post, parent },
                            poly: payload[p + 12..p + row_size].to_vec().into_boxed_slice(),
                        })
                        .map_err(|e| StoreError::Persist(format!("wal replay: {e}")))?;
                    replay.rows_inserted += 1;
                }
            }
            WAL_REMOVE => {
                if payload.len() < 4 {
                    break at;
                }
                let pres = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
                if payload.len() != 4 + pres * 4 {
                    break at;
                }
                for i in 0..pres {
                    let p = 4 + i * 4;
                    let pre = u32::from_le_bytes(payload[p..p + 4].try_into().unwrap());
                    if table.remove(pre).is_ok() {
                        replay.rows_removed += 1;
                    } else {
                        replay.duplicates_skipped += 1;
                    }
                }
            }
            _ => break at, // unknown kind: treat as corruption boundary
        }
        replay.records += 1;
        at += 4 + len + 8;
    };
    if valid_end < buf.len() {
        replay.torn_bytes = buf.len() - valid_end;
        // Drop the torn tail so the next append starts on a record boundary.
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(io)?;
        f.set_len(valid_end as u64).map_err(io)?;
        f.sync_data().map_err(io)?;
    }
    table.check_integrity()?;
    Ok(replay)
}

/// Loads the snapshot at `snapshot` and replays the log at `wal` over it —
/// the crash-recovery read path of the write plane.
pub fn load_table_with_wal(snapshot: &Path, wal: &Path) -> Result<(Table, WalReplay), StoreError> {
    let mut table = load_table(snapshot)?;
    let replay = replay_wal(wal, &mut table)?;
    Ok((table, replay))
}

/// Snapshots `table` to `snapshot` atomically and truncates `wal` — the
/// incremental-checkpoint step. Ordering matters: the snapshot hits disk
/// (temp + fsync + rename) before any record is dropped, so a crash
/// between the two steps merely replays records the snapshot already
/// contains, which replay skips idempotently.
pub fn checkpoint(table: &Table, snapshot: &Path, wal: &mut Wal) -> Result<(), StoreError> {
    save_table(table, snapshot)?;
    wal.truncate()
}

/// Identity of one fleet party file: which party, out of what deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartyHeader {
    /// 1-based party id (the Shamir x-coordinate).
    pub party: u32,
    /// Fleet size `n`.
    pub servers: u32,
    /// Reconstruction threshold `t`.
    pub threshold: u32,
}

/// Serialises one party's `data` + `mac` share tables to `path` atomically.
/// The file carries the deployment shape so `serve --party i` can refuse a
/// store from a different fleet.
pub fn save_party(
    header: PartyHeader,
    data: &Table,
    mac: &Table,
    path: &Path,
) -> Result<(), StoreError> {
    if data.poly_len() != mac.poly_len() {
        return Err(StoreError::Persist(format!(
            "data poly_len {} != mac poly_len {}",
            data.poly_len(),
            mac.poly_len()
        )));
    }
    let row_size = 12 + data.poly_len();
    let mut buf =
        Vec::with_capacity(FLEET_MAGIC.len() + 32 + (data.len() + mac.len()) * row_size + 8);
    buf.extend_from_slice(FLEET_MAGIC);
    buf.extend_from_slice(&header.party.to_le_bytes());
    buf.extend_from_slice(&header.servers.to_le_bytes());
    buf.extend_from_slice(&header.threshold.to_le_bytes());
    buf.extend_from_slice(&(data.poly_len() as u32).to_le_bytes());
    buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(mac.len() as u64).to_le_bytes());
    write_rows(&mut buf, data);
    write_rows(&mut buf, mac);
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    write_atomic(&buf, path)
}

/// Loads a party file previously written by [`save_party`], verifying the
/// checksum and both tables' structural integrity.
pub fn load_party(path: &Path) -> Result<(PartyHeader, Table, Table), StoreError> {
    let io = |e: std::io::Error| StoreError::Persist(e.to_string());
    let mut buf = Vec::new();
    std::fs::File::open(path)
        .map_err(io)?
        .read_to_end(&mut buf)
        .map_err(io)?;
    const HDR: usize = 8 + 12 + 4 + 16; // magic + party/servers/threshold + poly_len + two row counts
    if buf.len() < HDR + 8 {
        return Err(StoreError::Persist("file too short".into()));
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    let stored_sum = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != stored_sum {
        return Err(StoreError::Persist("checksum mismatch".into()));
    }
    if &body[..8] != FLEET_MAGIC {
        return Err(StoreError::Persist(
            "bad magic (not a fleet party file)".into(),
        ));
    }
    let u32_at = |off: usize| u32::from_le_bytes(body[off..off + 4].try_into().unwrap());
    let header = PartyHeader {
        party: u32_at(8),
        servers: u32_at(12),
        threshold: u32_at(16),
    };
    if header.party == 0
        || header.servers == 0
        || header.party > header.servers
        || header.threshold == 0
        || header.threshold > header.servers
    {
        return Err(StoreError::Persist(format!(
            "inconsistent fleet header: party {} of {}, threshold {}",
            header.party, header.servers, header.threshold
        )));
    }
    let poly_len = u32_at(20) as usize;
    let data_rows = u64::from_le_bytes(body[24..32].try_into().unwrap()) as usize;
    let mac_rows = u64::from_le_bytes(body[32..40].try_into().unwrap()) as usize;
    let row_size = 12 + poly_len;
    let expected = HDR + (data_rows + mac_rows) * row_size;
    if body.len() != expected {
        return Err(StoreError::Persist(format!(
            "expected {expected} body bytes, found {}",
            body.len()
        )));
    }
    let data = read_rows(body, HDR, data_rows, poly_len)?;
    let mac = read_rows(body, HDR + data_rows * row_size, mac_rows, poly_len)?;
    Ok((header, data, mac))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(3);
        for (pre, post, parent) in [(1u32, 3u32, 0u32), (2, 1, 1), (3, 2, 1)] {
            t.insert(Row {
                loc: Loc { pre, post, parent },
                poly: vec![pre as u8, 0xaa, 0xbb].into_boxed_slice(),
            })
            .unwrap();
        }
        t
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ssx_store_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The length/count prefixes of WAL records are 4 bytes on the wire: a
    /// value past `u32::MAX` must surface as a typed error *before* any
    /// bytes are written, never wrap. Exercised at the boundary with mocked
    /// lengths — allocating a real 4 GiB payload would prove nothing more.
    #[test]
    fn oversized_record_lengths_are_typed_errors_not_wraps() {
        assert_eq!(wire_u32(0).unwrap(), 0);
        assert_eq!(wire_u32(u32::MAX as u64).unwrap(), u32::MAX);
        for over in [u32::MAX as u64 + 1, u64::MAX] {
            match wire_u32(over).unwrap_err() {
                StoreError::RecordTooLarge { len } => assert_eq!(len, over),
                other => panic!("expected RecordTooLarge, got {other:?}"),
            }
        }
        // `append_record` adds the 1-byte kind before the cast: a payload of
        // exactly `u32::MAX` bytes is itself one byte too long.
        assert!(matches!(
            wire_u32(1 + u32::MAX as u64),
            Err(StoreError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let path = tmp("round_trip.ssxdb");
        save_table(&t, &path).unwrap();
        let back = load_table(&path).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.poly_len(), t.poly_len());
        for row in t.rows() {
            assert_eq!(back.by_pre(row.loc.pre).unwrap(), row);
        }
        // Indices work after reload.
        assert_eq!(back.children_of(1).len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_detected() {
        let t = sample();
        let path = tmp("truncated.ssxdb");
        save_table(&t, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            load_table(&path).unwrap_err(),
            StoreError::Persist(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_detected() {
        let t = sample();
        let path = tmp("bitflip.ssxdb");
        save_table(&t, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_table(&path).unwrap_err(),
            StoreError::Persist(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_detected() {
        let path = tmp("badmagic.ssxdb");
        // Valid checksum over garbage body.
        let mut buf = b"NOTADB\0\0".to_vec();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let sum = super::fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &buf).unwrap();
        let err = load_table(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::Persist(ref m) if m.contains("magic")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_error() {
        assert!(matches!(
            load_table(Path::new("/nonexistent/nope.ssxdb")).unwrap_err(),
            StoreError::Persist(_)
        ));
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::new(7);
        let path = tmp("empty.ssxdb");
        save_table(&t, &path).unwrap();
        let back = load_table(&path).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.poly_len(), 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn party_round_trip() {
        let data = sample();
        let mac = sample();
        let hdr = PartyHeader {
            party: 2,
            servers: 3,
            threshold: 2,
        };
        let path = tmp("party.ssxfleet");
        save_party(hdr, &data, &mac, &path).unwrap();
        let (back_hdr, back_data, back_mac) = load_party(&path).unwrap();
        assert_eq!(back_hdr, hdr);
        for row in data.rows() {
            assert_eq!(back_data.by_pre(row.loc.pre).unwrap(), row);
            assert_eq!(back_mac.by_pre(row.loc.pre).unwrap(), row);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn party_file_rejects_table_magic_and_vice_versa() {
        let t = sample();
        let table_path = tmp("plain_for_party.ssxdb");
        save_table(&t, &table_path).unwrap();
        let err = load_party(&table_path).unwrap_err();
        assert!(
            matches!(err, StoreError::Persist(ref m) if m.contains("magic")),
            "{err}"
        );
        let party_path = tmp("party_for_plain.ssxfleet");
        save_party(
            PartyHeader {
                party: 1,
                servers: 1,
                threshold: 1,
            },
            &t,
            &t,
            &party_path,
        )
        .unwrap();
        assert!(load_table(&party_path).is_err());
        std::fs::remove_file(&table_path).ok();
        std::fs::remove_file(&party_path).ok();
    }

    #[test]
    fn party_bit_flip_detected() {
        let t = sample();
        let path = tmp("party_bitflip.ssxfleet");
        save_party(
            PartyHeader {
                party: 1,
                servers: 3,
                threshold: 2,
            },
            &t,
            &t,
            &path,
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_party(&path).unwrap_err(),
            StoreError::Persist(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    /// Rows of a small second document block at `offset` (3 nodes).
    fn doc_rows(offset: u32) -> Vec<Row> {
        [(1u32, 3u32, 0u32), (2, 1, 1), (3, 2, 1)]
            .iter()
            .map(|&(pre, post, parent)| Row {
                loc: Loc {
                    pre: pre + offset,
                    post: post + offset,
                    parent: if parent == 0 { 0 } else { parent + offset },
                },
                poly: vec![(pre + offset) as u8, 0xcc, 0xdd].into_boxed_slice(),
            })
            .collect()
    }

    /// Reference rebuild: the snapshot table with `docs` inserted and
    /// `removed` document blocks removed, built directly (no WAL).
    fn reference(docs: &[Vec<Row>], removed: &[u32]) -> Table {
        let mut t = sample();
        for rows in docs {
            for row in rows {
                t.insert(row.clone()).unwrap();
            }
        }
        for &offset in removed {
            for pre in offset + 1..=offset + 3 {
                t.remove(pre).unwrap();
            }
        }
        t
    }

    #[test]
    fn wal_replay_recovers_mutations() {
        let snap = tmp("wal_basic.ssxdb");
        let wal_path = tmp("wal_basic.wal");
        std::fs::remove_file(&wal_path).ok();
        save_table(&sample(), &snap).unwrap();
        let mut wal = Wal::open(&wal_path, 3).unwrap();
        let doc_a = doc_rows(3);
        let doc_b = doc_rows(6);
        wal.append_insert(&doc_a).unwrap();
        wal.append_insert(&doc_b).unwrap();
        wal.append_remove(&[4, 5, 6]).unwrap(); // drop doc_a again
        drop(wal); // crash before any snapshot/truncate
        let (table, replay) = load_table_with_wal(&snap, &wal_path).unwrap();
        assert_eq!(replay.records, 3);
        assert_eq!(replay.rows_inserted, 6);
        assert_eq!(replay.rows_removed, 3);
        assert_eq!(replay.torn_bytes, 0);
        let want = reference(&[doc_rows(3), doc_rows(6)], &[3]);
        assert_eq!(table.rows().len(), want.rows().len());
        for row in want.rows() {
            assert_eq!(table.by_pre(row.loc.pre), Some(row), "pre {}", row.loc.pre);
        }
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn wal_truncated_tail_recovers_to_last_complete_record() {
        let snap = tmp("wal_torn.ssxdb");
        let wal_path = tmp("wal_torn.wal");
        std::fs::remove_file(&wal_path).ok();
        save_table(&sample(), &snap).unwrap();
        let mut wal = Wal::open(&wal_path, 3).unwrap();
        wal.append_insert(&doc_rows(3)).unwrap();
        let complete_len = wal.len_bytes();
        wal.append_insert(&doc_rows(6)).unwrap();
        drop(wal);
        // Tear the tail mid-record (kill -9 between write and sync).
        let bytes = std::fs::read(&wal_path).unwrap();
        for torn_at in [complete_len + 2, bytes.len() as u64 - 3] {
            std::fs::write(&wal_path, &bytes[..torn_at as usize]).unwrap();
            let (table, replay) = load_table_with_wal(&snap, &wal_path).unwrap();
            assert_eq!(replay.records, 1, "torn_at {torn_at}");
            assert!(replay.torn_bytes > 0);
            // Bit-identical to the reference rebuild of the surviving set.
            let want = reference(&[doc_rows(3)], &[]);
            assert_eq!(table.rows().len(), want.rows().len());
            for row in want.rows() {
                assert_eq!(table.by_pre(row.loc.pre), Some(row));
            }
            // Recovery truncated the torn tail: the file now ends exactly at
            // the last complete record and replays cleanly.
            assert_eq!(
                std::fs::metadata(&wal_path).unwrap().len(),
                complete_len,
                "torn_at {torn_at}"
            );
            let (_, again) = load_table_with_wal(&snap, &wal_path).unwrap();
            assert_eq!(again.torn_bytes, 0);
        }
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn wal_bit_flip_drops_only_the_corrupt_suffix() {
        let snap = tmp("wal_flip.ssxdb");
        let wal_path = tmp("wal_flip.wal");
        std::fs::remove_file(&wal_path).ok();
        save_table(&sample(), &snap).unwrap();
        let mut wal = Wal::open(&wal_path, 3).unwrap();
        wal.append_insert(&doc_rows(3)).unwrap();
        let first_len = wal.len_bytes() as usize;
        wal.append_insert(&doc_rows(6)).unwrap();
        drop(wal);
        // Flip one bit inside the *second* record's payload.
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes[first_len + 9] ^= 0x10;
        std::fs::write(&wal_path, &bytes).unwrap();
        let (table, replay) = load_table_with_wal(&snap, &wal_path).unwrap();
        assert_eq!(replay.records, 1, "only the intact record replays");
        assert!(replay.torn_bytes > 0);
        let want = reference(&[doc_rows(3)], &[]);
        assert_eq!(table.rows().len(), want.rows().len());
        for row in want.rows() {
            assert_eq!(table.by_pre(row.loc.pre), Some(row));
        }
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn wal_duplicate_replay_is_idempotent() {
        let snap = tmp("wal_dup.ssxdb");
        let wal_path = tmp("wal_dup.wal");
        std::fs::remove_file(&wal_path).ok();
        save_table(&sample(), &snap).unwrap();
        let mut wal = Wal::open(&wal_path, 3).unwrap();
        wal.append_insert(&doc_rows(3)).unwrap();
        wal.append_remove(&[1, 2, 3]).unwrap();
        drop(wal);
        // Crash between apply and truncate: the same log replays twice over
        // a table that already reflects it.
        let (mut table, first) = load_table_with_wal(&snap, &wal_path).unwrap();
        assert_eq!(first.duplicates_skipped, 0);
        let again = replay_wal(&wal_path, &mut table).unwrap();
        assert_eq!(again.records, 2);
        assert_eq!(again.rows_inserted, 0);
        assert_eq!(again.rows_removed, 0);
        assert_eq!(again.duplicates_skipped, 6);
        let want = reference(&[doc_rows(3)], &[0]);
        assert_eq!(table.rows().len(), want.rows().len());
        for row in want.rows() {
            assert_eq!(table.by_pre(row.loc.pre), Some(row));
        }
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn wal_checkpoint_truncates_and_round_trips() {
        let snap = tmp("wal_ckpt.ssxdb");
        let wal_path = tmp("wal_ckpt.wal");
        std::fs::remove_file(&wal_path).ok();
        let mut table = sample();
        save_table(&table, &snap).unwrap();
        let mut wal = Wal::open(&wal_path, 3).unwrap();
        let doc = doc_rows(3);
        wal.append_insert(&doc).unwrap();
        for row in &doc {
            table.insert(row.clone()).unwrap();
        }
        checkpoint(&table, &snap, &mut wal).unwrap();
        assert_eq!(wal.len_bytes(), WAL_HDR as u64, "records dropped");
        // Post-checkpoint mutations land in the (now empty) log.
        wal.append_remove(&[4, 5, 6]).unwrap();
        for pre in [4u32, 5, 6] {
            table.remove(pre).unwrap();
        }
        drop(wal);
        let (back, replay) = load_table_with_wal(&snap, &wal_path).unwrap();
        assert_eq!(replay.records, 1);
        assert_eq!(back.rows().len(), table.rows().len());
        for row in table.rows() {
            assert_eq!(back.by_pre(row.loc.pre), Some(row));
        }
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn wal_header_mismatches_rejected() {
        let wal_path = tmp("wal_hdr.wal");
        std::fs::remove_file(&wal_path).ok();
        let wal = Wal::open(&wal_path, 3).unwrap();
        drop(wal);
        // Reopening with a different poly_len refuses.
        let err = Wal::open(&wal_path, 5).unwrap_err();
        assert!(
            matches!(err, StoreError::Persist(ref m) if m.contains("3-byte rows")),
            "{err}"
        );
        // Replaying into a mismatched table refuses.
        let mut t = Table::new(5);
        assert!(replay_wal(&wal_path, &mut t).is_err());
        // A missing log is not an error: nothing to replay.
        let missing = tmp("wal_never_existed.wal");
        std::fs::remove_file(&missing).ok();
        let mut t3 = Table::new(3);
        assert_eq!(replay_wal(&missing, &mut t3).unwrap(), WalReplay::default());
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn party_header_consistency_enforced() {
        let t = sample();
        let path = tmp("party_badhdr.ssxfleet");
        // party id outside the fleet: save permits it (caller bug), load rejects.
        save_party(
            PartyHeader {
                party: 5,
                servers: 3,
                threshold: 2,
            },
            &t,
            &t,
            &path,
        )
        .unwrap();
        let err = load_party(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::Persist(ref m) if m.contains("inconsistent")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
