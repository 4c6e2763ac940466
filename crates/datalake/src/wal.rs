//! Durable mutation journal (write-ahead log) and lake checkpoints.
//!
//! The resident server commits mutations through [`crate::EpochLake`]
//! **in memory**; this module is the durability layer underneath it. The
//! contract is *write-ahead*: every mutation is appended to the journal
//! and fsync'd **before** `EpochLake::commit` publishes the new epoch, so
//! an epoch a client ever observed is always recoverable. Recovery after
//! a crash is `checkpoint + journal replay`:
//!
//! 1. load the last checkpoint (a full lake image, [`read_checkpoint`]);
//! 2. replay journal records whose epoch is *past* the checkpoint epoch,
//!    in order ([`apply_replay`]);
//! 3. truncate the journal at the first torn or corrupt record
//!    ([`Wal::recover`]) — the crash-consistent prefix. A torn tail is an
//!    expected artifact of `kill -9` mid-append; it is dropped silently
//!    (the commit it belonged to never published), never a panic.
//!
//! ## Journal format
//!
//! A 4-byte magic (`"TWL1"`) followed by length-prefixed, checksummed
//! records, everything little-endian:
//!
//! ```text
//! record := len:u32 | payload[len] | fnv1a64(payload):u64
//! payload := op:u8 | epoch:u64 | body
//!     op 0 (Add)    body := table
//!     op 1 (Remove) body := table_id:u32
//!     op 2 (Relink) body := table_id:u32 | table
//! table := str(name) | n_cols:u32 | str(col)* | n_rows:u32 | row*
//! cell  := 0 | 1 f64_bits:u64 | 2 str | 3 str(mention) entity:u32
//! str   := len:u32 | utf8[len]
//! ```
//!
//! `epoch` is the epoch the mutation *produced* (within a batch of `n`
//! starting at epoch `E`, records carry `E+1 ..= E+n`). Replay checks the
//! chain: records at or below the base epoch are skipped (the checkpoint
//! already contains them), and a gap means the journal does not belong to
//! this base — that is an operator error (wrong `--wal` path), reported
//! as a hard error rather than silently truncated, because the bytes
//! checksum clean.
//!
//! Numbers are journaled as `f64::to_bits`, so a replayed lake is
//! *bit-identical* to the direct-mutation lake (postings, digests, band
//! buckets, rankings) — proven by `crates/datalake/tests/wal_replay.rs`.
//!
//! ## Checkpoint format
//!
//! A checkpoint (`"TLK1"`) is a full lake image — tables (tombstones
//! included, so ids never shift), the tombstone set, and the epoch — with
//! an FNV-1a-64 footer over everything before it. [`write_checkpoint`]
//! reuses the TLI3 crash-safety discipline (temp file + `sync_all` +
//! atomic rename + directory fsync) and additionally *verifies the temp
//! file by reading it back* before the rename, so a corrupted write can
//! never replace a good checkpoint. The LSEI is derived state and is
//! rebuilt from the recovered lake at boot; it is deliberately not part
//! of the image.
//!
//! ## Failpoints
//!
//! Four `thetis_obs::faults` failpoints cover the layer: `wal.append`
//! (panic → caught and degraded to an error, error → append fails closed
//! with the file rolled back, corrupt → the record lands bit-flipped as
//! if storage lied — replay truncates there), `wal.fsync` (any action →
//! the sync fails and the append rolls back), `wal.checkpoint` (panic
//! caught, error fails, corrupt is caught by read-back verification; in
//! every case the previous checkpoint and the journal survive), and
//! `wal.replay` (corrupt → a bit flips in the scanned buffer and the
//! tail truncates; error/panic → the scan treats the journal tail as
//! unreadable and truncates at the header). Every action degrades to a
//! clean truncate-and-recover; none can publish a corrupt lake.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use thetis_kg::EntityId;
use thetis_obs::faults::{self, FaultAction};

use crate::epoch::Mutation;
use crate::lake::{DataLake, LakeEpoch};
use crate::table::{Table, TableId};
use crate::value::CellValue;

/// Records durably appended (write + fsync both succeeded).
static OBS_APPENDS: thetis_obs::Counter = thetis_obs::Counter::new("wal.appends");
/// Bytes durably appended.
static OBS_APPEND_BYTES: thetis_obs::Counter = thetis_obs::Counter::new("wal.append_bytes");
/// Records replayed onto a base lake at recovery.
static OBS_REPLAYED: thetis_obs::Counter = thetis_obs::Counter::new("wal.replayed_records");
/// Bytes dropped by torn/corrupt-tail truncation at recovery.
static OBS_TRUNCATED: thetis_obs::Counter = thetis_obs::Counter::new("wal.truncated_bytes");
/// Checkpoints durably written (read-back verified and renamed in).
static OBS_CHECKPOINTS: thetis_obs::Counter = thetis_obs::Counter::new("wal.checkpoints");
/// Journal rotations after a successful checkpoint.
static OBS_ROTATIONS: thetis_obs::Counter = thetis_obs::Counter::new("wal.rotations");

/// Journal file magic.
pub const WAL_MAGIC: &[u8; 4] = b"TWL1";
/// Checkpoint file magic.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"TLK1";

const HEADER_LEN: u64 = 4;
/// Decode refuses records claiming more than this (a torn length field
/// must not make recovery try to allocate gigabytes).
const MAX_RECORD_LEN: u32 = 1 << 30;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_table(out: &mut Vec<u8>, t: &Table) {
    put_str(out, &t.name);
    put_u32(out, t.columns.len() as u32);
    for c in &t.columns {
        put_str(out, c);
    }
    put_u32(out, t.n_rows() as u32);
    for row in t.rows() {
        for cell in row {
            match cell {
                CellValue::Null => out.push(0),
                CellValue::Number(n) => {
                    out.push(1);
                    // Bit-exact: NaN payloads, -0.0 and subnormals survive
                    // the journal, so replayed rankings match to_bits-wise.
                    put_u64(out, n.to_bits());
                }
                CellValue::Text(s) => {
                    out.push(2);
                    put_str(out, s);
                }
                CellValue::LinkedEntity { mention, entity } => {
                    out.push(3);
                    put_str(out, mention);
                    put_u32(out, entity.0);
                }
            }
        }
    }
}

/// A little-endian byte cursor whose every read is bounds-checked: decode
/// errors surface as `Err`, never a panic or an out-of-bounds slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "record truncated: wanted {n} byte(s) at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid utf-8 in record: {e}"))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn get_table(c: &mut Cursor<'_>) -> Result<Table, String> {
    let name = c.str()?;
    let n_cols = c.u32()? as usize;
    let mut columns = Vec::with_capacity(n_cols.min(1 << 16));
    for _ in 0..n_cols {
        columns.push(c.str()?);
    }
    let n_rows = c.u32()? as usize;
    let mut table = Table::new(name, columns);
    for _ in 0..n_rows {
        let mut row = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            row.push(match c.u8()? {
                0 => CellValue::Null,
                1 => CellValue::Number(f64::from_bits(c.u64()?)),
                2 => CellValue::Text(c.str()?),
                3 => CellValue::LinkedEntity {
                    mention: c.str()?,
                    entity: EntityId(c.u32()?),
                },
                tag => return Err(format!("unknown cell tag {tag}")),
            });
        }
        table.push_row(row);
    }
    Ok(table)
}

/// One journaled mutation: the operation plus the epoch it produced.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The lake epoch this mutation's commit published.
    pub epoch: LakeEpoch,
    /// The mutation itself, payload included.
    pub mutation: Mutation,
}

/// Encodes a record payload (no length prefix / checksum).
fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match &rec.mutation {
        Mutation::Add(t) => {
            out.push(0);
            put_u64(&mut out, rec.epoch);
            put_table(&mut out, t);
        }
        Mutation::Remove(id) => {
            out.push(1);
            put_u64(&mut out, rec.epoch);
            put_u32(&mut out, id.0);
        }
        Mutation::Relink(id, t) => {
            out.push(2);
            put_u64(&mut out, rec.epoch);
            put_u32(&mut out, id.0);
            put_table(&mut out, t);
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, String> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let epoch = c.u64()?;
    let mutation = match op {
        0 => Mutation::Add(get_table(&mut c)?),
        1 => Mutation::Remove(TableId(c.u32()?)),
        2 => {
            let id = TableId(c.u32()?);
            Mutation::Relink(id, get_table(&mut c)?)
        }
        other => return Err(format!("unknown journal op {other}")),
    };
    if !c.done() {
        return Err(format!(
            "trailing garbage in record payload ({} byte(s))",
            payload.len() - c.pos
        ));
    }
    Ok(WalRecord { epoch, mutation })
}

/// Encodes one full on-disk record: `len | payload | checksum`.
fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(rec);
    let mut out = Vec::with_capacity(payload.len() + 12);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    put_u64(&mut out, fnv1a64(&payload));
    out
}

// ---------------------------------------------------------------------------
// Journal scan (recovery read path)
// ---------------------------------------------------------------------------

/// What a journal scan recovered: the crash-consistent record prefix plus
/// how much tail (if any) had to be dropped.
#[derive(Debug)]
pub struct WalReplay {
    /// Records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Whether a torn or corrupt tail was found (and truncated).
    pub torn: bool,
    /// Bytes dropped past the valid prefix.
    pub dropped_bytes: u64,
    /// Byte length of the valid prefix (journal header included).
    valid_len: u64,
}

/// Scans journal bytes into the longest valid record prefix. Stops — it
/// never errors, never panics — at the first record whose length field,
/// checksum, or payload decode fails: everything past that point is
/// unreachable after a crash anyway.
fn scan_records(bytes: &[u8]) -> WalReplay {
    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    loop {
        let rest = &bytes[pos.min(bytes.len())..];
        if rest.is_empty() {
            return WalReplay {
                records,
                torn: false,
                dropped_bytes: 0,
                valid_len: pos as u64,
            };
        }
        let ok = (|| -> Option<WalRecord> {
            if rest.len() < 4 {
                return None;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
            if len > MAX_RECORD_LEN {
                return None;
            }
            let len = len as usize;
            if rest.len() < 4 + len + 8 {
                return None;
            }
            let payload = &rest[4..4 + len];
            let stored = u64::from_le_bytes(rest[4 + len..4 + len + 8].try_into().unwrap());
            if fnv1a64(payload) != stored {
                return None;
            }
            decode_payload(payload).ok()
        })();
        match ok {
            Some(rec) => {
                let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
                pos += 4 + len + 8;
                records.push(rec);
            }
            None => {
                return WalReplay {
                    records,
                    torn: true,
                    dropped_bytes: (bytes.len() - pos) as u64,
                    valid_len: pos as u64,
                };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The journal writer
// ---------------------------------------------------------------------------

/// An open, append-only mutation journal.
///
/// Obtained through [`Wal::recover`], which owns the boot-time scan and
/// torn-tail truncation; from then on [`Wal::append`] is the only write
/// path and it is all-or-nothing: on any failure (I/O or injected) the
/// file is rolled back to the last durable record boundary, so the
/// journal never holds a record for an epoch that failed to commit.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// End of the last durably appended record — the rollback point.
    good_len: u64,
    /// Set when a failed append could not be rolled back; every later
    /// append fails closed rather than risk journaling after garbage.
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if missing) the journal at `path`, scans it,
    /// truncates any torn or corrupt tail, and returns the writer
    /// positioned at the end of the crash-consistent prefix together with
    /// the replayable records.
    pub fn recover(path: &Path) -> Result<(Wal, WalReplay), String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create journal directory: {e}"))?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        if bytes.is_empty() {
            file.write_all(WAL_MAGIC)
                .and_then(|_| file.sync_all())
                .map_err(|e| format!("cannot initialize journal {}: {e}", path.display()))?;
            bytes.extend_from_slice(WAL_MAGIC);
        } else if bytes.len() < 4 || &bytes[..4] != WAL_MAGIC {
            // Not a journal: refuse to truncate someone else's file.
            return Err(format!(
                "{} exists but is not a TWL1 journal",
                path.display()
            ));
        }
        // Injected chaos: `corrupt` flips a bit mid-journal before the
        // scan (the tail truncates there); `error`/`panic` simulate an
        // unreadable tail — the scan sees nothing past the header. Both
        // degrade to the same crash-consistent-prefix recovery.
        let mut injected_unreadable = false;
        match faults::check("wal.replay") {
            Some(FaultAction::Corrupt) if bytes.len() > HEADER_LEN as usize => {
                let mid = HEADER_LEN as usize + (bytes.len() - HEADER_LEN as usize) / 2;
                bytes[mid] ^= 0x40;
            }
            Some(FaultAction::Corrupt) | None => {}
            Some(_) => injected_unreadable = true,
        }
        let mut replay = if injected_unreadable {
            WalReplay {
                records: Vec::new(),
                torn: bytes.len() as u64 > HEADER_LEN,
                dropped_bytes: bytes.len() as u64 - HEADER_LEN,
                valid_len: HEADER_LEN,
            }
        } else {
            scan_records(&bytes)
        };
        if replay.torn && replay.dropped_bytes > 0 {
            file.set_len(replay.valid_len)
                .and_then(|_| file.sync_all())
                .map_err(|e| format!("cannot truncate torn journal tail: {e}"))?;
            OBS_TRUNCATED.add(replay.dropped_bytes);
        } else {
            replay.dropped_bytes = 0;
        }
        file.seek(SeekFrom::Start(replay.valid_len))
            .map_err(|e| format!("cannot seek journal: {e}"))?;
        OBS_REPLAYED.add(replay.records.len() as u64);
        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
                good_len: replay.valid_len,
                poisoned: false,
            },
            replay,
        ))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of durable journal (header included).
    pub fn len(&self) -> u64 {
        self.good_len
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.good_len <= HEADER_LEN
    }

    /// Whether a failed rollback disabled this writer.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Durably appends one record: write + fsync, all-or-nothing. On any
    /// failure — I/O, injected error, even an injected *panic* (caught
    /// here: the journal must never take the commit path down half
    /// written) — the file is rolled back to the previous record boundary
    /// and an error is returned; the caller must not publish the epoch.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), String> {
        self.append_batch(std::slice::from_ref(rec))
    }

    /// Durably appends a whole mutation batch as one `write` + one
    /// `fsync`, with a single rollback point: either every record of the
    /// batch is durable or none is journaled — a mid-batch failure can
    /// never leave a half-journaled batch behind for replay to apply.
    /// (Recovery of a *torn* tail may still keep a valid record prefix of
    /// a batch whose fsync never returned; that batch never published, so
    /// the recovered lake is consistent either way.)
    pub fn append_batch(&mut self, recs: &[WalRecord]) -> Result<(), String> {
        if recs.is_empty() {
            return Ok(());
        }
        if self.poisoned {
            return Err("journal is poisoned by an earlier failed rollback".into());
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.append_inner(recs)));
        let err = match outcome {
            Ok(Ok(written)) => {
                self.good_len += written;
                OBS_APPENDS.add(recs.len() as u64);
                OBS_APPEND_BYTES.add(written);
                return Ok(());
            }
            Ok(Err(e)) => e,
            Err(_) => "injected fault: wal.append (panic, caught at the journal boundary)".into(),
        };
        // Roll back to the last durable boundary; a rollback failure
        // poisons the writer so we never append after unknown bytes.
        if self
            .file
            .set_len(self.good_len)
            .and_then(|_| self.file.seek(SeekFrom::Start(self.good_len)).map(|_| ()))
            .is_err()
        {
            self.poisoned = true;
        }
        Err(err)
    }

    fn append_inner(&mut self, recs: &[WalRecord]) -> Result<u64, String> {
        let mut bytes = Vec::new();
        for rec in recs {
            bytes.extend_from_slice(&encode_record(rec));
        }
        match faults::check("wal.append") {
            Some(FaultAction::Panic) => panic!("injected fault: wal.append"),
            Some(FaultAction::Error) => {
                return Err("injected fault: wal.append (write error)".into())
            }
            Some(FaultAction::Corrupt) => {
                // Storage lied: the write "succeeds" but the record is
                // damaged. Recovery truncates the journal here.
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x40;
            }
            None => {}
        }
        self.file
            .write_all(&bytes)
            .map_err(|e| format!("journal append failed: {e}"))?;
        match faults::check("wal.fsync") {
            Some(FaultAction::Panic) => panic!("injected fault: wal.fsync"),
            Some(_) => return Err("injected fault: wal.fsync".into()),
            None => {}
        }
        self.file
            .sync_data()
            .map_err(|e| format!("journal fsync failed: {e}"))?;
        Ok(bytes.len() as u64)
    }

    /// Empties the journal down to its header — called only after a
    /// checkpoint has durably captured everything it holds. A crash
    /// *before* the truncate is safe: replay skips records at or below
    /// the checkpoint epoch.
    pub fn rotate(&mut self) -> Result<(), String> {
        self.file
            .set_len(HEADER_LEN)
            .and_then(|_| self.file.seek(SeekFrom::Start(HEADER_LEN)).map(|_| ()))
            .and_then(|_| self.file.sync_all())
            .map_err(|e| format!("journal rotation failed: {e}"))?;
        self.good_len = HEADER_LEN;
        OBS_ROTATIONS.inc();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Replay application
// ---------------------------------------------------------------------------

/// What [`apply_replay`] did to the base lake.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayOutcome {
    /// Records applied (each advanced the epoch by one).
    pub applied: u64,
    /// Records skipped because the base (checkpoint) already contained
    /// them — the normal artifact of a crash between checkpoint rename
    /// and journal rotation.
    pub skipped: u64,
}

/// Replays journal records onto `lake`, enforcing the epoch chain:
/// records at or below the lake's epoch are skipped, every applied record
/// must advance it by exactly one. A gap — or a record that does not
/// apply cleanly — means the journal does not belong to this base; that
/// is reported as an error (never a panic), because silently dropping
/// records that checksum clean would be data loss.
pub fn apply_replay(lake: &mut DataLake, records: &[WalRecord]) -> Result<ReplayOutcome, String> {
    let mut out = ReplayOutcome::default();
    for rec in records {
        if rec.epoch <= lake.epoch() {
            out.skipped += 1;
            continue;
        }
        if rec.epoch != lake.epoch() + 1 {
            return Err(format!(
                "journal record for epoch {} does not continue the lake at epoch {} \
                 (wrong journal for this base?)",
                rec.epoch,
                lake.epoch()
            ));
        }
        let mutation = rec.mutation.clone();
        // A record can checksum clean yet not apply (e.g. Remove of an id
        // this base never had — a journal from another lake). The delta
        // paths poison-on-unwind, so catching here leaves the lake marked
        // for rebuild, not half-updated.
        let applied = catch_unwind(AssertUnwindSafe(|| {
            mutation.apply(lake);
        }));
        if applied.is_err() || lake.epoch() != rec.epoch {
            return Err(format!(
                "journal record for epoch {} does not apply cleanly to this lake",
                rec.epoch
            ));
        }
        out.applied += 1;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

fn encode_checkpoint(lake: &DataLake) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(CHECKPOINT_MAGIC);
    put_u64(&mut out, lake.epoch());
    put_u32(&mut out, lake.len() as u32);
    for t in lake.tables() {
        put_table(&mut out, t);
    }
    let removed: Vec<TableId> = lake.removed_ids().collect();
    put_u32(&mut out, removed.len() as u32);
    for id in removed {
        put_u32(&mut out, id.0);
    }
    let sum = fnv1a64(&out);
    put_u64(&mut out, sum);
    out
}

/// The checksummed structural walk of a checkpoint image: magic, length
/// and checksum, then every table — handed to `sink` as it is decoded, in
/// id order — and the tombstone ids, which are returned with the epoch.
/// This is everything that can reject a checkpoint
/// ([`DataLake::from_snapshot`] validates nothing), and it never holds more
/// than the one table being decoded: [`read_checkpoint`] collects them, the
/// writer's read-back verification drops each as it arrives.
fn walk_checkpoint(
    bytes: &[u8],
    mut sink: impl FnMut(Table),
) -> Result<(Vec<TableId>, LakeEpoch), String> {
    if bytes.len() < 4 + 8 + 4 + 4 + 8 {
        return Err("checkpoint truncated".into());
    }
    if &bytes[..4] != CHECKPOINT_MAGIC {
        return Err("bad checkpoint magic (expected TLK1)".into());
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(footer.try_into().unwrap());
    if fnv1a64(body) != stored {
        return Err("checkpoint checksum mismatch (corrupt or torn file)".into());
    }
    let mut c = Cursor::new(&body[4..]);
    let epoch = c.u64()?;
    let n_tables = c.u32()? as usize;
    for _ in 0..n_tables {
        sink(get_table(&mut c)?);
    }
    let n_removed = c.u32()? as usize;
    let mut removed = Vec::with_capacity(n_removed.min(1 << 20));
    for _ in 0..n_removed {
        removed.push(TableId(c.u32()?));
    }
    if !c.done() {
        return Err("trailing garbage in checkpoint".into());
    }
    Ok((removed, epoch))
}

/// [`walk_checkpoint`] with a collecting sink, in
/// [`DataLake::from_snapshot`]'s argument order.
fn parse_checkpoint(bytes: &[u8]) -> Result<(Vec<Table>, Vec<TableId>, LakeEpoch), String> {
    let mut tables = Vec::new();
    let (removed, epoch) = walk_checkpoint(bytes, |t| tables.push(t))?;
    Ok((tables, removed, epoch))
}

/// Writes a full-lake checkpoint with the TLI3 crash-safety discipline —
/// temp file, `sync_all`, atomic rename, directory fsync — plus read-back
/// verification of the temp file *before* the rename, so a failed or
/// corrupted write (including the injected `wal.checkpoint` fault, any
/// action) leaves the previous checkpoint untouched.
pub fn write_checkpoint(lake: &DataLake, path: &Path) -> Result<(), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| write_checkpoint_inner(lake, path)));
    match outcome {
        Ok(r) => {
            if r.is_ok() {
                OBS_CHECKPOINTS.inc();
            }
            r
        }
        Err(_) => {
            Err("injected fault: wal.checkpoint (panic, caught at the snapshot boundary)".into())
        }
    }
}

fn write_checkpoint_inner(lake: &DataLake, path: &Path) -> Result<(), String> {
    let mut data = encode_checkpoint(lake);
    match faults::check("wal.checkpoint") {
        Some(FaultAction::Panic) => panic!("injected fault: wal.checkpoint"),
        Some(FaultAction::Error) => {
            return Err("injected fault: wal.checkpoint (write error)".into())
        }
        Some(FaultAction::Corrupt) => {
            // Simulated mid-checkpoint kill / bad sector: read-back
            // verification below must catch this before the rename.
            let mid = data.len() / 2;
            data[mid] ^= 0x40;
        }
        None => {}
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create checkpoint directory: {e}"))?;
        }
    }
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f =
            File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        f.write_all(&data)
            .and_then(|_| f.sync_all())
            .map_err(|e| format!("cannot write checkpoint: {e}"))?;
    }
    // Read-back verification: walk what actually hit the disk, dropping
    // each table as it decodes. Nothing is built from it — the caller
    // holds the lake being checkpointed.
    let written = std::fs::read(&tmp).map_err(|e| format!("cannot re-read checkpoint: {e}"))?;
    if let Err(e) = walk_checkpoint(&written, drop) {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("checkpoint failed read-back verification: {e}"));
    }
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot publish checkpoint: {e}"))?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

/// Loads a checkpoint written by [`write_checkpoint`]. Fails closed on
/// any damage — the checkpoint writer is atomic and verified, so a
/// corrupt checkpoint means storage rot, which an operator must see.
pub fn read_checkpoint(path: &Path) -> Result<DataLake, String> {
    let bytes = std::fs::read(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    let (tables, removed, epoch) = parse_checkpoint(&bytes)?;
    Ok(DataLake::from_snapshot(tables, removed, epoch))
}

/// The epoch a checkpoint file records, without decoding the full lake
/// (the checksum is still verified).
pub fn checkpoint_epoch(path: &Path) -> Result<LakeEpoch, String> {
    let bytes = std::fs::read(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    if bytes.len() < 20 || &bytes[..4] != CHECKPOINT_MAGIC {
        return Err("bad checkpoint magic (expected TLK1)".into());
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(footer.try_into().unwrap());
    if fnv1a64(body) != stored {
        return Err("checkpoint checksum mismatch (corrupt or torn file)".into());
    }
    Ok(u64::from_le_bytes(bytes[4..12].try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// Fault plans are process-global: a test that arms one holds this
    /// exclusively ([`arming`]); a plain test that reaches a failpoint
    /// site holds it shared ([`fault_free`]), so no armed plan can fire
    /// inside it.
    static FAULT_LOCK: RwLock<()> = RwLock::new(());

    /// Exclusive hold for a fault-arming test; disarms on drop, so a
    /// failed assertion cannot leave a plan armed for the next test.
    struct Arming {
        _lock: RwLockWriteGuard<'static, ()>,
    }

    impl Drop for Arming {
        fn drop(&mut self) {
            faults::disarm();
        }
    }

    fn arming() -> Arming {
        Arming {
            _lock: FAULT_LOCK.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Shared hold for a plain test that reaches `Wal::append`, `recover`,
    /// `rotate` or `write_checkpoint`.
    fn fault_free() -> RwLockReadGuard<'static, ()> {
        FAULT_LOCK.read().unwrap_or_else(|e| e.into_inner())
    }

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("thetis-wal-{tag}-{}-{n}", std::process::id()))
    }

    fn linked(m: &str, e: u32) -> CellValue {
        CellValue::LinkedEntity {
            mention: m.into(),
            entity: EntityId(e),
        }
    }

    fn table(name: &str, seed: u32) -> Table {
        let mut t = Table::new(name, vec!["a".into(), "b".into()]);
        t.push_row(vec![
            linked("x", seed),
            CellValue::Number(f64::from_bits(seed as u64)),
        ]);
        t.push_row(vec![CellValue::Text(format!("t{seed}")), CellValue::Null]);
        t
    }

    fn base_lake() -> DataLake {
        DataLake::from_tables(vec![table("t0", 1), table("t1", 2)])
    }

    #[test]
    fn record_codec_roundtrips_bit_exactly() {
        let mut t = table("odd", 7);
        // The nasty f64s: NaN with payload, -0.0, a subnormal.
        t.push_row(vec![
            CellValue::Number(f64::from_bits(0x7ff8_0000_0000_beef)),
            CellValue::Number(-0.0),
        ]);
        t.push_row(vec![
            CellValue::Number(f64::from_bits(1)),
            CellValue::Number(f64::INFINITY),
        ]);
        for mutation in [
            Mutation::Add(t.clone()),
            Mutation::Remove(TableId(3)),
            Mutation::Relink(TableId(1), t),
        ] {
            let rec = WalRecord {
                epoch: 42,
                mutation,
            };
            let bytes = encode_record(&rec);
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            let back = decode_payload(&bytes[4..4 + len]).unwrap();
            assert_eq!(back.epoch, 42);
            // Bit-exact check via re-encoding: PartialEq on f64 would call
            // NaN != NaN, and bit identity is the actual contract.
            assert_eq!(encode_payload(&back), encode_payload(&rec));
        }
    }

    #[test]
    fn append_then_recover_replays_everything() {
        let _guard = fault_free();
        let path = temp_path("roundtrip");
        let (mut wal, replay) = Wal::recover(&path).unwrap();
        assert!(replay.records.is_empty() && !replay.torn);
        for (i, m) in [
            Mutation::Add(table("t2", 3)),
            Mutation::Remove(TableId(0)),
            Mutation::Relink(TableId(1), table("t1b", 9)),
        ]
        .into_iter()
        .enumerate()
        {
            wal.append(&WalRecord {
                epoch: 2 + i as u64,
                mutation: m,
            })
            .unwrap();
        }
        drop(wal);
        let (_, replay) = Wal::recover(&path).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert!(!replay.torn);
        assert_eq!(replay.records[0].epoch, 2);
        assert_eq!(replay.records[2].epoch, 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let _guard = fault_free();
        let path = temp_path("torn");
        let (mut wal, _) = Wal::recover(&path).unwrap();
        wal.append(&WalRecord {
            epoch: 2,
            mutation: Mutation::Add(table("a", 1)),
        })
        .unwrap();
        wal.append(&WalRecord {
            epoch: 3,
            mutation: Mutation::Add(table("b", 2)),
        })
        .unwrap();
        let full = wal.len();
        drop(wal);
        // Tear the last record mid-payload, the way kill -9 mid-write does.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 7).unwrap();
        drop(f);
        let (wal, replay) = Wal::recover(&path).unwrap();
        assert_eq!(replay.records.len(), 1, "only the intact prefix survives");
        assert!(replay.torn);
        assert!(replay.dropped_bytes > 0);
        assert_eq!(
            wal.len(),
            std::fs::metadata(&path).unwrap().len(),
            "tail physically gone"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_mid_journal_truncates_at_first_bad_record() {
        let _guard = fault_free();
        let path = temp_path("corrupt-mid");
        let (mut wal, _) = Wal::recover(&path).unwrap();
        for i in 0..3u64 {
            wal.append(&WalRecord {
                epoch: 2 + i,
                mutation: Mutation::Add(table(&format!("t{i}"), i as u32 + 1)),
            })
            .unwrap();
        }
        drop(wal);
        // Flip one bit inside the FIRST record's payload: the whole tail
        // (two later, individually valid records) must be dropped —
        // crash-consistent prefix, not salvage-what-checksums.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize + 10] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::recover(&path).unwrap();
        assert_eq!(replay.records.len(), 0);
        assert!(replay.torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn absurd_length_field_is_rejected_without_allocating() {
        let _guard = fault_free();
        let path = temp_path("hugelen");
        let (mut wal, _) = Wal::recover(&path).unwrap();
        wal.append(&WalRecord {
            epoch: 2,
            mutation: Mutation::Remove(TableId(0)),
        })
        .unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0xab; 16]);
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::recover(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_journal_file_is_refused_not_truncated() {
        let _guard = fault_free();
        let path = temp_path("notwal");
        std::fs::write(&path, b"definitely a csv").unwrap();
        let err = Wal::recover(&path).unwrap_err();
        assert!(err.contains("not a TWL1 journal"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"definitely a csv");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_reproduces_the_direct_lake() {
        let mut direct = base_lake();
        let mut records = Vec::new();
        for m in [
            Mutation::Add(table("t2", 3)),
            Mutation::Relink(TableId(0), table("t0b", 5)),
            Mutation::Remove(TableId(1)),
        ] {
            m.clone().apply(&mut direct);
            records.push(WalRecord {
                epoch: direct.epoch(),
                mutation: m,
            });
        }
        let mut replayed = base_lake();
        let out = apply_replay(&mut replayed, &records).unwrap();
        assert_eq!(out.applied, 3);
        assert_eq!(out.skipped, 0);
        assert_eq!(replayed.epoch(), direct.epoch());
        assert_eq!(replayed.postings(), direct.postings());
        assert_eq!(replayed.tables(), direct.tables());
        assert_eq!(
            replayed.is_removed(TableId(1)),
            direct.is_removed(TableId(1))
        );
    }

    #[test]
    fn replay_skips_records_the_checkpoint_already_has() {
        let mut lake = base_lake();
        let e0 = lake.epoch();
        let records = vec![
            WalRecord {
                epoch: e0 - 1,
                mutation: Mutation::Remove(TableId(0)),
            },
            WalRecord {
                epoch: e0,
                mutation: Mutation::Remove(TableId(0)),
            },
            WalRecord {
                epoch: e0 + 1,
                mutation: Mutation::Add(table("t2", 3)),
            },
        ];
        let out = apply_replay(&mut lake, &records).unwrap();
        assert_eq!(out.skipped, 2);
        assert_eq!(out.applied, 1);
        assert!(
            !lake.is_removed(TableId(0)),
            "stale records must not reapply"
        );
    }

    #[test]
    fn replay_refuses_an_epoch_gap() {
        let mut lake = base_lake();
        let gap = lake.epoch() + 2;
        let err = apply_replay(
            &mut lake,
            &[WalRecord {
                epoch: gap,
                mutation: Mutation::Add(table("x", 1)),
            }],
        )
        .unwrap_err();
        assert!(err.contains("does not continue"), "{err}");
    }

    #[test]
    fn replay_never_panics_on_a_foreign_journal() {
        let mut lake = base_lake();
        let epoch = lake.epoch() + 1;
        // Remove of an id this lake never allocated: checksums clean in a
        // journal written against some other corpus.
        let err = apply_replay(
            &mut lake,
            &[WalRecord {
                epoch,
                mutation: Mutation::Remove(TableId(999)),
            }],
        )
        .unwrap_err();
        assert!(err.contains("does not apply cleanly"), "{err}");
    }

    #[test]
    fn checkpoint_roundtrips_tombstones_and_epoch() {
        let _guard = fault_free();
        let mut lake = base_lake();
        Mutation::Add(table("t2", 3)).apply(&mut lake);
        Mutation::Remove(TableId(0)).apply(&mut lake);
        let path = temp_path("ckpt");
        write_checkpoint(&lake, &path).unwrap();
        assert_eq!(checkpoint_epoch(&path).unwrap(), lake.epoch());
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(back.epoch(), lake.epoch());
        assert_eq!(back.tables(), lake.tables());
        assert_eq!(back.postings(), lake.postings());
        assert!(back.is_removed(TableId(0)));
        assert!(!back.is_removed(TableId(1)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_bit_flip_fails_closed() {
        let _guard = fault_free();
        let lake = base_lake();
        let path = temp_path("ckpt-flip");
        write_checkpoint(&lake, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit in the epoch field (bytes 4..12): the checksum, not
        // the field's plausibility, must reject it.
        bytes[6] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint(&path).unwrap_err().contains("checksum"));
        assert!(checkpoint_epoch(&path).unwrap_err().contains("checksum"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_back_parse_refuses_truncated_and_bit_flipped_images() {
        // `write_checkpoint` verifies the temp file with `walk_checkpoint`
        // and a `drop` sink (no table is kept, no lake is built), so the
        // walk must reject on its own every torn or rotted image — whatever
        // byte the damage hits — exactly as the collecting parse behind
        // `read_checkpoint` does.
        let mut lake = base_lake();
        Mutation::Add(table("t2", 3)).apply(&mut lake);
        Mutation::Remove(TableId(0)).apply(&mut lake);
        let image = encode_checkpoint(&lake);
        let (tables, removed, epoch) = parse_checkpoint(&image).unwrap();
        assert_eq!(tables, lake.tables());
        assert_eq!(removed, lake.removed_ids().collect::<Vec<_>>());
        assert_eq!(epoch, lake.epoch());
        assert_eq!(walk_checkpoint(&image, drop).unwrap(), (removed, epoch));
        let refused_alike = |bytes: &[u8], damage: &str| {
            let dropping = walk_checkpoint(bytes, drop)
                .expect_err(&format!("{damage} was accepted by the read-back walk"));
            let collecting = parse_checkpoint(bytes)
                .expect_err(&format!("{damage} was accepted by the collecting parse"));
            assert_eq!(dropping, collecting, "{damage}");
        };
        for cut in 0..image.len() {
            refused_alike(&image[..cut], &format!("image truncated to {cut} bytes"));
        }
        for pos in 0..image.len() {
            let mut flipped = image.clone();
            flipped[pos] ^= 0x40;
            refused_alike(&flipped, &format!("bit flip at byte {pos}"));
        }
    }

    #[test]
    fn injected_append_faults_roll_back_cleanly() {
        let _guard = arming();
        let path = temp_path("fault-append");
        let (mut wal, _) = Wal::recover(&path).unwrap();
        wal.append(&WalRecord {
            epoch: 2,
            mutation: Mutation::Remove(TableId(0)),
        })
        .unwrap();
        let good = wal.len();
        for action in ["error", "panic"] {
            faults::arm(faults::FaultPlan::parse(&format!("wal.append={action}"), 7).unwrap());
            let err = wal
                .append(&WalRecord {
                    epoch: 3,
                    mutation: Mutation::Remove(TableId(1)),
                })
                .unwrap_err();
            faults::disarm();
            assert!(err.contains("wal.append"), "{err}");
            assert!(!wal.poisoned());
            assert_eq!(wal.len(), good, "failed append must roll back");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
        }
        // fsync failure: the bytes were written, the rollback must erase them.
        faults::arm(faults::FaultPlan::parse("wal.fsync=error", 7).unwrap());
        let err = wal
            .append(&WalRecord {
                epoch: 3,
                mutation: Mutation::Remove(TableId(1)),
            })
            .unwrap_err();
        faults::disarm();
        assert!(err.contains("wal.fsync"), "{err}");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
        // And the journal still works afterwards.
        wal.append(&WalRecord {
            epoch: 3,
            mutation: Mutation::Remove(TableId(1)),
        })
        .unwrap();
        let (_, replay) = Wal::recover(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(!replay.torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_append_corruption_is_truncated_at_recovery() {
        let _guard = arming();
        let path = temp_path("fault-corrupt");
        let (mut wal, _) = Wal::recover(&path).unwrap();
        wal.append(&WalRecord {
            epoch: 2,
            mutation: Mutation::Remove(TableId(0)),
        })
        .unwrap();
        faults::arm(faults::FaultPlan::parse("wal.append=corrupt", 7).unwrap());
        // Storage "accepts" the damaged record; the writer cannot know.
        wal.append(&WalRecord {
            epoch: 3,
            mutation: Mutation::Remove(TableId(1)),
        })
        .unwrap();
        faults::disarm();
        drop(wal);
        let (_, replay) = Wal::recover(&path).unwrap();
        assert_eq!(replay.records.len(), 1, "the corrupt record truncates");
        assert!(replay.torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_checkpoint_faults_preserve_the_previous_checkpoint() {
        let _guard = arming();
        let mut lake = base_lake();
        let path = temp_path("fault-ckpt");
        write_checkpoint(&lake, &path).unwrap();
        let good_epoch = lake.epoch();
        Mutation::Add(table("t2", 3)).apply(&mut lake);
        for action in ["error", "corrupt", "panic"] {
            faults::arm(faults::FaultPlan::parse(&format!("wal.checkpoint={action}"), 7).unwrap());
            let err = write_checkpoint(&lake, &path).unwrap_err();
            faults::disarm();
            assert!(
                err.contains("wal.checkpoint") || err.contains("read-back"),
                "{err}"
            );
            assert_eq!(
                checkpoint_epoch(&path).unwrap(),
                good_epoch,
                "old checkpoint must survive a failed {action}"
            );
        }
        write_checkpoint(&lake, &path).unwrap();
        assert_eq!(checkpoint_epoch(&path).unwrap(), lake.epoch());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_replay_faults_degrade_to_truncation() {
        let _guard = arming();
        let path = temp_path("fault-replay");
        let (mut wal, _) = Wal::recover(&path).unwrap();
        for i in 0..4u64 {
            wal.append(&WalRecord {
                epoch: 2 + i,
                mutation: Mutation::Remove(TableId(i as u32)),
            })
            .unwrap();
        }
        drop(wal);
        for action in ["corrupt", "error", "panic"] {
            // Re-write the journal each round: truncation is physical.
            let (mut wal, _) = Wal::recover(&path).unwrap();
            wal.rotate().unwrap();
            for i in 0..4u64 {
                wal.append(&WalRecord {
                    epoch: 2 + i,
                    mutation: Mutation::Remove(TableId(i as u32)),
                })
                .unwrap();
            }
            drop(wal);
            faults::arm(faults::FaultPlan::parse(&format!("wal.replay={action}"), 7).unwrap());
            let (_, replay) = Wal::recover(&path).unwrap();
            faults::disarm();
            assert!(replay.torn, "{action} must surface as a torn tail");
            assert!(replay.records.len() < 4, "{action} must drop tail records");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_batch_append_journals_nothing() {
        let _guard = arming();
        let path = temp_path("batch-atomic");
        let (mut wal, _) = Wal::recover(&path).unwrap();
        let batch = vec![
            WalRecord {
                epoch: 2,
                mutation: Mutation::Remove(TableId(0)),
            },
            WalRecord {
                epoch: 3,
                mutation: Mutation::Remove(TableId(1)),
            },
            WalRecord {
                epoch: 4,
                mutation: Mutation::Remove(TableId(2)),
            },
        ];
        faults::arm(faults::FaultPlan::parse("wal.fsync=error", 7).unwrap());
        assert!(wal.append_batch(&batch).is_err());
        faults::disarm();
        assert!(wal.is_empty(), "no half-journaled batch");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
        wal.append_batch(&batch).unwrap();
        drop(wal);
        let (_, replay) = Wal::recover(&path).unwrap();
        assert_eq!(replay.records.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rotation_empties_the_journal() {
        let _guard = fault_free();
        let path = temp_path("rotate");
        let (mut wal, _) = Wal::recover(&path).unwrap();
        wal.append(&WalRecord {
            epoch: 2,
            mutation: Mutation::Remove(TableId(0)),
        })
        .unwrap();
        assert!(!wal.is_empty());
        wal.rotate().unwrap();
        assert!(wal.is_empty());
        wal.append(&WalRecord {
            epoch: 3,
            mutation: Mutation::Remove(TableId(1)),
        })
        .unwrap();
        drop(wal);
        let (_, replay) = Wal::recover(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].epoch, 3);
        let _ = std::fs::remove_file(&path);
    }
}
