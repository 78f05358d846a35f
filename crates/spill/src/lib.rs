//! # External-memory subsystem: memory budgets and spill files
//!
//! The paper's §6.2 materialization trade-off exists because join state
//! may not fit in main memory — it is priced against a *memory budget*.
//! This crate makes that budget real for the rest of the engine:
//!
//! * [`MemoryBudget`] — a byte-denominated accounting handle shared
//!   across a pipeline. `0` bytes means **unbounded** (the legacy
//!   behavior); the `OODB_MEMORY_BUDGET` environment variable supplies a
//!   process-wide default, and [`MemoryBudget::share`] divides a budget
//!   among parallel workers.
//! * [`SpillManager`] — owns a directory of temporary spill files and
//!   hands out partition [`SpillWriter`]s/[`SpillReader`]s. Records are
//!   fixed-arity rows of [`Value`]s, each value encoded with the
//!   canonical binary [`oodb_value::codec`] and length-prefixed, so
//!   files can be written append-only and read back streaming. This is
//!   the only on-disk format: a columnar batch is spilled as its rows.
//!
//! Everything I/O returns [`SpillError`] (context + `std::io::Error`);
//! the engine maps it to its own `EvalError::Io` — no spill path may
//! panic on a full disk or an unwritable directory.
//!
//! On top of these the engine builds grace hash join (partition build
//! *and* probe to spill files, recurse on skewed partitions), external
//! merge sort (bounded runs, k-way merge) and the out-of-core grouping
//! of streaming `ν`.

use oodb_value::codec;
use oodb_value::Value;
use std::fmt;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A spill-file I/O failure, carrying what the subsystem was doing.
#[derive(Debug)]
pub struct SpillError {
    /// What was being attempted (`"create spill dir"`, `"write spill
    /// record"`, …).
    pub context: &'static str,
    /// The underlying error, rendered (kept as a string so the engine's
    /// `Clone + PartialEq` error type can absorb it).
    pub message: String,
}

impl SpillError {
    fn io(context: &'static str, e: std::io::Error) -> Self {
        SpillError {
            context,
            message: e.to_string(),
        }
    }
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spill I/O failed ({}): {}", self.context, self.message)
    }
}

impl std::error::Error for SpillError {}

/// Process-wide uniquifier for spill directories (several pipelines may
/// spill concurrently, including the parallel-exchange workers).
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A byte-denominated memory budget for pipeline state (hash tables,
/// sort runs, grouping state). Cheap to clone; carried by the execution
/// context and shared by every operator of a pipeline.
///
/// The unit of account is [`codec::encoded_size`] of the buffered rows —
/// deterministic across workers and runs, which the dop-equivalence
/// guarantees depend on.
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    /// Byte limit; `0` = unbounded (the legacy in-memory behavior).
    limit: usize,
    /// Override for where spill files live (`None` = the system temp
    /// directory). Shared so clones agree.
    spill_dir: Option<Arc<PathBuf>>,
}

impl Default for MemoryBudget {
    fn default() -> Self {
        MemoryBudget::unbounded()
    }
}

impl MemoryBudget {
    /// No limit: every operator keeps its state in memory.
    pub fn unbounded() -> Self {
        MemoryBudget {
            limit: 0,
            spill_dir: None,
        }
    }

    /// A budget of `limit` bytes (`0` = unbounded).
    pub fn bytes(limit: usize) -> Self {
        MemoryBudget {
            limit,
            spill_dir: None,
        }
    }

    /// The process default: `OODB_MEMORY_BUDGET` (bytes) if set,
    /// unbounded if unset. Read in one place — the engine's
    /// `PlannerConfig::default()` — which is how CI runs the whole suite
    /// under a 4 KiB budget without touching any test.
    ///
    /// A set-but-malformed value **panics** instead of silently falling
    /// back to unbounded — an operator who typed `4k` meant to bound
    /// memory, and a CI pass that quietly skipped every spill path
    /// would keep a green light on dead code.
    pub fn from_env() -> Self {
        let limit = match std::env::var("OODB_MEMORY_BUDGET") {
            Err(_) => 0,
            Ok(v) => v.trim().parse::<usize>().unwrap_or_else(|_| {
                panic!("OODB_MEMORY_BUDGET must be a plain byte count, got {v:?}")
            }),
        };
        MemoryBudget::bytes(limit)
    }

    /// Replaces the spill directory (used by tests to force I/O errors
    /// and by deployments with a dedicated scratch volume).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(Arc::new(dir.into()));
        self
    }

    /// The byte limit, `None` when unbounded.
    pub fn limit(&self) -> Option<usize> {
        (self.limit > 0).then_some(self.limit)
    }

    /// True when a limit is in force.
    pub fn is_bounded(&self) -> bool {
        self.limit > 0
    }

    /// True when `bytes` of state exceed this budget.
    pub fn exceeded_by(&self, bytes: usize) -> bool {
        self.limit > 0 && bytes > self.limit
    }

    /// This budget split across `n` parallel workers: each worker's
    /// pipeline state gets an equal share (at least one byte, so a
    /// bounded budget can never silently become unbounded by division).
    pub fn share(&self, n: usize) -> MemoryBudget {
        if self.limit == 0 {
            return self.clone();
        }
        MemoryBudget {
            limit: (self.limit / n.max(1)).max(1),
            spill_dir: self.spill_dir.clone(),
        }
    }

    /// The directory spill files go to.
    pub fn spill_dir(&self) -> PathBuf {
        match &self.spill_dir {
            Some(d) => d.as_ref().clone(),
            None => std::env::temp_dir(),
        }
    }
}

/// A process- or server-wide pool of budget bytes shared by concurrent
/// queries. Where [`MemoryBudget::share`] splits one query's budget
/// among its workers, a `BudgetPool` sits one level up: each admitted
/// query holds a [`BudgetGrant`] carved out of the global cap, and
/// queries that would push the pool past its cap wait their turn in
/// strict FIFO order (ticket numbers), so no query starves behind a
/// stream of later arrivals.
///
/// Cheap to clone (shared state behind an `Arc`). A cap of `0` means
/// unbounded: grants are handed out immediately at the requested size.
#[derive(Debug, Clone)]
pub struct BudgetPool {
    inner: Arc<BudgetPoolInner>,
}

#[derive(Debug)]
struct BudgetPoolInner {
    /// Global byte cap across live grants; `0` = unbounded.
    cap: usize,
    state: Mutex<BudgetPoolState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct BudgetPoolState {
    /// Bytes currently held by live grants.
    in_use: usize,
    /// Largest `in_use` ever observed — the admission-control invariant
    /// (`high_water <= cap`) is asserted against this.
    high_water: usize,
    /// Next ticket to hand to an arriving request.
    next_ticket: u64,
    /// Ticket currently allowed to admit (FIFO fairness: a request only
    /// admits when it is at the head of the queue *and* fits).
    now_serving: u64,
}

impl BudgetPool {
    /// A pool with a global cap of `cap` bytes (`0` = unbounded).
    pub fn new(cap: usize) -> Self {
        BudgetPool {
            inner: Arc::new(BudgetPoolInner {
                cap,
                state: Mutex::new(BudgetPoolState::default()),
                cv: Condvar::new(),
            }),
        }
    }

    /// The global cap, `None` when unbounded.
    pub fn cap(&self) -> Option<usize> {
        (self.inner.cap > 0).then_some(self.inner.cap)
    }

    /// Largest sum of live grants ever observed.
    pub fn high_water(&self) -> usize {
        self.inner.state.lock().unwrap().high_water
    }

    /// Bytes currently held by live grants.
    pub fn in_use(&self) -> usize {
        self.inner.state.lock().unwrap().in_use
    }

    /// Requests currently queued for admission (tickets handed out but
    /// not yet serving) — the pool-queue-depth gauge of the server's
    /// metrics endpoint. Always `0` on an unbounded pool, which never
    /// issues tickets.
    pub fn waiting(&self) -> u64 {
        let state = self.inner.state.lock().unwrap();
        state.next_ticket - state.now_serving
    }

    /// Acquires `want` bytes from the pool, blocking FIFO-fairly until
    /// they fit under the cap. A request larger than the cap is clamped
    /// to the cap (it can never fit otherwise and would starve itself
    /// and everyone queued behind it); `want == 0` on a bounded pool
    /// requests the whole cap — "an unbounded query" admitted to a
    /// bounded pool serializes against it rather than sneaking past it.
    pub fn grant(&self, want: usize) -> BudgetGrant {
        let cap = self.inner.cap;
        if cap == 0 {
            return BudgetGrant {
                pool: self.clone(),
                bytes: want,
            };
        }
        let req = if want == 0 { cap } else { want.min(cap) };
        let mut state = self.inner.state.lock().unwrap();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        while state.now_serving != ticket || state.in_use + req > cap {
            state = self.inner.cv.wait(state).unwrap();
        }
        state.now_serving += 1;
        state.in_use += req;
        state.high_water = state.high_water.max(state.in_use);
        // The next ticket may also fit alongside this one.
        self.inner.cv.notify_all();
        BudgetGrant {
            pool: self.clone(),
            bytes: req,
        }
    }
}

/// RAII lease of bytes from a [`BudgetPool`]; returns them on drop and
/// wakes queued requests.
#[derive(Debug)]
pub struct BudgetGrant {
    pool: BudgetPool,
    bytes: usize,
}

impl BudgetGrant {
    /// Bytes this grant holds (`0` only from an unbounded pool granting
    /// an unbounded request).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// A per-query [`MemoryBudget`] denominated in this grant's bytes.
    pub fn budget(&self) -> MemoryBudget {
        MemoryBudget::bytes(self.bytes)
    }
}

impl Drop for BudgetGrant {
    fn drop(&mut self) {
        if self.pool.inner.cap == 0 {
            return;
        }
        let mut state = self.pool.inner.state.lock().unwrap();
        state.in_use = state.in_use.saturating_sub(self.bytes);
        drop(state);
        self.pool.inner.cv.notify_all();
    }
}

/// Running totals of one spill consumer's I/O, surfaced per operator in
/// the engine's statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpillMetrics {
    /// Bytes written to spill files.
    pub bytes: u64,
    /// Partition files created.
    pub partitions: u64,
    /// Partitioning passes (1 for a plain grace/sort spill; +1 per
    /// recursive re-partitioning of a skewed partition).
    pub passes: u64,
}

impl SpillMetrics {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &SpillMetrics) {
        self.bytes += other.bytes;
        self.partitions += other.partitions;
        self.passes += other.passes;
    }
}

/// Owns one operator's spill files: a unique directory under the
/// budget's spill root, deleted (best-effort) when the manager drops.
///
/// Files hold **records**: each record is a row of values, written as a
/// `u32` value count followed by each value's `u32` encoded length and
/// canonical [`codec`] bytes.
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    created: bool,
    seq: u64,
    /// I/O totals across every file this manager created.
    pub metrics: SpillMetrics,
}

impl SpillManager {
    /// A manager spilling under `budget.spill_dir()`. The directory is
    /// created lazily by the first [`SpillManager::writer`] call, so a
    /// pipeline that never spills never touches the filesystem.
    pub fn new(budget: &MemoryBudget) -> Self {
        let unique = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = budget
            .spill_dir()
            .join(format!("oodb-spill-{}-{}", std::process::id(), unique));
        SpillManager {
            dir,
            created: false,
            seq: 0,
            metrics: SpillMetrics::default(),
        }
    }

    /// The directory this manager spills into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens a new spill file for writing.
    pub fn writer(&mut self) -> Result<SpillWriter, SpillError> {
        if !self.created {
            fs::create_dir_all(&self.dir)
                .map_err(|e| SpillError::io("create spill directory", e))?;
            self.created = true;
        }
        let path = self.dir.join(format!("part-{}.spill", self.seq));
        self.seq += 1;
        self.metrics.partitions += 1;
        let file = File::create(&path).map_err(|e| SpillError::io("create spill file", e))?;
        Ok(SpillWriter {
            path,
            out: BufWriter::new(file),
            rows: 0,
            bytes: 0,
            buf: Vec::new(),
        })
    }

    /// Opens `n` partition writers at once (grace partitioning).
    pub fn partition_writers(&mut self, n: usize) -> Result<Vec<SpillWriter>, SpillError> {
        (0..n).map(|_| self.writer()).collect()
    }

    /// Records one finished writer's volume into [`SpillManager::metrics`]
    /// and returns its reader. Empty files are dropped (deleted) and
    /// yield `None`.
    pub fn seal(&mut self, w: SpillWriter) -> Result<Option<SpillReader>, SpillError> {
        self.metrics.bytes += w.bytes;
        if w.rows == 0 {
            // delete now — grace recursion creates 2×fan-out writers per
            // pass, and skewed runs would otherwise litter the temp dir
            // with zero-byte files until the manager drops
            let _ = fs::remove_file(&w.path);
            return Ok(None);
        }
        w.into_reader().map(Some)
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        if self.created {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

/// Append-only writer of row records.
#[derive(Debug)]
pub struct SpillWriter {
    path: PathBuf,
    out: BufWriter<File>,
    rows: u64,
    bytes: u64,
    buf: Vec<u8>,
}

impl SpillWriter {
    /// Appends one record (a fixed-arity row of values).
    pub fn write_record(&mut self, row: &[Value]) -> Result<(), SpillError> {
        self.write_record_refs(&row.iter().collect::<Vec<_>>())
    }

    /// [`SpillWriter::write_record`] over borrowed parts — spill-heavy
    /// callers (grace partitioning re-writes surviving rows once per
    /// recursion level) assemble records from keys + row without
    /// cloning any value.
    pub fn write_record_refs(&mut self, row: &[&Value]) -> Result<(), SpillError> {
        self.buf.clear();
        self.buf
            .extend_from_slice(&(row.len() as u32).to_le_bytes());
        for v in row {
            let start = self.buf.len();
            self.buf.extend_from_slice(&[0, 0, 0, 0]);
            codec::encode_into(v, &mut self.buf);
            let len = (self.buf.len() - start - 4) as u32;
            self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        }
        self.out
            .write_all(&self.buf)
            .map_err(|e| SpillError::io("write spill record", e))?;
        self.rows += 1;
        self.bytes += self.buf.len() as u64;
        Ok(())
    }

    /// Records written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flushes and reopens the file for reading from the start.
    pub fn into_reader(self) -> Result<SpillReader, SpillError> {
        let SpillWriter {
            path, out, rows, ..
        } = self;
        let file = out
            .into_inner()
            .map_err(|e| SpillError::io("flush spill file", e.into_error()))?;
        file.sync_all().ok(); // best-effort; read path reveals real failures
        drop(file);
        let file = File::open(&path).map_err(|e| SpillError::io("reopen spill file", e))?;
        Ok(SpillReader {
            path,
            input: BufReader::new(file),
            remaining: rows,
        })
    }
}

/// Streaming reader of row records; deletes its file when dropped.
#[derive(Debug)]
pub struct SpillReader {
    path: PathBuf,
    input: BufReader<File>,
    remaining: u64,
}

impl SpillReader {
    /// Records left to read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// The next record, `None` when the file is exhausted.
    pub fn next_record(&mut self) -> Result<Option<Vec<Value>>, SpillError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let n = self.read_u32()? as usize;
        self.remaining -= 1;
        let mut row = Vec::with_capacity(n);
        let mut payload = Vec::new();
        for _ in 0..n {
            let len = self.read_u32()? as usize;
            payload.resize(len, 0);
            self.input
                .read_exact(&mut payload)
                .map_err(|e| SpillError::io("read spill record", e))?;
            let v = codec::decode(&payload).map_err(|e| SpillError {
                context: "decode spill record",
                message: e.to_string(),
            })?;
            row.push(v);
        }
        Ok(Some(row))
    }

    fn read_u32(&mut self) -> Result<u32, SpillError> {
        let mut b = [0u8; 4];
        self.input
            .read_exact(&mut b)
            .map_err(|e| SpillError::io("read spill record header", e))?;
        Ok(u32::from_le_bytes(b))
    }
}

impl Drop for SpillReader {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_value::{Oid, Value};

    fn row(i: i64) -> Vec<Value> {
        vec![
            Value::Int(i),
            Value::tuple([
                ("name", Value::str(&format!("row-{i}"))),
                ("refs", Value::set([Value::Oid(Oid(i as u64))])),
            ]),
        ]
    }

    #[test]
    fn budget_semantics() {
        let b = MemoryBudget::bytes(1000);
        assert_eq!(b.limit(), Some(1000));
        assert!(b.exceeded_by(1001));
        assert!(!b.exceeded_by(1000));
        let share = b.share(4);
        assert_eq!(share.limit(), Some(250));
        // sharing can never turn a bounded budget unbounded
        assert_eq!(b.share(5000).limit(), Some(1));
        let unb = MemoryBudget::unbounded();
        assert_eq!(unb.limit(), None);
        assert!(!unb.exceeded_by(usize::MAX));
        assert_eq!(unb.share(8).limit(), None);
    }

    #[test]
    fn records_roundtrip_through_a_spill_file() {
        let budget = MemoryBudget::bytes(1);
        let mut mgr = SpillManager::new(&budget);
        let mut w = mgr.writer().unwrap();
        for i in 0..100 {
            w.write_record(&row(i)).unwrap();
        }
        assert_eq!(w.rows(), 100);
        assert!(w.bytes() > 0);
        let mut r = mgr.seal(w).unwrap().expect("non-empty");
        assert!(mgr.metrics.bytes > 0);
        assert_eq!(mgr.metrics.partitions, 1);
        for i in 0..100 {
            assert_eq!(r.next_record().unwrap().unwrap(), row(i));
        }
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn empty_files_seal_to_none_and_dirs_clean_up() {
        let budget = MemoryBudget::unbounded();
        let dir;
        {
            let mut mgr = SpillManager::new(&budget);
            let w = mgr.writer().unwrap();
            dir = mgr.dir().to_path_buf();
            assert!(dir.exists());
            assert!(mgr.seal(w).unwrap().is_none());
        }
        assert!(!dir.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn unwritable_spill_dir_reports_io_error() {
        // a regular file where the directory should be: creation fails
        let marker = std::env::temp_dir().join(format!("oodb-spill-marker-{}", std::process::id()));
        std::fs::write(&marker, b"not a directory").unwrap();
        let budget = MemoryBudget::bytes(1).with_spill_dir(&marker);
        let mut mgr = SpillManager::new(&budget);
        let err = mgr.writer().expect_err("must fail");
        assert!(
            err.to_string().contains("spill I/O failed"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(&marker).unwrap();
    }

    #[test]
    fn many_partitions_are_independent() {
        let budget = MemoryBudget::bytes(1);
        let mut mgr = SpillManager::new(&budget);
        let mut writers = mgr.partition_writers(4).unwrap();
        for i in 0..40 {
            writers[(i % 4) as usize].write_record(&row(i)).unwrap();
        }
        let mut total = 0;
        for w in writers {
            let mut r = mgr.seal(w).unwrap().expect("non-empty");
            while let Some(rec) = r.next_record().unwrap() {
                assert_eq!(rec.len(), 2);
                total += 1;
            }
        }
        assert_eq!(total, 40);
        assert_eq!(mgr.metrics.partitions, 4);
    }
}
