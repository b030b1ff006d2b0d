//! Capture-once / replay-many trace memoisation.
//!
//! A configuration sweep simulates the same workloads against many
//! machine configurations. Re-running the functional emulator for every
//! cell repeats identical work: the dynamic trace of a (workload, scale)
//! pair never changes. [`TraceStore`] captures each trace exactly once —
//! even when many sweep threads ask for it concurrently — and hands out
//! `Arc<PackedTrace>` clones that replay without copying.
//!
//! Each trace's basic-block lowering ([`TraceStore::get_blocks`]) is
//! memoised beside it, one per trace. Lowering keys templates on static
//! code and costs a few milliseconds per test-scale kernel, so it is
//! recomputed in every process rather than persisted.
//!
//! An optional on-disk cache (the `AURORA_TRACE_CACHE` environment
//! variable for [`TraceStore::global`], or [`TraceStore::with_cache_dir`])
//! persists captures across processes in the `trace_io` binary format
//! (`.trc`). Cache files are keyed by workload name, scale, the trace
//! format version and a content hash of the assembled kernel, so edits
//! to a kernel or to the encoding invalidate stale files automatically;
//! a corrupt or stale file is treated as a miss.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use aurora_isa::{BlockTrace, PackedTrace, TRACE_FORMAT_VERSION};

use crate::workload::{Scale, Workload, WorkloadError};

/// Memo key: kernel name, scale, and a content hash distinguishing
/// same-named kernel variants such as the single- vs double-word
/// floating-point encodings.
type TraceKey = (&'static str, Scale, u64);
/// One memo slot: concurrent requesters clone the cell, then race to
/// initialise it exactly once outside the map lock.
type TraceCell = Arc<OnceLock<Arc<PackedTrace>>>;
/// Memo slot for a lowered block trace (same keying as [`TraceCell`]).
type BlockCell = Arc<OnceLock<Arc<BlockTrace>>>;

/// A concurrent memo of captured traces.
///
/// ```
/// use aurora_workloads::{IntBenchmark, Scale, TraceStore};
///
/// let store = TraceStore::new();
/// let w = IntBenchmark::Compress.workload(Scale::Test);
/// let first = store.get(&w).unwrap();
/// let second = store.get(&w).unwrap();
/// // The second request is a memo hit: same buffer, one capture total.
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(store.captures(), 1);
/// assert!(!first.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct TraceStore {
    cells: Mutex<HashMap<TraceKey, TraceCell>>,
    block_cells: Mutex<HashMap<TraceKey, BlockCell>>,
    captures: AtomicU64,
    disk_hits: AtomicU64,
    lowerings: AtomicU64,
    cache_dir: Option<PathBuf>,
}

impl TraceStore {
    /// A store with no disk cache: traces live only in memory.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// A store that also persists captures under `dir` (created on first
    /// write if missing).
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> TraceStore {
        TraceStore {
            cache_dir: Some(dir.into()),
            ..TraceStore::default()
        }
    }

    /// The process-wide store used by the benchmark harness.
    ///
    /// Honours the `AURORA_TRACE_CACHE` environment variable at first
    /// use: when set to a non-empty path, captures persist there across
    /// runs; otherwise the store is memory-only.
    pub fn global() -> &'static TraceStore {
        static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
        GLOBAL.get_or_init(|| match std::env::var_os("AURORA_TRACE_CACHE") {
            Some(dir) if !dir.is_empty() => TraceStore::with_cache_dir(PathBuf::from(dir)),
            _ => TraceStore::new(),
        })
    }

    /// Returns the trace for `workload`, capturing it if this is the
    /// first request for its (name, scale, content-hash) key. Concurrent
    /// callers for the same key block until the single capture finishes;
    /// all of them share one buffer.
    ///
    /// # Errors
    ///
    /// Propagates the capture's [`WorkloadError`]. A failed capture is
    /// not cached, so a later call retries.
    pub fn get(&self, workload: &Workload) -> Result<Arc<PackedTrace>, WorkloadError> {
        let key = (workload.name(), workload.scale(), workload.content_hash());
        let cell = {
            let mut cells = self.cells.lock().expect("trace store poisoned");
            Arc::clone(cells.entry(key).or_default())
        };
        if let Some(trace) = cell.get() {
            return Ok(Arc::clone(trace));
        }
        // Capture outside the map lock so unrelated workloads proceed in
        // parallel; the per-key cell still guarantees exactly one winner.
        let mut result = Ok(());
        let trace = cell.get_or_init(|| match self.load_or_capture(workload) {
            Ok(trace) => Arc::new(trace),
            Err(e) => {
                result = Err(e);
                Arc::new(PackedTrace::new())
            }
        });
        match result {
            Ok(()) => Ok(Arc::clone(trace)),
            Err(e) => {
                // Do not cache the failure: clear the cell so a retry can
                // run the capture again.
                let mut cells = self.cells.lock().expect("trace store poisoned");
                cells.remove(&key);
                Err(e)
            }
        }
    }

    /// Returns the basic-block lowering of `workload`'s trace, computing
    /// it at most once per (name, scale, content-hash) key. The packed
    /// trace is obtained through [`TraceStore::get`], so a workload
    /// requested both ways still captures (or loads from disk) exactly
    /// once.
    ///
    /// # Errors
    ///
    /// Propagates the underlying capture's [`WorkloadError`]. A failed
    /// lowering is not cached, so a later call retries.
    pub fn get_blocks(&self, workload: &Workload) -> Result<Arc<BlockTrace>, WorkloadError> {
        let key = (workload.name(), workload.scale(), workload.content_hash());
        let cell = {
            let mut cells = self.block_cells.lock().expect("trace store poisoned");
            Arc::clone(cells.entry(key).or_default())
        };
        if let Some(blocks) = cell.get() {
            return Ok(Arc::clone(blocks));
        }
        // Lower outside the map lock; the per-key cell guarantees one
        // winner even under concurrent requests.
        let mut result = Ok(());
        let blocks = cell.get_or_init(|| match self.get(workload) {
            Ok(trace) => {
                self.lowerings.fetch_add(1, Ordering::Relaxed);
                Arc::new(BlockTrace::lower(&trace))
            }
            Err(e) => {
                result = Err(e);
                Arc::new(BlockTrace::default())
            }
        });
        match result {
            Ok(()) => Ok(Arc::clone(blocks)),
            Err(e) => {
                let mut cells = self.block_cells.lock().expect("trace store poisoned");
                cells.remove(&key);
                Err(e)
            }
        }
    }

    /// Number of emulator captures this store has performed (disk-cache
    /// loads do not count).
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }

    /// Number of block lowerings this store has performed.
    pub fn lowerings(&self) -> u64 {
        self.lowerings.load(Ordering::Relaxed)
    }

    /// Number of traces satisfied from the on-disk cache.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    fn load_or_capture(&self, workload: &Workload) -> Result<PackedTrace, WorkloadError> {
        let path = self.cache_path(workload);
        if let Some(path) = &path {
            if let Some(trace) = load_cached(path) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(trace);
            }
        }
        let trace = workload.capture()?;
        self.captures.fetch_add(1, Ordering::Relaxed);
        if let Some(path) = &path {
            // Cache writes are best-effort: a read-only or full disk must
            // not fail the simulation.
            let _ = store_cached(path, &trace);
        }
        Ok(trace)
    }

    fn cache_path(&self, workload: &Workload) -> Option<PathBuf> {
        let dir = self.cache_dir.as_ref()?;
        Some(dir.join(format!(
            "{}-{}-v{}-{:016x}.trc",
            workload.name(),
            workload.scale(),
            TRACE_FORMAT_VERSION,
            workload.content_hash(),
        )))
    }
}

fn load_cached(path: &Path) -> Option<PackedTrace> {
    let file = fs::File::open(path).ok()?;
    // A corrupt or truncated cache file is treated as a miss.
    PackedTrace::read_from(io::BufReader::new(file)).ok()
}

fn store_cached(path: &Path, trace: &PackedTrace) -> io::Result<()> {
    let dir = path.parent().expect("cache path has a parent");
    fs::create_dir_all(dir)?;
    // Write to a temporary sibling then rename, so concurrent sweeps
    // never observe a half-written file.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let mut file = io::BufWriter::new(fs::File::create(&tmp)?);
    trace.write_to(&mut file)?;
    io::Write::flush(&mut file)?;
    drop(file);
    fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integer::IntBenchmark;

    fn test_workload() -> Workload {
        IntBenchmark::Compress.workload(Scale::Test)
    }

    #[test]
    fn capture_happens_once() {
        let store = TraceStore::new();
        let w = test_workload();
        let a = store.get(&w).unwrap();
        let b = store.get(&w).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.captures(), 1);
        assert_eq!(store.disk_hits(), 0);
        assert_eq!(a.len() as u64, a.stats().total);
    }

    #[test]
    fn concurrent_requests_share_one_capture() {
        let store = TraceStore::new();
        let w = test_workload();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| store.get(&w).unwrap().len()))
                .collect();
            let lens: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(lens.windows(2).all(|w| w[0] == w[1]));
        });
        assert_eq!(store.captures(), 1);
    }

    #[test]
    fn disk_cache_round_trips() {
        let dir = std::env::temp_dir().join(format!("aurora-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let w = test_workload();

        let first = TraceStore::with_cache_dir(&dir);
        let a = first.get(&w).unwrap();
        assert_eq!((first.captures(), first.disk_hits()), (1, 0));

        let second = TraceStore::with_cache_dir(&dir);
        let b = second.get(&w).unwrap();
        assert_eq!((second.captures(), second.disk_hits()), (0, 1));
        assert_eq!(*a, *b);

        // A corrupt cache file falls back to capture.
        let path = second.cache_path(&w).unwrap();
        fs::write(&path, b"junk").unwrap();
        let third = TraceStore::with_cache_dir(&dir);
        let c = third.get(&w).unwrap();
        assert_eq!((third.captures(), third.disk_hits()), (1, 0));
        assert_eq!(*a, *c);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_block_requests_share_one_capture_and_lowering() {
        let store = TraceStore::new();
        let w = test_workload();
        let lowered: Vec<Arc<BlockTrace>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| store.get_blocks(&w).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!((store.captures(), store.lowerings()), (1, 1));
        assert!(lowered.windows(2).all(|p| Arc::ptr_eq(&p[0], &p[1])));
        // A later `get` hands back the packed trace that was lowered,
        // without a second capture.
        let trace = store.get(&w).unwrap();
        assert_eq!(store.captures(), 1);
        assert!(Arc::ptr_eq(&trace, &store.get(&w).unwrap()));
        assert!(lowered[0].iter().eq(trace.iter()));
    }

    #[test]
    fn same_named_variants_get_distinct_traces() {
        use crate::floating::FpBenchmark;
        let store = TraceStore::new();
        let sw = FpBenchmark::Alvinn.workload(Scale::Test);
        let dw = FpBenchmark::Alvinn.workload_doubleword(Scale::Test);
        let a = store.get(&sw).unwrap();
        let b = store.get(&dw).unwrap();
        assert_eq!(store.captures(), 2);
        assert_ne!(*a, *b, "variants must not share a memo cell");
    }

    #[test]
    fn content_hash_distinguishes_kernels() {
        let a = IntBenchmark::Compress.workload(Scale::Test).content_hash();
        let b = IntBenchmark::Espresso.workload(Scale::Test).content_hash();
        let a2 = IntBenchmark::Compress.workload(Scale::Test).content_hash();
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }
}
