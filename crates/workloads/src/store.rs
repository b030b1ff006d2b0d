//! Capture-once / replay-many trace memoisation.
//!
//! A configuration sweep simulates the same workloads against many
//! machine configurations. Re-running the functional emulator for every
//! cell repeats identical work: the dynamic trace of a (workload, scale)
//! pair never changes. [`TraceStore`] captures each trace exactly once
//! per form — even when many sweep threads ask for it concurrently — and
//! hands out `Arc` clones that replay without copying.
//!
//! Two forms are memoised, one per (name, scale, content-hash) key:
//!
//! * [`TraceStore::get_blocks`] is what sweeps replay: the basic-block
//!   lowering ([`BlockTrace`], about 1.7 bytes per instruction at test
//!   scale). It is built through one lowering routine from the first
//!   of three sources that applies: a [`PackedTrace`] this store already
//!   holds (so a process that asked for the oracle first does not
//!   capture twice), an `AURORA_TRACE_CACHE` hit streamed from disk, or
//!   an emulator run captured straight into blocks. No packed trace is
//!   built on the second and third paths.
//! * [`TraceStore::get`] is the packed oracle ([`PackedTrace`], 16 bytes
//!   per op): an independent emulator capture that the differential
//!   checks and sampled mode read. It never derives from the blocks.
//!
//! An optional on-disk cache (the `AURORA_TRACE_CACHE` environment
//! variable for [`TraceStore::global`], or [`TraceStore::with_cache_dir`])
//! persists captures across processes in the `trace_io` binary format
//! (`.trc`), written by whichever form captured first; both forms read
//! it. Cache files are keyed by workload name, scale, the trace format
//! version and a content hash of the assembled kernel, so edits to a
//! kernel or to the encoding invalidate stale files automatically; a
//! corrupt or stale file is treated as a miss. The block form itself is
//! not persisted: lowering a test-scale kernel costs a few milliseconds.
//!
//! A failed capture is not cached, but every caller waiting on it gets
//! the error: no thread ever sees an empty trace in its place.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use aurora_isa::{
    write_trace, BlockTrace, BlockTraceBuilder, PackedTrace, TraceReader, TRACE_FORMAT_VERSION,
};

use crate::workload::{Scale, Workload, WorkloadError};

/// Memo key: kernel name, scale, and a content hash distinguishing
/// same-named kernel variants such as the single- vs double-word
/// floating-point encodings.
type TraceKey = (&'static str, Scale, u64);
/// One memo slot: concurrent requesters clone the cell, then race to
/// initialise it exactly once outside the map lock. The cell holds the
/// outcome, so every thread that waited on a failed capture sees its
/// error.
type MemoCell<T> = Arc<OnceLock<Result<Arc<T>, WorkloadError>>>;
/// The memo slots of one trace form.
type Memo<T> = Mutex<HashMap<TraceKey, MemoCell<T>>>;

/// A concurrent memo of captured traces.
///
/// ```
/// use aurora_workloads::{IntBenchmark, Scale, TraceStore};
///
/// let store = TraceStore::new();
/// let w = IntBenchmark::Compress.workload(Scale::Test);
/// let first = store.get_blocks(&w).unwrap();
/// let second = store.get_blocks(&w).unwrap();
/// // The second request is a memo hit: same lowering, one capture total.
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!((store.captures(), store.lowerings()), (1, 1));
/// assert!(!first.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct TraceStore {
    packed: Memo<PackedTrace>,
    blocks: Memo<BlockTrace>,
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

    /// Returns the packed trace for `workload`: the oracle that per-op
    /// replay and the differential checks compare against, and the input
    /// of sampled mode. Loads it from the disk cache or captures it with
    /// the emulator on the first request for its (name, scale,
    /// content-hash) key; concurrent callers for the same key block until
    /// that one capture finishes and all share one buffer. Sweeps should
    /// call [`TraceStore::get_blocks`] instead, which never builds this
    /// form.
    ///
    /// # Errors
    ///
    /// Propagates the capture's [`WorkloadError`] to every caller that
    /// waited on it. A failed capture is not cached, so a later call
    /// retries.
    pub fn get(&self, workload: &Workload) -> Result<Arc<PackedTrace>, WorkloadError> {
        memoise(&self.packed, key(workload), || {
            self.load_or_capture(workload, load_cached, Workload::capture, |t, file| {
                t.write_to(file)
            })
            .map(Arc::new)
        })
    }

    /// Returns the basic-block lowering of `workload`'s trace, building
    /// it at most once per (name, scale, content-hash) key. It is
    /// lowered from the packed trace when this store already holds one,
    /// streamed from the disk cache on a hit, and otherwise captured
    /// straight into blocks (writing the `.trc` when a cache directory
    /// is set).
    ///
    /// # Errors
    ///
    /// Propagates the capture's [`WorkloadError`] to every caller that
    /// waited on it. A failed capture is not cached, so a later call
    /// retries.
    pub fn get_blocks(&self, workload: &Workload) -> Result<Arc<BlockTrace>, WorkloadError> {
        memoise(&self.blocks, key(workload), || {
            let blocks = match self.held(workload) {
                Some(trace) => BlockTrace::lower(&trace),
                None => self.load_or_capture(
                    workload,
                    load_cached_blocks,
                    Workload::capture_blocks,
                    |b, file| write_trace(file, b.iter()).map(drop),
                )?,
            };
            self.lowerings.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(blocks))
        })
    }

    /// Number of emulator runs this store has performed, into either
    /// form (disk-cache loads do not count).
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }

    /// Number of block traces this store has built, whatever their
    /// source.
    pub fn lowerings(&self) -> u64 {
        self.lowerings.load(Ordering::Relaxed)
    }

    /// Number of traces, in either form, satisfied from the on-disk
    /// cache.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Loads one form of `workload`'s trace from the disk cache, or
    /// captures it with the emulator and writes the cache file.
    fn load_or_capture<T>(
        &self,
        workload: &Workload,
        load: fn(&Path) -> Option<T>,
        capture: fn(&Workload) -> Result<T, WorkloadError>,
        save: fn(&T, &mut io::BufWriter<fs::File>) -> io::Result<()>,
    ) -> Result<T, WorkloadError> {
        let path = self.cache_path(workload);
        if let Some(trace) = path.as_deref().and_then(load) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(trace);
        }
        let trace = capture(workload)?;
        self.captures.fetch_add(1, Ordering::Relaxed);
        if let Some(path) = &path {
            // Cache writes are best-effort: a read-only or full disk must
            // not fail the simulation.
            let _ = store_cached(path, |file| save(&trace, file));
        }
        Ok(trace)
    }

    /// The packed trace already captured for `workload`, if any. Does
    /// not wait for a capture in flight.
    fn held(&self, workload: &Workload) -> Option<Arc<PackedTrace>> {
        let cells = self.packed.lock().expect("trace store poisoned");
        cells.get(&key(workload))?.get()?.as_ref().ok().cloned()
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

fn key(workload: &Workload) -> TraceKey {
    (workload.name(), workload.scale(), workload.content_hash())
}

/// Returns the memoised value for `key`, running `init` if this is the
/// first request. `init` runs outside the map lock so unrelated
/// workloads proceed in parallel; the per-key cell still guarantees one
/// winner, and every caller waiting on it gets the winner's outcome.
fn memoise<T>(
    memo: &Memo<T>,
    key: TraceKey,
    init: impl FnOnce() -> Result<Arc<T>, WorkloadError>,
) -> Result<Arc<T>, WorkloadError> {
    let cell = {
        let mut cells = memo.lock().expect("trace store poisoned");
        Arc::clone(cells.entry(key).or_default())
    };
    let result = cell.get_or_init(init).clone();
    if result.is_err() {
        // Do not cache the failure: drop this slot (unless a retry has
        // already replaced it) so a later call runs the capture again.
        let mut cells = memo.lock().expect("trace store poisoned");
        if cells.get(&key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
            cells.remove(&key);
        }
    }
    result
}

fn load_cached(path: &Path) -> Option<PackedTrace> {
    let file = fs::File::open(path).ok()?;
    // A corrupt or truncated cache file is treated as a miss.
    PackedTrace::read_from(io::BufReader::new(file)).ok()
}

/// Streams a cached `.trc` into the block form, one record at a time.
fn load_cached_blocks(path: &Path) -> Option<BlockTrace> {
    let file = fs::File::open(path).ok()?;
    let reader = TraceReader::new(io::BufReader::new(file)).ok()?;
    let mut blocks = BlockTraceBuilder::new();
    for op in reader {
        // A corrupt or truncated cache file is treated as a miss.
        blocks.push(op.ok()?);
    }
    Some(blocks.finish())
}

fn store_cached(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    let dir = path.parent().expect("cache path has a parent");
    fs::create_dir_all(dir)?;
    // Write to a temporary sibling then rename, so concurrent sweeps
    // never observe a half-written file.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let mut file = io::BufWriter::new(fs::File::create(&tmp)?);
    write(&mut file)?;
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
        // The blocks were captured straight from the emulator, so a
        // later `get` is a second, independent (and memoised) capture of
        // the same ops.
        let trace = store.get(&w).unwrap();
        assert_eq!(store.captures(), 2);
        assert!(Arc::ptr_eq(&trace, &store.get(&w).unwrap()));
        assert!(lowered[0].iter().eq(trace.iter()));
    }

    #[test]
    fn blocks_capture_without_a_packed_trace_and_get_is_independent() {
        let store = TraceStore::new();
        let w = test_workload();
        let blocks = store.get_blocks(&w).unwrap();
        assert_eq!((store.captures(), store.lowerings()), (1, 1));
        assert!(store.held(&w).is_none(), "get_blocks built a packed trace");
        let trace = store.get(&w).unwrap();
        assert_eq!((store.captures(), store.lowerings()), (2, 1));
        assert!(blocks.iter().eq(trace.iter()));
        assert_eq!(blocks.stats(), trace.stats());
    }

    #[test]
    fn blocks_lower_a_held_packed_trace_without_capturing_again() {
        let store = TraceStore::new();
        let w = test_workload();
        let trace = store.get(&w).unwrap();
        let blocks = store.get_blocks(&w).unwrap();
        assert_eq!((store.captures(), store.lowerings()), (1, 1));
        assert_eq!(*blocks, BlockTrace::lower(&trace));
    }

    #[test]
    fn failed_capture_is_an_error_for_every_waiting_caller() {
        use std::sync::Barrier;
        let spin = Workload::assemble("spin", Scale::Test, ".text\nx: b x\n nop\n break\n");
        let store = TraceStore::new();
        let barrier = Barrier::new(4);
        let did_not_halt =
            |r: Result<usize, WorkloadError>| matches!(r, Err(WorkloadError::DidNotHalt { .. }));
        let outcomes: Vec<[bool; 2]> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let packed = store.get(&spin).map(|t| t.len());
                        barrier.wait();
                        let blocks = store.get_blocks(&spin).map(|b| b.len() as usize);
                        [did_not_halt(packed), did_not_halt(blocks)]
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outcomes, vec![[true, true]; 4]);
        // Nothing was cached: a later call retries, and fails again.
        assert!(store.packed.lock().unwrap().is_empty());
        assert!(store.blocks.lock().unwrap().is_empty());
        assert!(did_not_halt(
            store.get_blocks(&spin).map(|b| b.len() as usize)
        ));
        assert_eq!(store.lowerings(), 0);
    }

    #[test]
    fn block_capture_writes_and_reads_the_disk_cache() {
        let dir = std::env::temp_dir().join(format!("aurora-store-blocks-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let w = test_workload();

        // A miss captures straight into blocks and writes the `.trc`.
        let first = TraceStore::with_cache_dir(&dir);
        let a = first.get_blocks(&w).unwrap();
        assert_eq!((first.captures(), first.disk_hits()), (1, 0));
        let path = first.cache_path(&w).unwrap();
        assert!(path.is_file(), "block capture wrote no .trc");

        // A second store streams the file into the same lowering.
        let second = TraceStore::with_cache_dir(&dir);
        let b = second.get_blocks(&w).unwrap();
        assert_eq!(
            (second.captures(), second.disk_hits(), second.lowerings()),
            (0, 1, 1)
        );
        assert_eq!(*a, *b);

        // The packed oracle loads the same file.
        let third = TraceStore::with_cache_dir(&dir);
        let c = third.get(&w).unwrap();
        assert_eq!((third.captures(), third.disk_hits()), (0, 1));
        assert_eq!(*c, PackedTrace::from_ops(a.iter()));

        // A corrupt cache file falls back to capture.
        fs::write(&path, b"junk").unwrap();
        let fourth = TraceStore::with_cache_dir(&dir);
        let d = fourth.get_blocks(&w).unwrap();
        assert_eq!((fourth.captures(), fourth.disk_hits()), (1, 0));
        assert_eq!(*a, *d);

        let _ = fs::remove_dir_all(&dir);
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
