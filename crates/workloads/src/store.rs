//! Capture-once / replay-many trace memoisation.
//!
//! A configuration sweep simulates the same workloads against many
//! machine configurations. Re-running the functional emulator for every
//! cell repeats identical work: the dynamic trace of a (workload, scale)
//! pair never changes. [`TraceStore`] captures each trace exactly once
//! per form — even when many sweep threads ask for it concurrently — and
//! hands out `Arc` clones that replay without copying.
//!
//! Two forms are memoised, each per (name, scale, content-hash) key:
//!
//! * [`TraceStore::get_blocks`] is what every product path replays:
//!   sweeps, exact serve cells and sampled cells alike. It is the
//!   basic-block lowering ([`BlockTrace`], about 1.7 bytes per
//!   instruction at test scale). It lowers a [`PackedTrace`] this store
//!   already holds (so a process that asked for the oracle first does
//!   not capture twice), and otherwise captures straight into blocks,
//!   building no packed trace.
//! * [`TraceStore::get`] is the packed oracle ([`PackedTrace`], 16 bytes
//!   per op): an independent emulator capture that the differential
//!   checks and `aurora_benchmark`'s reference cells read. It never
//!   derives from the blocks.
//!
//! Traces live only in memory and each process captures its own:
//! re-capturing measured about as fast as streaming a stored trace back
//! from disk. Every form is held for the life of the store.
//!
//! A failed capture is not cached, but every caller waiting on it gets
//! the error: no thread ever sees an empty trace in its place.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use aurora_isa::{BlockTrace, PackedTrace};

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
    lowerings: AtomicU64,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// The process-wide store the sweep harness and the service share.
    pub fn global() -> &'static TraceStore {
        static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
        GLOBAL.get_or_init(TraceStore::new)
    }

    /// Returns the packed trace for `workload`: the oracle that per-op
    /// replay, the sampled-mode oracle and the differential checks read.
    /// Captures it with the emulator on the first request for its (name,
    /// scale, content-hash) key; concurrent callers for the same key
    /// block until that one capture finishes and all share one buffer.
    /// No product path calls it: they call [`TraceStore::get_blocks`],
    /// which never builds this form.
    ///
    /// # Errors
    ///
    /// Propagates the capture's [`WorkloadError`] to every caller that
    /// waited on it. A failed capture is not cached, so a later call
    /// retries.
    pub fn get(&self, workload: &Workload) -> Result<Arc<PackedTrace>, WorkloadError> {
        memoise(&self.packed, key(workload), || {
            let trace = workload.capture()?;
            self.captures.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(trace))
        })
    }

    /// Returns the basic-block lowering of `workload`'s trace, building
    /// it at most once per (name, scale, content-hash) key. It is
    /// lowered from the packed trace when this store already holds one,
    /// and otherwise captured straight into blocks.
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
                None => {
                    let blocks = workload.capture_blocks()?;
                    self.captures.fetch_add(1, Ordering::Relaxed);
                    blocks
                }
            };
            self.lowerings.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(blocks))
        })
    }

    /// Number of emulator runs this store has performed, into either
    /// trace form.
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }

    /// Number of block traces this store has built, whatever their
    /// source.
    pub fn lowerings(&self) -> u64 {
        self.lowerings.load(Ordering::Relaxed)
    }

    /// The packed trace already captured for `workload`, if any. Does
    /// not wait for a capture in flight.
    fn held(&self, workload: &Workload) -> Option<Arc<PackedTrace>> {
        let cells = self.packed.lock().expect("trace store poisoned");
        cells.get(&key(workload))?.get()?.as_ref().ok().cloned()
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
