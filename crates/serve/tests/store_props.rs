//! Property tests for the persistent [`ResultStore`]: random
//! insert/reopen round trips, truncated-tail recovery, corrupt-record
//! rejection and version-mismatch rebuild.
//!
//! The invariant under test everywhere: the store may *lose* cells (a
//! damaged tail, a version bump) but may never return a value different
//! from the one that was put — memoised results feed bit-identity
//! guarantees downstream, so a silently wrong cell is the one
//! unacceptable failure.

use std::fs;
use std::path::PathBuf;

use aurora_core::{SimStats, MODEL_VERSION};
use aurora_serve::{CellKey, CellValue, Mode, ResultStore, SampledCell};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A unique scratch directory per (test, case).
fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aurora-store-props-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Derives a pseudo-random cell from `rng`, covering all three modes
/// and both value shapes.
fn random_cell(rng: &mut SmallRng) -> (CellKey, CellValue) {
    let mode = match rng.gen_range(0u8..3) {
        0 => Mode::Detailed,
        1 => Mode::Block,
        _ => Mode::Sampled,
    };
    let key = CellKey {
        config_fp: rng.gen_range(0..u64::MAX),
        trace_hash: rng.gen_range(0..u64::MAX),
        mode,
    };
    let value = if mode == Mode::Sampled {
        CellValue::Sampled(SampledCell {
            instructions: rng.gen_range(0..1u64 << 40),
            detailed_instructions: rng.gen_range(0..1u64 << 30),
            windows: rng.gen_range(1..10_000),
            cpi_bits: f64::to_bits(rng.gen_range(0.5..20.0)),
            ci_bits: f64::to_bits(rng.gen_range(0.0..0.5)),
        })
    } else {
        let stats = SimStats {
            cycles: rng.gen_range(0..1u64 << 40),
            instructions: rng.gen_range(0..1u64 << 38),
            dual_issues: rng.gen_range(0..1u64 << 30),
            fp_instructions: rng.gen_range(0..1u64 << 30),
            folded_branches: rng.gen_range(0..1u64 << 28),
            ..SimStats::default()
        };
        CellValue::Exact(stats)
    };
    (key, value)
}

/// Writes `n` random cells, returning what was written (later puts for
/// the same key overwrite — the map keeps the final value, as the store
/// must).
fn fill(store: &ResultStore, rng: &mut SmallRng, n: usize) -> Vec<(CellKey, CellValue)> {
    let mut written: Vec<(CellKey, CellValue)> = Vec::new();
    for _ in 0..n {
        let (key, value) = random_cell(rng);
        store.put(&key, &value).expect("put");
        written.retain(|(k, _)| *k != key);
        written.push((key, value));
    }
    written
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Insert random cells, reopen the directory, everything reads back
    /// bit-identically (including across duplicate-key overwrites).
    #[test]
    fn insert_reopen_round_trips(seed in any::<u64>(), n in 1usize..40) {
        let dir = scratch("roundtrip", seed ^ n as u64);
        let mut rng = SmallRng::seed_from_u64(seed);
        let written = {
            let store = ResultStore::open(&dir).expect("open");
            fill(&store, &mut rng, n)
        };
        let reopened = ResultStore::open(&dir).expect("reopen");
        prop_assert_eq!(reopened.shards_rebuilt(), 0);
        prop_assert_eq!(reopened.records_recovered(), 0);
        prop_assert_eq!(reopened.len(), written.len());
        for (key, value) in &written {
            prop_assert_eq!(reopened.get(key).as_ref(), Some(value));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Chop random byte counts off shard tails (a crash mid-append):
    /// the store reopens, surviving cells are bit-identical, lost cells
    /// read as None, and the store accepts appends again afterwards.
    #[test]
    fn truncated_tail_recovers_cleanly(seed in any::<u64>(), n in 4usize..32, chop in 1usize..64) {
        let dir = scratch("truncate", seed ^ (n as u64) << 8 ^ chop as u64);
        let mut rng = SmallRng::seed_from_u64(seed);
        let written = {
            let store = ResultStore::open(&dir).expect("open");
            fill(&store, &mut rng, n)
        };
        // Truncate every non-empty shard's tail by `chop` bytes (capped
        // so the header survives; header damage is the rebuild test).
        for entry in fs::read_dir(&dir).expect("read_dir") {
            let path = entry.expect("entry").path();
            let len = fs::metadata(&path).expect("meta").len() as usize;
            if len > 20 {
                let keep = len - chop.min(len - 20);
                let bytes = fs::read(&path).expect("read");
                fs::write(&path, &bytes[..keep]).expect("write");
            }
        }
        let reopened = ResultStore::open(&dir).expect("reopen after truncation");
        prop_assert_eq!(reopened.shards_rebuilt(), 0);
        let mut survivors = 0usize;
        for (key, value) in &written {
            if let Some(got) = reopened.get(key) {
                prop_assert_eq!(&got, value, "survivor must be bit-identical");
                survivors += 1;
            }
        }
        prop_assert!(survivors <= written.len());
        // The truncated store still accepts and serves new cells.
        let (key, value) = random_cell(&mut rng);
        reopened.put(&key, &value).expect("put after recovery");
        prop_assert_eq!(reopened.get(&key), Some(value));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flip a random byte in one shard's record region: the store must
    /// never serve a wrong value — every key reads back either its
    /// original value or nothing.
    #[test]
    fn corrupt_record_never_serves_wrong_data(seed in any::<u64>(), n in 4usize..32) {
        let dir = scratch("corrupt", seed ^ (n as u64) << 16);
        let mut rng = SmallRng::seed_from_u64(seed);
        let written = {
            let store = ResultStore::open(&dir).expect("open");
            fill(&store, &mut rng, n)
        };
        // Pick the fullest shard and flip one byte past its header.
        let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
            .expect("read_dir")
            .map(|e| e.expect("entry").path())
            .collect();
        paths.sort();
        let target = paths
            .iter()
            .max_by_key(|p| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .expect("at least one shard")
            .clone();
        let mut bytes = fs::read(&target).expect("read");
        if bytes.len() > 20 {
            let idx = rng.gen_range(20..bytes.len());
            bytes[idx] ^= 0x40;
            fs::write(&target, &bytes).expect("write");
        }
        let reopened = ResultStore::open(&dir).expect("reopen after corruption");
        for (key, value) in &written {
            if let Some(got) = reopened.get(key) {
                prop_assert_eq!(&got, value, "corruption must never alias to a wrong value");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A shard whose header carries a different store format or timing
/// model version is discarded and rebuilt empty — stale caches must
/// invalidate, not masquerade.
#[test]
fn version_mismatch_rebuilds_shard() {
    let dir = scratch("version", 0);
    let mut rng = SmallRng::seed_from_u64(7);
    let written = {
        let store = ResultStore::open(&dir).expect("open");
        fill(&store, &mut rng, 24)
    };
    // Bump the store-version field (bytes 8..12) of shard 3's header,
    // and the model-version field (bytes 12..16) of shard 5's, as a
    // store written by another simulator would carry.
    let header = fs::read(dir.join("shard-05.seg")).expect("read shard");
    assert_eq!(header[12..16], MODEL_VERSION.to_le_bytes());
    for (shard, offset) in [(3, 8), (5, 12)] {
        let path = dir.join(format!("shard-{shard:02}.seg"));
        let mut bytes = fs::read(&path).expect("read shard");
        bytes[offset] ^= 0xFF;
        fs::write(&path, &bytes).expect("write shard");
    }

    let reopened = ResultStore::open(&dir).expect("reopen");
    assert_eq!(reopened.shards_rebuilt(), 2);
    // Every surviving cell is intact; the rebuilt shards' cells are
    // gone but nothing is wrong.
    let mut lost = 0usize;
    for (key, value) in &written {
        match reopened.get(key) {
            Some(got) => assert_eq!(&got, value),
            None => lost += 1,
        }
    }
    assert!(
        lost < written.len(),
        "only two shards of eight were rebuilt"
    );
    // The rebuilt shard works again.
    let (key, value) = random_cell(&mut rng);
    reopened.put(&key, &value).expect("put after rebuild");
    assert_eq!(reopened.get(&key), Some(value));
    let _ = fs::remove_dir_all(&dir);
}

/// Garbage that happens to start with a plausible length prefix is
/// rejected by the checksum, not decoded.
#[test]
fn appended_garbage_is_dropped() {
    let dir = scratch("garbage", 0);
    let mut rng = SmallRng::seed_from_u64(11);
    let written = {
        let store = ResultStore::open(&dir).expect("open");
        fill(&store, &mut rng, 8)
    };
    for entry in fs::read_dir(&dir).expect("read_dir") {
        let path = entry.expect("entry").path();
        let mut bytes = fs::read(&path).expect("read");
        // Plausible 32-byte record frame with a bogus checksum.
        bytes.extend_from_slice(&32u32.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 40]);
        fs::write(&path, &bytes).expect("write");
    }
    let reopened = ResultStore::open(&dir).expect("reopen");
    assert_eq!(reopened.len(), written.len());
    for (key, value) in &written {
        assert_eq!(reopened.get(key).as_ref(), Some(value));
    }
    let _ = fs::remove_dir_all(&dir);
}
