//! Content-addressed campaign result cache.
//!
//! A finished campaign with zero failed jobs is written — through the
//! concurrent-safe `FileTraceWriter::create_unique` /
//! `finalize_if_absent` pair — to `<data>/cache/<key>.apst`, where
//! `key` is [`cache_key`] over the same three fingerprints the
//! tracestore header already carries:
//!
//! ```text
//! key = fnv1a(spec_hash ‖ seed ‖ code_version_hash)   (u64, hex name)
//! ```
//!
//! Resubmitting an identical campaign therefore resolves to the same
//! file name and is served without touching the executor; changing
//! the spec, the seed lane, or the code version changes the key and
//! misses. A hit additionally validates the store header's
//! `spec_hash` and `code_version_hash` against the expected values,
//! so a hash-collision or hand-copied file can never masquerade as a
//! cached result.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

use crate::ServiceError;
use aps_tracestore::{code_version_hash, to_hex, StoreError, TraceStoreReader};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Content address of one campaign result: FNV-1a over the little-
/// endian bytes of (spec hash, seed, code-version hash) — the exact
/// fingerprints the tracestore header records.
pub fn cache_key(spec_hash: u64, seed: u64, code_hash: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for word in [spec_hash, seed, code_hash] {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Hit/miss counters, persisted to `<cache>/stats.json` so service
/// smoke runs can assert cache behavior from artifacts alone.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct CacheStats {
    /// Stats schema version.
    pub version: u32,
    /// Submissions served from an existing cache entry.
    pub hits: usize,
    /// Submissions that had to execute.
    pub misses: usize,
    /// Entries written by this daemon.
    pub writes: usize,
    /// Finalizes skipped because another writer won the race.
    pub skipped_writes: usize,
}

/// The on-disk cache directory.
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache under `data_dir/cache`.
    pub fn open(data_dir: &Path) -> Result<ResultCache, ServiceError> {
        let dir = data_dir.join("cache");
        std::fs::create_dir_all(&dir).map_err(ServiceError::io(&dir))?;
        Ok(ResultCache { dir })
    }

    /// Path of the entry for `key` (present or not).
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}.apst", to_hex(key)))
    }

    /// Opens and validates the entry for `key`: the store must parse
    /// and its header must carry exactly the expected `spec_hash` and
    /// the current code-version hash. Anything else is a miss
    /// (`None`) — a corrupt or foreign file never serves a hit.
    pub fn lookup(&self, key: u64, spec_hash: u64) -> Option<TraceStoreReader> {
        let path = self.entry_path(key);
        if !path.exists() {
            return None;
        }
        match TraceStoreReader::open(&path) {
            Ok(reader) => {
                let header = reader.header();
                if header.spec_hash == spec_hash && header.code_version_hash == code_version_hash()
                {
                    Some(reader)
                } else {
                    None
                }
            }
            Err(StoreError::Io { .. }) => None,
            Err(_) => None,
        }
    }

    /// Loads persisted stats (default when absent or unreadable).
    pub fn load_stats(&self) -> CacheStats {
        let path = self.dir.join("stats.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str(&text).unwrap_or_default(),
            Err(_) => CacheStats::default(),
        }
    }

    /// Atomically persists stats to `<cache>/stats.json`.
    pub fn save_stats(&self, stats: &CacheStats) -> Result<(), ServiceError> {
        crate::save_json(stats, &self.dir.join("stats.json"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_changes_with_every_component() {
        let base = cache_key(1, 2, 3);
        assert_ne!(base, cache_key(9, 2, 3), "spec hash must matter");
        assert_ne!(base, cache_key(1, 9, 3), "seed must matter");
        assert_ne!(base, cache_key(1, 2, 9), "code hash must matter");
        assert_eq!(base, cache_key(1, 2, 3), "key is deterministic");
    }

    #[test]
    fn lookup_misses_on_absent_and_mismatched_entries() {
        let data = std::env::temp_dir().join("aps_service_cache_test");
        let _ = std::fs::remove_dir_all(&data);
        let cache = ResultCache::open(&data).unwrap();
        let key = cache_key(11, 0, code_version_hash());
        assert!(cache.lookup(key, 11).is_none(), "empty cache misses");

        // Write a valid store under the key, but with a different
        // spec hash in the header: must still miss.
        let stored = aps_tracestore::write_store(&[], 99).unwrap();
        std::fs::write(cache.entry_path(key), stored).unwrap();
        assert!(cache.lookup(key, 11).is_none(), "wrong spec hash misses");

        // Matching header hits.
        let stored = aps_tracestore::write_store(&[], 11).unwrap();
        std::fs::write(cache.entry_path(key), stored).unwrap();
        assert!(cache.lookup(key, 11).is_some());

        // Corrupt file misses rather than erroring.
        std::fs::write(cache.entry_path(key), b"not a store").unwrap();
        assert!(cache.lookup(key, 11).is_none());
        let _ = std::fs::remove_dir_all(&data);
    }

    #[test]
    fn stats_persist_and_reload() {
        let data = std::env::temp_dir().join("aps_service_cache_stats_test");
        let _ = std::fs::remove_dir_all(&data);
        let cache = ResultCache::open(&data).unwrap();
        assert_eq!(cache.load_stats(), CacheStats::default());
        let stats = CacheStats {
            version: 1,
            hits: 2,
            misses: 5,
            writes: 4,
            skipped_writes: 1,
        };
        cache.save_stats(&stats).unwrap();
        assert_eq!(cache.load_stats(), stats);
        let _ = std::fs::remove_dir_all(&data);
    }
}
