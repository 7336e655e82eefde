package parmem

import (
	"parmem/internal/alloccache"
	"parmem/internal/diskcache"
)

// This file is the public cache surface: CacheConfig declares the cache
// tiers a caller wants, OpenCacheStore builds them, and the CacheStore
// handle is what flows through Options.Store / AssignConfig.Store. A
// CacheStore owns the composition of the in-memory memo table with the
// optional persistent disk tier, including lifecycle (Close flushes and
// unlocks the disk log).

// EngineVersion names the memo-compatibility generation of the engine.
// Every record the disk tier writes is keyed under it, so a cache
// directory written by an incompatible engine build reads as empty —
// never as wrong answers. Bump it whenever cache keys, entry encodings
// or the semantics behind them change.
const EngineVersion = "parmem/2026-10c"

// DiskCacheStats is a snapshot of the persistent tier's counters.
type DiskCacheStats = diskcache.Stats

// CacheConfig declares the cache tiers of a CacheStore.
type CacheConfig struct {
	// MemoryEntries caps the in-memory tier's resident entries; 0 picks
	// the default capacity, negative is rejected.
	MemoryEntries int
	// DiskPath, when non-empty, adds a persistent tier: an append-log
	// cache directory at this path, created if missing, shared safely
	// across processes (one writer, any number of read-only openers).
	DiskPath string
	// MaxDiskBytes bounds the log file; exceeding it triggers compaction
	// that keeps the newest records. 0 picks the default bound.
	MaxDiskBytes int64
	// ReadOnly opens the disk tier as a snapshot: hits are served but
	// nothing is written, and no writer lock is taken.
	ReadOnly bool
}

// CacheStore is a handle on a composed cache: the in-memory memo table,
// optionally backed by a persistent disk tier. Pass it via Options.Store
// or AssignConfig.Store; it is safe for concurrent use by any number of
// compilations. Close releases the disk tier (flushing pending writes);
// a memory-only store's Close is a no-op.
type CacheStore interface {
	// Cache returns the in-memory tier, the memo table the engine reads
	// and writes.
	Cache() *AllocCache
	// Stats snapshots the memory tier's counters, including the
	// BackingHits/BackingMisses traffic into the disk tier.
	Stats() CacheStats
	// DiskStats snapshots the disk tier; ok is false for a memory-only
	// store.
	DiskStats() (st DiskCacheStats, ok bool)
	// Close flushes and releases the disk tier. The store must not be
	// used after Close.
	Close() error
}

// OpenCacheStore builds the cache tiers cfg declares. Invalid
// configurations return a *ConfigError; a disk path that cannot be
// created or opened returns the underlying error. When another process
// already holds the writer lock on DiskPath the store degrades to a
// read-only snapshot of the log rather than failing (see
// DiskCacheStats.Degraded).
func OpenCacheStore(cfg CacheConfig) (CacheStore, error) {
	if cfg.MemoryEntries < 0 {
		return nil, configErrf("CacheConfig.MemoryEntries", "%d: must be non-negative (0 = default capacity)", cfg.MemoryEntries)
	}
	if cfg.MaxDiskBytes < 0 {
		return nil, configErrf("CacheConfig.MaxDiskBytes", "%d: must be non-negative (0 = default bound)", cfg.MaxDiskBytes)
	}
	if cfg.DiskPath == "" && cfg.ReadOnly {
		return nil, configErrf("CacheConfig.ReadOnly", "set without DiskPath: a memory-only store has nothing to open read-only")
	}
	s := &cacheStore{mem: alloccache.New(cfg.MemoryEntries)}
	if cfg.DiskPath != "" {
		d, err := diskcache.Open(diskcache.Options{
			Dir:           cfg.DiskPath,
			MaxBytes:      cfg.MaxDiskBytes,
			EngineVersion: EngineVersion,
			ReadOnly:      cfg.ReadOnly,
		})
		if err != nil {
			return nil, err
		}
		s.disk = d
		s.mem.SetBacking(d)
	}
	return s, nil
}

type cacheStore struct {
	mem  *AllocCache
	disk *diskcache.Store
}

func (s *cacheStore) Cache() *AllocCache { return s.mem }
func (s *cacheStore) Stats() CacheStats  { return s.mem.Stats() }

func (s *cacheStore) DiskStats() (DiskCacheStats, bool) {
	if s.disk == nil {
		return DiskCacheStats{}, false
	}
	return s.disk.Stats(), true
}

func (s *cacheStore) Close() error {
	if s.disk == nil {
		return nil
	}
	return s.disk.Close()
}

// storeCache returns the memory tier of store, nil when store is nil.
func storeCache(store CacheStore) *AllocCache {
	if store == nil {
		return nil
	}
	return store.Cache()
}
