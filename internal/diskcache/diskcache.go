// Package diskcache is the persistent second level of the allocation
// cache: a corruption-safe append-log of (key, payload) records shared
// across processes. Compile results survive restarts — a daemon rebooted
// with the same cache directory serves previously compiled programs
// without recomputing them — and a fleet of daemons pointed at disjoint
// directories converges to disjoint warm caches under the gateway's
// hash sharding.
//
// Safety model. The log is append-only: one file, a fixed header, then
// CRC-framed records. Trust in the log ends at the first bad frame — a
// torn tail from a crash mid-append, a bit flip, an impossible length —
// and everything before it keeps serving. A writable open truncates the
// file back to the last good record; a read-only open simply stops
// indexing there. Every record key embeds the engine version and the file
// header embeds the format version, so a store written by a different
// engine or format degrades to cache misses, never to a wrong payload.
// Get re-verifies the CRC on every read, so corruption that arrives
// after open (bit rot, a scribbling neighbor) is also a miss, not a
// wrong answer.
//
// Sharing model. One writer at a time: Open takes a non-blocking
// exclusive advisory lock (flock) on a lock file; a second process that
// loses the race degrades to a read-only snapshot of the valid prefix
// instead of failing. Compaction rewrites to a temp file and renames it
// into place, so concurrent readers holding the old file keep reading a
// consistent (merely stale) log.
//
// Write model. Puts are write-behind: they enqueue onto a bounded
// channel served by one background appender, so the engine's hot path
// never waits on disk. A full queue drops the put (it is a cache);
// Sync flushes the queue for callers that need durability ordering.
package diskcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"parmem/internal/alloccache"
)

const (
	// FormatVersion is the on-disk format generation; it is embedded in
	// the file header and a mismatch makes Open start over (writer) or
	// see an empty store (reader).
	FormatVersion = 1

	// DefaultMaxBytes bounds the log when Options.MaxBytes is zero.
	DefaultMaxBytes = 64 << 20

	logName  = "cache.log"
	lockName = "cache.lock"

	headerLen = 8 // "PMDC" + uint32 format version

	// recHeaderLen frames one record: crc32, key length, value length.
	recHeaderLen = 12

	// maxKeyBytes and maxValBytes bound a single record; lengths beyond
	// them mean the frame is garbage, not a huge entry.
	maxKeyBytes = 1 << 20
	maxValBytes = 32 << 20

	// putQueueLen bounds the write-behind queue.
	putQueueLen = 256
)

var magic = [4]byte{'P', 'M', 'D', 'C'}

// Options configures Open.
type Options struct {
	// Dir is the cache directory (created if absent).
	Dir string
	// MaxBytes bounds the log file; exceeding it triggers a compaction
	// that keeps the newest records. <= 0 means DefaultMaxBytes.
	MaxBytes int64
	// EngineVersion is prefixed onto every record key, so payloads
	// written by a different engine generation are invisible (a miss)
	// rather than wrong. Required.
	EngineVersion string
	// ReadOnly opens a snapshot: no lock is taken, no truncation or
	// compaction happens, and Put drops silently.
	ReadOnly bool
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Hits        int64 // Get calls served from the log
	Misses      int64 // Get calls that found nothing usable
	Puts        int64 // records appended
	DroppedPuts int64 // puts dropped (full queue, read-only store, oversized)
	CorruptGets int64 // Gets that found a record with a bad CRC (counted in Misses)
	Compactions int64 // log rewrites triggered by the size bound

	Records int   // live keys indexed
	Bytes   int64 // current log file size

	// Levels breaks the appended records down by memo level (the leading
	// kind string of their keys, see alloccache.KeyLevel).
	Levels map[string]LevelStats

	// ReadOnly reports the store serves a snapshot (requested, or
	// degraded because another process holds the writer lock).
	ReadOnly bool
	// Degraded reports a writable open lost the lock race and fell back
	// to read-only.
	Degraded bool
	// RecoveredTail reports Open found a torn or corrupt tail and
	// truncated (writer) or ignored (reader) it.
	RecoveredTail bool
	// SkippedVersion counts records of other engine versions seen at
	// open (kept on disk, invisible to this store).
	SkippedVersion int64
}

// LevelStats is the write traffic of one memo level.
type LevelStats struct {
	Puts  int64 // records appended
	Bytes int64 // bytes appended, record headers included
}

// recRef locates one live record's value in the log.
type recRef struct {
	off  int64 // offset of the record header
	klen int   // disk-key length (engine-version prefix included)
	vlen int
}

// putOp is one queued write-behind operation; a nil-key op with a
// non-nil flush channel is a Sync barrier.
type putOp struct {
	key   string
	val   []byte
	flush chan struct{}
}

// Store is an open disk cache. It is safe for concurrent use.
type Store struct {
	opt      Options
	path     string
	readOnly bool
	degraded bool

	mu    sync.Mutex
	f     *os.File
	index map[string]recRef
	order []string // append order of live keys, oldest first
	size  int64
	// levels counts appends per memo level; guarded by mu.
	levels map[string]LevelStats

	lockF *os.File

	qMu     sync.RWMutex
	qClosed bool
	q       chan putOp
	wg      sync.WaitGroup

	hits, misses, puts, dropped atomic.Int64
	corruptGets, compactions    atomic.Int64

	recoveredTail  bool
	skippedVersion int64
}

// Open opens (creating if needed) the store in opt.Dir. A writable open
// that cannot take the writer lock degrades to a read-only snapshot
// rather than failing; see the package comment for the sharing model.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, errors.New("diskcache: Options.Dir is required")
	}
	if opt.EngineVersion == "" {
		return nil, errors.New("diskcache: Options.EngineVersion is required")
	}
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	s := &Store{
		opt:      opt,
		path:     filepath.Join(opt.Dir, logName),
		readOnly: opt.ReadOnly,
		index:    map[string]recRef{},
		levels:   map[string]LevelStats{},
	}
	if !opt.ReadOnly {
		lf, err := os.OpenFile(filepath.Join(opt.Dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("diskcache: %w", err)
		}
		switch locked, lerr := tryLockExclusive(lf); {
		case lerr != nil:
			lf.Close()
			return nil, fmt.Errorf("diskcache: lock: %w", lerr)
		case !locked:
			// Another process owns the log: serve a read-only snapshot
			// instead of corrupting a live writer's appends.
			lf.Close()
			s.readOnly, s.degraded = true, true
		default:
			s.lockF = lf
		}
	}
	if err := s.open(); err != nil {
		if s.lockF != nil {
			unlock(s.lockF)
			s.lockF.Close()
		}
		return nil, err
	}
	if !s.readOnly {
		s.q = make(chan putOp, putQueueLen)
		s.wg.Add(1)
		go s.writeLoop()
	}
	return s, nil
}

// open opens the log file, validates the header and builds the index
// from the valid record prefix.
func (s *Store) open() error {
	flags, perm := os.O_RDONLY, os.FileMode(0)
	if !s.readOnly {
		flags, perm = os.O_CREATE|os.O_RDWR, 0o644
	}
	f, err := os.OpenFile(s.path, flags, perm)
	if err != nil {
		if s.readOnly && errors.Is(err, os.ErrNotExist) {
			// Nothing persisted yet; an empty read-only store.
			return nil
		}
		return fmt.Errorf("diskcache: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("diskcache: %w", err)
	}
	switch ok, herr := checkHeader(f, fi.Size()); {
	case herr != nil:
		f.Close()
		return herr
	case !ok && s.readOnly:
		// Foreign or stale format: invisible to a snapshot reader.
		f.Close()
		return nil
	case !ok:
		// Writer: start the log over under the current format.
		if err := writeHeader(f); err != nil {
			f.Close()
			return err
		}
		s.f, s.size = f, headerLen
		return nil
	}
	s.f = f
	s.scan(fi.Size())
	return nil
}

// checkHeader validates the magic and format version of a non-empty log;
// an empty (or too-short) file counts as "no valid header" without error.
func checkHeader(f *os.File, size int64) (bool, error) {
	if size < headerLen {
		return false, nil
	}
	var hdr [headerLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return false, fmt.Errorf("diskcache: header: %w", err)
	}
	if [4]byte(hdr[0:4]) != magic {
		return false, nil
	}
	if binary.LittleEndian.Uint32(hdr[4:8]) != FormatVersion {
		return false, nil
	}
	return true, nil
}

// writeHeader truncates f and writes a fresh header.
func writeHeader(f *os.File) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[0:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], FormatVersion)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	return nil
}

// scan walks the records from the header to the first bad frame, indexing
// records of this store's engine version (later records override earlier
// ones). A writer truncates the bad tail away; a reader just stops.
func (s *Store) scan(size int64) {
	prefix := s.diskPrefix()
	off := int64(headerLen)
	r := io.NewSectionReader(s.f, 0, size)
	var rh [recHeaderLen]byte
	for off+recHeaderLen <= size {
		if _, err := r.ReadAt(rh[:], off); err != nil {
			break
		}
		crc := binary.LittleEndian.Uint32(rh[0:4])
		klen := int(binary.LittleEndian.Uint32(rh[4:8]))
		vlen := int(binary.LittleEndian.Uint32(rh[8:12]))
		if klen <= 0 || klen > maxKeyBytes || vlen < 0 || vlen > maxValBytes ||
			off+recHeaderLen+int64(klen)+int64(vlen) > size {
			break
		}
		body := make([]byte, klen+vlen)
		if _, err := r.ReadAt(body, off+recHeaderLen); err != nil {
			break
		}
		if crc32.ChecksumIEEE(body) != crc {
			break
		}
		dk := string(body[:klen])
		if len(dk) > len(prefix) && dk[:len(prefix)] == prefix {
			key := dk[len(prefix):]
			if _, seen := s.index[key]; !seen {
				s.order = append(s.order, key)
			}
			s.index[key] = recRef{off: off, klen: klen, vlen: vlen}
		} else {
			s.skippedVersion++
		}
		off += recHeaderLen + int64(klen) + int64(vlen)
	}
	s.size = off
	if off < size {
		s.recoveredTail = true
		if !s.readOnly {
			// Trust ends here: cut the torn/corrupt tail so the next
			// append starts at a clean boundary.
			s.f.Truncate(off) //nolint:errcheck // best effort; appends overwrite anyway
		}
	}
}

// diskPrefix is the engine-version prefix of every on-disk key.
func (s *Store) diskPrefix() string {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s.opt.EngineVersion)))
	return string(n[:]) + s.opt.EngineVersion
}

// Get returns the payload stored under key. The record's CRC is
// re-verified on every read; any mismatch is a miss (and the record is
// dropped from the index), never a wrong payload. Safe on a nil store.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		s.misses.Add(1)
		return nil, false
	}
	ref, ok := s.index[key]
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	buf := make([]byte, recHeaderLen+ref.klen+ref.vlen)
	if _, err := s.f.ReadAt(buf, ref.off); err != nil {
		s.dropLocked(key)
		s.corruptGets.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	crc := binary.LittleEndian.Uint32(buf[0:4])
	if crc32.ChecksumIEEE(buf[recHeaderLen:]) != crc {
		s.dropLocked(key)
		s.corruptGets.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return buf[recHeaderLen+ref.klen:], true
}

// dropLocked removes key from the index (order entries are lazily skipped).
func (s *Store) dropLocked(key string) {
	delete(s.index, key)
}

// Put enqueues (key, val) for appending. It never blocks: a full queue,
// a read-only store or an oversized record drops the put. The value is
// copied before Put returns, so the caller may reuse its buffer. Safe on
// a nil store.
func (s *Store) Put(key string, val []byte) {
	if s == nil {
		return
	}
	if s.readOnly || len(key) == 0 || len(key) > maxKeyBytes-len(s.diskPrefix()) || len(val) > maxValBytes {
		s.dropped.Add(1)
		return
	}
	op := putOp{key: key, val: append([]byte(nil), val...)}
	s.qMu.RLock()
	defer s.qMu.RUnlock()
	if s.qClosed {
		s.dropped.Add(1)
		return
	}
	select {
	case s.q <- op:
	default:
		s.dropped.Add(1)
	}
}

// Sync blocks until every Put enqueued before it has been applied to the
// log. Safe on a nil or read-only store.
func (s *Store) Sync() error {
	if s == nil || s.readOnly {
		return nil
	}
	ch := make(chan struct{})
	s.qMu.RLock()
	if s.qClosed {
		s.qMu.RUnlock()
		return nil
	}
	s.q <- putOp{flush: ch}
	s.qMu.RUnlock()
	<-ch
	return nil
}

// writeLoop is the single background appender.
func (s *Store) writeLoop() {
	defer s.wg.Done()
	for op := range s.q {
		if op.flush != nil {
			close(op.flush)
			continue
		}
		s.append(op.key, op.val)
	}
}

// append writes one record and compacts when the log outgrows MaxBytes.
func (s *Store) append(key string, val []byte) {
	dk := s.diskPrefix() + key
	rec := make([]byte, recHeaderLen, recHeaderLen+len(dk)+len(val))
	rec = append(rec, dk...)
	rec = append(rec, val...)
	binary.LittleEndian.PutUint32(rec[0:4], crc32.ChecksumIEEE(rec[recHeaderLen:]))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(dk)))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(val)))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		s.dropped.Add(1)
		return
	}
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		s.dropped.Add(1)
		return
	}
	if _, seen := s.index[key]; !seen {
		s.order = append(s.order, key)
	}
	s.index[key] = recRef{off: s.size, klen: len(dk), vlen: len(val)}
	s.size += int64(len(rec))
	s.puts.Add(1)
	lvl := alloccache.KeyLevel(key)
	ls := s.levels[lvl]
	ls.Puts++
	ls.Bytes += int64(len(rec))
	s.levels[lvl] = ls
	if s.size > s.opt.MaxBytes {
		s.compactLocked()
	}
}

// compactLocked rewrites the log keeping only the newest live records
// that fit in half the size bound (eviction is oldest-first, matching
// the in-memory tier's FIFO), then atomically renames it into place.
// Concurrent readers of the old file keep a consistent stale snapshot.
func (s *Store) compactLocked() {
	budget := s.opt.MaxBytes / 2
	type keep struct {
		key string
		ref recRef
	}
	var kept []keep
	var total int64
	for i := len(s.order) - 1; i >= 0; i-- {
		key := s.order[i]
		ref, ok := s.index[key]
		if !ok || ref.off != s.refOff(key) {
			continue // dead entry or an older duplicate of a live key
		}
		sz := int64(recHeaderLen + ref.klen + ref.vlen)
		if total+sz > budget {
			break
		}
		kept = append(kept, keep{key, ref})
		total += sz
	}

	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return // keep serving the oversized log; better than losing it
	}
	if err := writeHeader(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return
	}
	off := int64(headerLen)
	newIndex := make(map[string]recRef, len(kept))
	newOrder := make([]string, 0, len(kept))
	// kept is newest-first; write oldest-first to preserve append order.
	for i := len(kept) - 1; i >= 0; i-- {
		k := kept[i]
		buf := make([]byte, recHeaderLen+k.ref.klen+k.ref.vlen)
		if _, err := s.f.ReadAt(buf, k.ref.off); err != nil {
			continue
		}
		if crc32.ChecksumIEEE(buf[recHeaderLen:]) != binary.LittleEndian.Uint32(buf[0:4]) {
			continue // never copy a corrupt record forward
		}
		if _, err := tmp.WriteAt(buf, off); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return
		}
		newIndex[k.key] = recRef{off: off, klen: k.ref.klen, vlen: k.ref.vlen}
		newOrder = append(newOrder, k.key)
		off += int64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return
	}
	s.f.Close()
	s.f = tmp
	s.index = newIndex
	s.order = newOrder
	s.size = off
	s.compactions.Add(1)
}

// refOff returns the indexed offset of key (or -1), for duplicate
// detection during compaction.
func (s *Store) refOff(key string) int64 {
	if ref, ok := s.index[key]; ok {
		return ref.off
	}
	return -1
}

// Close flushes the write-behind queue, syncs and closes the log, and
// releases the writer lock. Safe on a nil store and safe to call twice.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.qMu.Lock()
	if s.qClosed {
		s.qMu.Unlock()
		return nil
	}
	s.qClosed = true
	if s.q != nil {
		close(s.q)
	}
	s.qMu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.f != nil {
		if !s.readOnly {
			err = s.f.Sync()
		}
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	if s.lockF != nil {
		unlock(s.lockF)
		s.lockF.Close()
		s.lockF = nil
	}
	return err
}

// Stats returns a snapshot of the store's counters. Safe on a nil store.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	records, bytes := len(s.index), s.size
	levels := make(map[string]LevelStats, len(s.levels))
	for lvl, ls := range s.levels {
		levels[lvl] = ls
	}
	s.mu.Unlock()
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		DroppedPuts:    s.dropped.Load(),
		CorruptGets:    s.corruptGets.Load(),
		Compactions:    s.compactions.Load(),
		Records:        records,
		Bytes:          bytes,
		Levels:         levels,
		ReadOnly:       s.readOnly,
		Degraded:       s.degraded,
		RecoveredTail:  s.recoveredTail,
		SkippedVersion: s.skippedVersion,
	}
}

// Path returns the log file path (for tests and diagnostics).
func (s *Store) Path() string { return s.path }
