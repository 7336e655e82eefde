package diskcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"parmem/internal/alloccache"
)

func openT(t *testing.T, dir string, mut func(*Options)) *Store {
	t.Helper()
	opt := Options{Dir: dir, EngineVersion: "test-engine-1"}
	if mut != nil {
		mut(&opt)
	}
	s, err := Open(opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func put(t *testing.T, s *Store, key, val string) {
	t.Helper()
	s.Put(key, []byte(val))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestPutsCountedByLevel(t *testing.T) {
	s := openT(t, t.TempDir(), nil)
	key := func(level, x string) string {
		k := alloccache.NewKey(nil)
		k.Str(level)
		k.Str(x)
		return k.String()
	}
	put(t, s, key("assign", "a"), "12345")
	put(t, s, key("assign", "b"), "1")
	put(t, s, key("atomcolor", "a"), "123")
	st := s.Stats()
	if st.Puts != 3 || len(st.Levels) != 2 || st.Levels["assign"].Puts != 2 || st.Levels["atomcolor"].Puts != 1 {
		t.Fatalf("puts by level = %+v (total %d), want assign 2, atomcolor 1", st.Levels, st.Puts)
	}
	var bytes int64
	for _, ls := range st.Levels {
		bytes += ls.Bytes
	}
	if fi, err := os.Stat(s.Path()); err != nil || bytes+headerLen != fi.Size() {
		t.Fatalf("bytes by level sum to %d, log is %v bytes (err %v)", bytes, fi, err)
	}
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	put(t, s, "alpha", "payload-a")
	put(t, s, "beta", "payload-b")
	if v, ok := s.Get("alpha"); !ok || string(v) != "payload-a" {
		t.Fatalf("Get(alpha) = %q, %v", v, ok)
	}
	if _, ok := s.Get("gamma"); ok {
		t.Fatal("Get(gamma) hit on an absent key")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart: the records must survive the process boundary.
	s2 := openT(t, dir, nil)
	for key, want := range map[string]string{"alpha": "payload-a", "beta": "payload-b"} {
		if v, ok := s2.Get(key); !ok || string(v) != want {
			t.Fatalf("after reopen Get(%s) = %q, %v; want %q", key, v, ok, want)
		}
	}
	st := s2.Stats()
	if st.Records != 2 || st.RecoveredTail || st.Degraded {
		t.Fatalf("unexpected stats after clean reopen: %+v", st)
	}
}

func TestOverwriteKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	put(t, s, "k", "old")
	put(t, s, "k", "new")
	if v, _ := s.Get("k"); string(v) != "new" {
		t.Fatalf("Get after overwrite = %q", v)
	}
	s.Close()
	s2 := openT(t, dir, nil)
	if v, _ := s2.Get("k"); string(v) != "new" {
		t.Fatalf("Get after reopen = %q (older record resurrected)", v)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	put(t, s, "good1", "v1")
	put(t, s, "good2", "v2")
	s.Close()

	// Simulate a crash mid-append: append half a record.
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x10, 0x00}) //nolint:errcheck
	f.Close()
	before, _ := os.Stat(path)

	s2 := openT(t, dir, nil)
	st := s2.Stats()
	if !st.RecoveredTail {
		t.Fatalf("torn tail not flagged: %+v", st)
	}
	for key, want := range map[string]string{"good1": "v1", "good2": "v2"} {
		if v, ok := s2.Get(key); !ok || string(v) != want {
			t.Fatalf("Get(%s) after recovery = %q, %v", key, v, ok)
		}
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// And the recovered store keeps working.
	put(t, s2, "good3", "v3")
	if v, ok := s2.Get("good3"); !ok || string(v) != "v3" {
		t.Fatalf("Get(good3) after recovery append = %q, %v", v, ok)
	}
}

func TestBitFlipIsAMissNeverAWrongPayload(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	want := map[string]string{}
	for i := 0; i < 8; i++ {
		k, v := fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d-0123456789", i)
		put(t, s, k, v)
		want[k] = v
	}
	s.Close()

	path := filepath.Join(dir, logName)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte position (one at a time) past the header and
	// verify no Get ever returns a payload that differs from what was
	// written: corrupted records must vanish, not mutate.
	for pos := headerLen; pos < len(orig); pos += 7 {
		data := append([]byte(nil), orig...)
		data[pos] ^= 0x41
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openT(t, dir, nil)
		for k, v := range want {
			if got, ok := s2.Get(k); ok && string(got) != v {
				t.Fatalf("flip at %d: Get(%s) returned wrong payload %q", pos, k, got)
			}
		}
		s2.Close()
		// Restore for the next position (the writer may have truncated).
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGetReverifiesCRCAfterOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	put(t, s, "k", "payload-payload-payload")
	// Corrupt the live log underneath the open store: the payload byte
	// flip must turn the next Get into a miss, not a wrong value.
	ref := s.index["k"]
	buf := make([]byte, ref.vlen)
	if _, err := s.f.ReadAt(buf, ref.off+recHeaderLen+int64(ref.klen)); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if _, err := s.f.WriteAt(buf, ref.off+recHeaderLen+int64(ref.klen)); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("k"); ok {
		t.Fatalf("Get returned %q from a corrupted record", v)
	}
	if st := s.Stats(); st.CorruptGets != 1 {
		t.Fatalf("CorruptGets = %d, want 1", st.CorruptGets)
	}
}

func TestWrongEngineVersionIsInvisible(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, func(o *Options) { o.EngineVersion = "engine-A" })
	put(t, s, "k", "from-A")
	s.Close()

	sB := openT(t, dir, func(o *Options) { o.EngineVersion = "engine-B" })
	if v, ok := sB.Get("k"); ok {
		t.Fatalf("engine-B read engine-A's payload %q", v)
	}
	if st := sB.Stats(); st.SkippedVersion != 1 {
		t.Fatalf("SkippedVersion = %d, want 1", st.SkippedVersion)
	}
	// B's own writes coexist with A's records in the same log.
	put(t, sB, "k", "from-B")
	if v, ok := sB.Get("k"); !ok || string(v) != "from-B" {
		t.Fatalf("engine-B Get = %q, %v", v, ok)
	}
	sB.Close()

	sA := openT(t, dir, func(o *Options) { o.EngineVersion = "engine-A" })
	if v, ok := sA.Get("k"); !ok || string(v) != "from-A" {
		t.Fatalf("engine-A Get after B's writes = %q, %v", v, ok)
	}
}

func TestWrongFormatVersionStartsOver(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	put(t, s, "k", "v")
	s.Close()

	path := filepath.Join(dir, logName)
	data, _ := os.ReadFile(path)
	data[4] = 0xEE                  // format version field
	os.WriteFile(path, data, 0o644) //nolint:errcheck

	s2 := openT(t, dir, nil)
	if _, ok := s2.Get("k"); ok {
		t.Fatal("record of a foreign format version was served")
	}
	put(t, s2, "k2", "v2") // writer starts the log over
	if v, ok := s2.Get("k2"); !ok || string(v) != "v2" {
		t.Fatalf("Get(k2) = %q, %v", v, ok)
	}
}

func TestCompactionBoundsSizeAndKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, func(o *Options) { o.MaxBytes = 4096 })
	val := bytes.Repeat([]byte("x"), 200)
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("key-%03d", i), val)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d bytes of puts into a 4096-byte bound", 100*200)
	}
	if st.Bytes > 4096 {
		t.Fatalf("log still %d bytes after compaction (bound 4096)", st.Bytes)
	}
	// The newest key must have survived; the oldest must be gone.
	if _, ok := s.Get("key-099"); !ok {
		t.Fatal("newest key evicted by compaction")
	}
	if _, ok := s.Get("key-000"); ok {
		t.Fatal("oldest key survived a full-log compaction")
	}
	s.Close()
	// And the compacted log reopens cleanly.
	s2 := openT(t, dir, func(o *Options) { o.MaxBytes = 4096 })
	if v, ok := s2.Get("key-099"); !ok || !bytes.Equal(v, val) {
		t.Fatalf("Get(key-099) after reopen = %d bytes, %v", len(v), ok)
	}
}

func TestConcurrentOpenDegradesToReadOnly(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, nil)
	put(t, w, "k", "v")

	// Second writable open while the first holds the lock: must degrade
	// to a read-only snapshot, not corrupt the live log.
	r := openT(t, dir, nil)
	st := r.Stats()
	if !st.ReadOnly || !st.Degraded {
		t.Fatalf("second open not degraded: %+v", st)
	}
	if v, ok := r.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("snapshot Get = %q, %v", v, ok)
	}
	r.Put("k2", []byte("dropped"))
	r.Sync() //nolint:errcheck
	if _, ok := r.Get("k2"); ok {
		t.Fatal("read-only snapshot accepted a Put")
	}
	if r.Stats().DroppedPuts == 0 {
		t.Fatal("dropped put not counted")
	}

	// The writer keeps working while the snapshot exists.
	put(t, w, "k3", "v3")
	if v, ok := w.Get("k3"); !ok || string(v) != "v3" {
		t.Fatalf("writer Get(k3) = %q, %v", v, ok)
	}
	w.Close()

	// Lock released: a fresh open becomes the writer again.
	w2 := openT(t, dir, nil)
	if st := w2.Stats(); st.ReadOnly {
		t.Fatalf("open after Close still read-only: %+v", st)
	}
}

func TestExplicitReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, nil)
	put(t, w, "k", "v")
	w.Close()

	r := openT(t, dir, func(o *Options) { o.ReadOnly = true })
	if v, ok := r.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("read-only Get = %q, %v", v, ok)
	}
	if st := r.Stats(); !st.ReadOnly || st.Degraded {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestReadOnlyOpenOfMissingDirIsEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never-written")
	r, err := Open(Options{Dir: dir, EngineVersion: "e", ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only open of empty dir: %v", err)
	}
	defer r.Close()
	if _, ok := r.Get("k"); ok {
		t.Fatal("hit in an empty store")
	}
}

func TestConcurrentPutGetRace(t *testing.T) {
	s := openT(t, t.TempDir(), nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%17)
				s.Put(k, []byte(k))
				if v, ok := s.Get(k); ok && string(v) != k {
					t.Errorf("Get(%s) = %q", k, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	s.Put("k", []byte("v"))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); !reflect.DeepEqual(st, Stats{}) {
		t.Fatalf("nil stats: %+v", st)
	}
}
