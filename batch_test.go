package parmem

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"parmem/internal/benchprog"
)

// batchSources is a small mixed corpus: every built-in benchmark program.
func batchSources() []string {
	var srcs []string
	for _, spec := range benchprog.All() {
		srcs = append(srcs, spec.Source)
	}
	return srcs
}

// TestCompileBatchMatchesSequential is the batch determinism contract:
// every batch item must be bit-identical to the same source compiled alone,
// and results must come back in input order.
func TestCompileBatchMatchesSequential(t *testing.T) {
	srcs := batchSources()
	for _, workers := range []int{1, 4} {
		opt := Options{Modules: 8, Workers: workers}
		results := CompileBatch(context.Background(), srcs, opt)
		if len(results) != len(srcs) {
			t.Fatalf("workers=%d: got %d results for %d sources", workers, len(results), len(srcs))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, r.Err)
			}
			seq, err := Compile(srcs[i], opt)
			if err != nil {
				t.Fatalf("sequential compile %d: %v", i, err)
			}
			fb, fs := fingerprint(r.Program), fingerprint(seq)
			if !reflect.DeepEqual(fb, fs) {
				t.Fatalf("workers=%d item %d: batch and sequential allocations diverged\nbatch: %+v\nseq:   %+v",
					workers, i, fb, fs)
			}
		}
	}
}

// TestAssignValuesBatchMatchesSequential covers the direct-assignment batch
// entry point against per-item AssignValues calls.
func TestAssignValuesBatchMatchesSequential(t *testing.T) {
	items := [][]Instruction{
		{{1, 2, 4}, {2, 3, 5}, {2, 3, 4}},
		{{1, 2, 3}, {2, 3, 4}, {1, 3, 4}, {1, 3, 5}, {2, 3, 5}, {1, 4, 5}},
		{{1, 2, 5}, {2, 3, 5}, {3, 4, 5}, {1, 4, 5}, {1, 2, 4}, {2, 3, 4}},
		{{1, 2, 3, 5}, {4, 2, 3, 5}, {1, 2, 3, 4}, {4, 2, 1, 5}},
	}
	for _, method := range []Method{HittingSet, Backtrack} {
		cfg := AssignConfig{K: 4, Method: method, Workers: 2}
		results := AssignValuesBatch(context.Background(), items, cfg)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("%v item %d: %v", method, i, r.Err)
			}
			seq, err := AssignValues(context.Background(), items[i], cfg)
			if err != nil {
				t.Fatalf("%v sequential assign %d: %v", method, i, err)
			}
			ab, as := r.Alloc, seq
			ab.Phases, as.Phases = nil, nil // wall-clock timings differ
			if !reflect.DeepEqual(ab, as) {
				t.Fatalf("%v item %d: batch and sequential allocations diverged\nbatch: %+v\nseq:   %+v",
					method, i, ab, as)
			}
		}
	}
}

// TestCompileBatchPerItemErrors checks that a broken source fails its own
// slot and leaves the neighbors intact.
func TestCompileBatchPerItemErrors(t *testing.T) {
	good := batchSources()[0]
	srcs := []string{good, "this is not MPL (", good}
	results := CompileBatch(context.Background(), srcs, Options{Modules: 8, Workers: 2})
	if results[0].Err != nil || results[0].Program == nil {
		t.Fatalf("item 0 should have compiled: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("item 1 should have failed to parse")
	}
	if results[1].Program != nil {
		t.Fatal("failed item carries a Program")
	}
	if results[2].Err != nil || results[2].Program == nil {
		t.Fatalf("item 2 should have compiled: %v", results[2].Err)
	}
}

// TestCompileBatchInvalidOptions checks option validation fails every slot
// rather than panicking workers.
func TestCompileBatchInvalidOptions(t *testing.T) {
	results := CompileBatch(context.Background(), batchSources()[:2], Options{Modules: 100})
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("item %d accepted Modules=100", i)
		}
	}
}

// TestCompileBatchCanceled checks a canceled ctx aborts every item with an
// error wrapping ErrCanceled.
func TestCompileBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := CompileBatch(ctx, batchSources(), Options{Modules: 8, Workers: 2})
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("item %d compiled under a canceled ctx", i)
		}
		if !errors.Is(r.Err, ErrCanceled) {
			t.Fatalf("item %d error does not wrap ErrCanceled: %v", i, r.Err)
		}
	}
}

// TestCompileBatchCancelRace cancels the context while the batch is
// mid-flight, at a sweep of different points, and checks the contract the
// daemon's batch handler depends on: every per-item result is either fully
// complete (non-nil Program, nil Err) or a clean error wrapping ErrCanceled
// — never a partial or zeroed entry, and never both fields set. Run under
// -race this also exercises the results-slice writes against the
// cancellation path.
func TestCompileBatchCancelRace(t *testing.T) {
	srcs := batchSources()
	// Pad the corpus so the batch reliably outlives the earliest cancels.
	for len(srcs) < 16 {
		srcs = append(srcs, srcs...)
	}
	for _, delay := range []time.Duration{
		0, 50 * time.Microsecond, 200 * time.Microsecond,
		time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
	} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan []BatchResult, 1)
		go func() {
			done <- CompileBatch(ctx, srcs, Options{Modules: 8, Workers: 4})
		}()
		time.Sleep(delay)
		cancel()
		results := <-done
		if len(results) != len(srcs) {
			t.Fatalf("delay=%v: got %d results for %d sources", delay, len(results), len(srcs))
		}
		var completed int
		for i, r := range results {
			switch {
			case r.Err == nil && r.Program == nil:
				t.Fatalf("delay=%v item %d: zeroed result — neither Program nor Err", delay, i)
			case r.Err != nil && r.Program != nil:
				t.Fatalf("delay=%v item %d: partial result — both Program and Err set", delay, i)
			case r.Err != nil:
				if !errors.Is(r.Err, ErrCanceled) {
					t.Fatalf("delay=%v item %d: error does not wrap ErrCanceled: %v", delay, i, r.Err)
				}
			default:
				completed++
				// A completed item must be internally whole, identical to a
				// solo compile of the same source — not a husk that stopped
				// partway through its phases.
				if r.Program.Func == nil || r.Program.Sched == nil {
					t.Fatalf("delay=%v item %d: completed item missing IR or schedule", delay, i)
				}
				seq, err := Compile(srcs[i], Options{Modules: 8})
				if err != nil {
					t.Fatalf("sequential compile %d: %v", i, err)
				}
				if !reflect.DeepEqual(fingerprint(r.Program), fingerprint(seq)) {
					t.Fatalf("delay=%v item %d: completed-under-cancel allocation differs from solo compile", delay, i)
				}
			}
		}
		t.Logf("delay=%v: %d/%d items completed before the cancel landed", delay, completed, len(srcs))
	}
}

// TestCompileBatchEmpty checks the degenerate inputs.
func TestCompileBatchEmpty(t *testing.T) {
	if got := CompileBatch(context.Background(), nil, Options{}); len(got) != 0 {
		t.Fatalf("nil batch returned %d results", len(got))
	}
	if got := AssignValuesBatch(context.Background(), nil, AssignConfig{K: 4}); len(got) != 0 {
		t.Fatalf("nil assign batch returned %d results", len(got))
	}
}

// TestCompileBatchSharedCache checks a shared cache carries hits across
// items: compiling the same source N times must hit the whole-assignment
// memo N-1 times.
func TestCompileBatchSharedCache(t *testing.T) {
	src := batchSources()[0]
	srcs := []string{src, src, src, src}
	store := memStore(t)
	results := CompileBatch(context.Background(), srcs, Options{Modules: 8, Workers: 1, Store: store})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	st := store.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits across identical batch items: %+v", st)
	}
	if ls, ok := st.Levels["assign"]; !ok || ls.Hits < int64(len(srcs)-1) {
		t.Fatalf("whole-assignment memo level missing hits: %+v", st.Levels)
	}
}

func TestBatchWorkers(t *testing.T) {
	cases := []struct{ req, n, min, max int }{
		{0, 8, 1, 8},  // GOMAXPROCS, clamped to n
		{3, 8, 3, 3},  // explicit
		{-1, 8, 1, 1}, // negative forces sequential
		{16, 4, 4, 4}, // clamped to item count
	}
	for _, c := range cases {
		got := batchWorkers(c.req, c.n)
		if got < c.min || got > c.max {
			t.Errorf("batchWorkers(%d, %d) = %d, want in [%d, %d]", c.req, c.n, got, c.min, c.max)
		}
	}
}
