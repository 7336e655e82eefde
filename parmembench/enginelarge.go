package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"parmem"
	"parmem/internal/assign"
)

// engine-large: one closed-loop caller, in process, Workers=2, no cache.
// Each pass cold-assigns (AssignValuesIncremental) seeded relabelings of
// the scaling-corpus shapes in engineShapes, timed as latency_*, then
// advances a seeded chain of one-instruction edits (AssignValuesDelta) on
// each shape, timed as delta_*. One edit in ten bridges two components. A
// chain restarts from its cold base when it runs out.

const (
	engineWorkers  = 2
	engineChainLen = 10 // edits per chain before it restarts: nine local, one bridge
	engineSamples  = 3  // edits per chain compared bit for bit with a cold assign
)

func engineConfig(s stream, rec *parmem.Recorder) parmem.AssignConfig {
	cfg := parmem.AssignConfig{K: s.K, Workers: engineWorkers, Telemetry: rec}
	if s.Backtrack {
		cfg.Method = parmem.Backtrack
	}
	return cfg
}

// editChain is the live state of one chained edit run.
type editChain struct {
	set  editSet
	base *parmem.AssignResult
	cur  *parmem.AssignResult
	rows [][]int // the stream cur was assigned from
	pos  int     // next edit
	// sample marks the edit positions whose first results are compared
	// with a cold assign after the measured loop.
	sample map[int]bool
}

// sampled is one delta result kept for the bit-for-bit comparison.
type sampled struct {
	name string
	s    stream
	rows [][]int
	al   parmem.Allocation
}

type engineState struct {
	in                    engineInputs
	shapes                []engineShape
	chains                []*editChain
	copies, cycles, wrong int64
	samples               []sampled
}

// setupEngine generates the inputs and runs one full pass untimed — every
// cold stream, every whole edit chain — checking each result. That pass
// gives copies_total and sim_cycles and warms the scratch arenas.
func setupEngine(ctx context.Context, seed int64) (*engineState, error) {
	s := &engineState{in: engineLargeInputs(seed, engineChainLen), shapes: engineShapes()}
	for _, pool := range s.in.Cold {
		for _, c := range pool {
			res, err := parmem.AssignValuesIncremental(ctx, toInstrs(c.Instrs), engineConfig(c, nil))
			if err != nil {
				return nil, fmt.Errorf("assign %s: %w", c.Name, err)
			}
			s.account(c.Name, c, c.Instrs, res.Alloc)
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0xc0ffee))
	for _, es := range s.in.Edits {
		base, err := parmem.AssignValuesIncremental(ctx, toInstrs(es.Base.Instrs), engineConfig(es.Base, nil))
		if err != nil {
			return nil, fmt.Errorf("assign %s: %w", es.Base.Name, err)
		}
		s.account(es.Base.Name, es.Base, es.Base.Instrs, base.Alloc)
		ch := &editChain{set: es, base: base, cur: base, rows: es.Base.Instrs, sample: map[int]bool{}}
		for len(ch.sample) < engineSamples {
			ch.sample[r.Intn(len(es.Edits))] = true
		}
		for range es.Edits {
			res, rows, err := ch.step(ctx, nil)
			if err != nil {
				return nil, err
			}
			s.account(es.Base.Name+" delta", es.Base, rows, res.Alloc)
		}
		ch.restart()
		s.chains = append(s.chains, ch)
	}
	return s, nil
}

// account checks one allocation and adds it to the pass figures.
func (s *engineState) account(what string, st stream, rows [][]int, al parmem.Allocation) {
	copies := copyMap(al.Copies)
	if err := checkResult(what, rows, copies, st.K); err != nil {
		s.wrong++
		fmt.Printf("WRONG %v\n", err)
	}
	s.copies += int64(al.TotalCopies)
	s.cycles += streamCycles(rows, copies, st.K)
}

// step applies the chain's next edit to its current result.
func (ch *editChain) step(ctx context.Context, rec *parmem.Recorder) (*parmem.AssignResult, [][]int, error) {
	e := ch.set.Edits[ch.pos]
	res, err := parmem.AssignValuesDelta(ctx, ch.cur, oneEdit(e), engineConfig(ch.set.Base, rec))
	if err != nil {
		return nil, nil, fmt.Errorf("delta %s #%d: %w", ch.set.Base.Name, ch.pos, err)
	}
	ch.cur, ch.rows = res, applyEdit(ch.rows, e)
	ch.pos++
	return res, ch.rows, nil
}

// restart rewinds the chain to its cold base.
func (ch *editChain) restart() {
	ch.cur, ch.rows, ch.pos = ch.base, ch.set.Base.Instrs, 0
}

// enginePass runs one pass and returns the time spent checking outputs.
func enginePass(ctx context.Context, s *engineState, t *tally, pass int, rec *parmem.Recorder) time.Duration {
	var check time.Duration
	var cold []stream
	for i, sh := range s.shapes {
		for j := 0; j < sh.coldPerPass; j++ {
			pool := s.in.Cold[i]
			cold = append(cold, pool[(pass*sh.coldPerPass+j)%len(pool)])
		}
	}
	for _, c := range cold {
		t.attempted++
		t0 := time.Now()
		res, err := parmem.AssignValuesIncremental(ctx, toInstrs(c.Instrs), engineConfig(c, rec))
		d := time.Since(t0)
		if err != nil {
			t.fail(c.Name, err)
			continue
		}
		t.addLat(d)
		c0 := time.Now()
		if err := checkResult(c.Name, c.Instrs, copyMap(res.Alloc.Copies), c.K); err != nil {
			t.bad(err)
		}
		check += time.Since(c0)
	}
	for ci, ch := range s.chains {
		for i := 0; i < s.shapes[ci].editsPerPass; i++ {
			if ch.pos == len(ch.set.Edits) {
				ch.restart()
			}
			pos := ch.pos
			t.attempted++
			t0 := time.Now()
			res, rows, err := ch.step(ctx, rec)
			d := time.Since(t0)
			if err != nil {
				t.fail(ch.set.Base.Name, err)
				ch.restart()
				continue
			}
			t.addDelta(d)
			c0 := time.Now()
			if err := checkResult(ch.set.Base.Name+" delta", rows, copyMap(res.Alloc.Copies), ch.set.Base.K); err != nil {
				t.bad(err)
			}
			if ch.sample[pos] {
				delete(ch.sample, pos)
				s.samples = append(s.samples, sampled{ch.set.Base.Name, ch.set.Base, rows, res.Alloc})
			}
			check += time.Since(c0)
		}
	}
	return check
}

// compareSamples assigns each sampled edited stream cold and requires the
// delta result to match it bit for bit (phase timings excepted).
func compareSamples(ctx context.Context, s *engineState, t *tally) error {
	for _, sm := range s.samples {
		cold, err := parmem.AssignValues(ctx, toInstrs(sm.rows), engineConfig(sm.s, nil))
		if err != nil {
			return fmt.Errorf("cold assign of sampled %s edit: %w", sm.name, err)
		}
		if !sameAllocation(cold, sm.al) {
			t.bad(fmt.Errorf("%s: delta result differs from a cold assign of the edited stream", sm.name))
		}
	}
	fmt.Printf("bit-identity samples compared: %d\n", len(s.samples))
	return nil
}

// sameAllocation compares two allocations field by field, ignoring the
// per-phase reports (their timings and budget charges differ by design).
func sameAllocation(a, b parmem.Allocation) bool {
	if len(a.Copies) != len(b.Copies) {
		return false
	}
	for v, set := range a.Copies {
		if bs, ok := b.Copies[v]; !ok || bs != set {
			return false
		}
	}
	return slices.Equal(a.Unassigned, b.Unassigned) && slices.Equal(a.Forced, b.Forced) &&
		a.SingleCopy == b.SingleCopy && a.MultiCopy == b.MultiCopy && a.TotalCopies == b.TotalCopies &&
		a.Atoms == b.Atoms && a.Degraded == b.Degraded
}

func runEngineLarge(cfg config) (*result, error) {
	ctx := context.Background()
	var t tally
	s, err := timeSetup(&t, func() (*engineState, error) { return setupEngine(ctx, cfg.seed) }, func(*engineState) {})
	if err != nil {
		return nil, err
	}
	t.wrong += s.wrong
	t.copies, t.cycles = s.copies, s.cycles
	if !cfg.trace {
		t.startClock()
		t.elapsed = measure(&t, cfg.seconds, true, func(i int) time.Duration { return enginePass(ctx, s, &t, i, nil) })
		if err := compareSamples(ctx, s, &t); err != nil {
			return nil, err
		}
		return t.endToEnd(), nil
	}

	l := newLayers()
	untraced := tracedPair(l, &t, cfg.seconds, func(i int, rec *parmem.Recorder) time.Duration {
		return enginePass(ctx, s, &t, i, rec)
	})
	if err := compareSamples(ctx, s, &t); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(0.2 * cfg.seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, c := range slices.Concat(s.in.Cold...) {
			instrs := toInstrs(c.Instrs)
			engineLayers(l, instrs, engineWorkers, round == 0)
			rec, ring := tracer()
			res, err := parmem.AssignValuesIncremental(ctx, instrs, engineConfig(c, rec))
			if err != nil {
				return nil, err
			}
			l.spanTimes(ring)
			t0 := time.Now()
			bad := assign.Verify(assign.Program{Instrs: instrs}, res.Alloc)
			l.since("assign.verify_ms", t0)
			if bad != nil {
				return nil, fmt.Errorf("%s: verify reports conflicts %v", c.Name, bad)
			}
			if round == 0 {
				allocCounts(l, res.Alloc)
			}
		}
		for _, ch := range s.chains {
			ch.restart()
			for range ch.set.Edits {
				rec, ring := tracer()
				res, _, err := ch.step(ctx, rec)
				if err != nil {
					return nil, err
				}
				l.spanTimes(ring)
				if round == 0 {
					incrCounts(l, res.Incremental)
				}
			}
		}
	}
	// The incremental engine's incr_color span covers the decomposition
	// too, so atoms.decompose_ms is left out of the sum.
	l.reconcile("engine-large cold assign", []string{"conflict.build_ms", "graph.dense_build_ms",
		"coloring.ms", "duplication.ms", "assign.verify_ms"}, untraced)
	return l.result(&t), nil
}
