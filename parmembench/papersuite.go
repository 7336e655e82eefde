package main

import (
	"context"
	"fmt"
	"time"

	"parmem"
	"parmem/internal/assign"
	"parmem/internal/dfa"
	"parmem/internal/lang"
	"parmem/internal/sched"
)

// paper-suite: one closed-loop caller compiling the six paper programs and
// three seeded Synthetic programs under STOR1, STOR2 and STOR3 at k=8, with
// no cache and Workers=1. One operation is one CompileCtx. Each compiled
// program is simulated once per set-up (untimed: the simulator costs far
// more than a compile) and must pass its semantic check with no scalar
// conflicts. The contract asks every workload for delta_* too, so each pass
// also applies two seeded single-instruction edits per STOR1 suite stream
// with AssignValuesDelta, each forked from the compiled stream.

const (
	suiteK     = 8
	suiteEdits = 8 // forked edits per STOR1 stream
)

type suiteState struct {
	inputs []compileInput
	edits  []editSet
	bases  []*parmem.AssignResult
	// Figures of the set-up pass: one compile and one simulation per input.
	copies, cycles, stalls, wrong int64
	runMS                         []float64
}

func suiteOptions(st parmem.Strategy, rec *parmem.Recorder) parmem.Options {
	return parmem.Options{Modules: suiteK, Strategy: st, Workers: 1, Telemetry: rec}
}

func suiteAssignConfig() parmem.AssignConfig {
	return parmem.AssignConfig{K: suiteK, Workers: 1}
}

// setupSuite generates the inputs, compiles and simulates every one of
// them once (checking each result), and prepares the edit bases.
func setupSuite(ctx context.Context, seed int64) (*suiteState, error) {
	s := &suiteState{inputs: paperSuiteInputs(seed)}
	var streams []stream
	for _, in := range s.inputs {
		p, err := parmem.CompileCtx(ctx, in.Src, suiteOptions(in.Strategy, nil))
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", in.Name, err)
		}
		rows := instrRows(p.Instructions())
		if err := checkResult(in.Name, rows, copyMap(p.Alloc.Copies), suiteK); err != nil {
			s.wrong++
			fmt.Printf("WRONG %v\n", err)
		}
		t0 := time.Now()
		res, err := p.RunCtx(ctx, parmem.RunOptions{})
		s.runMS = append(s.runMS, ms(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("simulate %s: %w", in.Name, err)
		}
		if res.ScalarConflicts != 0 {
			s.wrong++
			fmt.Printf("WRONG %s: %d scalar conflicts in simulation\n", in.Name, res.ScalarConflicts)
		}
		if in.Check != nil {
			if err := in.Check(res); err != nil {
				s.wrong++
				fmt.Printf("WRONG %s: %v\n", in.Name, err)
			}
		}
		s.copies += int64(p.Alloc.TotalCopies)
		s.cycles += res.Cycles
		s.stalls += res.Stalls
		if in.Strategy == parmem.STOR1 && len(rows) > 0 {
			streams = append(streams, stream{Name: in.Name, Instrs: rows, K: suiteK})
		}
	}
	s.edits = suiteEditSets(seed, streams, suiteEdits)
	for _, es := range s.edits {
		base, err := parmem.AssignValuesIncremental(ctx, toInstrs(es.Base.Instrs), suiteAssignConfig())
		if err != nil {
			return nil, fmt.Errorf("hold %s: %w", es.Base.Name, err)
		}
		s.bases = append(s.bases, base)
	}
	return s, nil
}

// suitePass runs one pass: every compile, then two edits per stream. It
// returns the time spent checking outputs, which is not the system's.
func suitePass(ctx context.Context, s *suiteState, t *tally, pass int, rec *parmem.Recorder) time.Duration {
	var check time.Duration
	for _, in := range s.inputs {
		t.attempted++
		t0 := time.Now()
		p, err := parmem.CompileCtx(ctx, in.Src, suiteOptions(in.Strategy, rec))
		d := time.Since(t0)
		if err != nil {
			t.fail(in.Name, err)
			continue
		}
		t.addLat(d)
		c0 := time.Now()
		if err := checkResult(in.Name, instrRows(p.Instructions()), copyMap(p.Alloc.Copies), suiteK); err != nil {
			t.bad(err)
		}
		check += time.Since(c0)
	}
	cfg := suiteAssignConfig()
	cfg.Telemetry = rec
	for j := 0; j < 2*len(s.edits); j++ {
		i, es := j%len(s.edits), s.edits[j%len(s.edits)]
		e := es.Edits[(2*pass+j/len(s.edits))%len(es.Edits)]
		t.attempted++
		t0 := time.Now()
		res, err := parmem.AssignValuesDelta(ctx, s.bases[i], oneEdit(e), cfg)
		d := time.Since(t0)
		if err != nil {
			t.fail(es.Base.Name+" delta", err)
			continue
		}
		t.addDelta(d)
		c0 := time.Now()
		if err := checkResult(es.Base.Name+" delta", applyEdit(es.Base.Instrs, e), copyMap(res.Alloc.Copies), suiteK); err != nil {
			t.bad(err)
		}
		check += time.Since(c0)
	}
	return check
}

func runPaperSuite(cfg config) (*result, error) {
	ctx := context.Background()
	var t tally
	s, err := timeSetup(&t, func() (*suiteState, error) { return setupSuite(ctx, cfg.seed) }, func(*suiteState) {})
	if err != nil {
		return nil, err
	}
	t.wrong += s.wrong
	t.copies, t.cycles = s.copies, s.cycles
	if !cfg.trace {
		t.startClock()
		t.elapsed = measure(&t, cfg.seconds, true, func(i int) time.Duration { return suitePass(ctx, s, &t, i, nil) })
		return t.endToEnd(), nil
	}

	l := newLayers()
	untraced := tracedPair(l, &t, cfg.seconds, func(i int, rec *parmem.Recorder) time.Duration {
		return suitePass(ctx, s, &t, i, rec)
	})
	l.set("machine.run_ms", median(s.runMS))
	l.set("machine.stall_cycles", float64(s.stalls))
	deadline := time.Now().Add(time.Duration(0.2 * cfg.seconds * float64(time.Second)))
	for round := 0; round == 0 || round < 3 || time.Now().Before(deadline); round++ {
		for _, in := range s.inputs {
			if err := suiteLayers(ctx, l, in, round == 0); err != nil {
				return nil, err
			}
		}
		for i, es := range s.edits {
			rec, ring := tracer()
			cfg := suiteAssignConfig()
			cfg.Telemetry = rec
			res, err := parmem.AssignValuesDelta(ctx, s.bases[i], oneEdit(es.Edits[round%len(es.Edits)]), cfg)
			if err != nil {
				return nil, err
			}
			l.spanTimes(ring)
			if round == 0 {
				incrCounts(l, res.Incremental)
			}
		}
	}
	l.reconcile("paper-suite compile", []string{"lang.parse_ms", "lang.lower_ms", "dfa.rename_ms", "sched.ms",
		"conflict.build_ms", "graph.dense_build_ms", "atoms.decompose_ms", "coloring.ms", "duplication.ms",
		"assign.verify_ms"}, untraced)
	return l.result(&t), nil
}

// suiteLayers times each front-end and engine layer on one compile input.
// counts selects the pass that accumulates the per-pass counts.
func suiteLayers(ctx context.Context, l *layers, in compileInput, counts bool) error {
	t0 := time.Now()
	ast, err := lang.Parse(in.Src)
	l.since("lang.parse_ms", t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	f, err := lang.Lower(ast)
	l.since("lang.lower_ms", t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, webs, err := dfa.Rename(f)
	l.since("dfa.rename_ms", t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	sp, err := sched.Schedule(f, sched.Config{Modules: suiteK, Units: suiteK})
	l.since("sched.ms", t0)
	if err != nil {
		return err
	}
	engineLayers(l, sp.Instructions(), 1, counts)

	rec, ring := tracer()
	p, err := parmem.CompileCtx(ctx, in.Src, suiteOptions(in.Strategy, rec))
	if err != nil {
		return err
	}
	l.spanTimes(ring)
	aprog := assign.Program{Instrs: p.Instructions(), RegionOf: p.Sched.RegionOf,
		Global: dfa.GlobalValues(p.Func, dfa.BuildCFG(p.Func).FindRegions())}
	t0 = time.Now()
	bad := assign.Verify(aprog, p.Alloc)
	l.since("assign.verify_ms", t0)
	if bad != nil {
		return fmt.Errorf("%s: verify reports conflicts %v", in.Name, bad)
	}
	if counts {
		l.add("dfa.webs", float64(webs))
		l.add("sched.words", float64(len(sp.Words)))
		allocCounts(l, p.Alloc)
	}
	return nil
}
