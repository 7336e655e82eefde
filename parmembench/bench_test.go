package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"parmem"
	"parmem/internal/benchprog"
)

// generated renders every input a workload generates for seed as JSON.
func generated(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	var v any
	switch workload {
	case "paper-suite":
		in := paperSuiteInputs(seed)
		streams := []stream{{Name: "clusters", Instrs: benchprog.ClusterInstrs(4, 14, 6), K: 6}}
		v = []any{in, suiteEditSets(seed, streams, suiteEdits)}
	case "engine-large":
		v = engineLargeInputs(seed, engineChainLen)
	case "fleet-mix":
		suite, err := suiteStreams(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var ops []fleetOp
		var sessions []editSet
		for c := 0; c < fleetClients; c++ {
			sessions = append(sessions, fleetSession(seed, c, fleetEdits))
			g := newFleetOps(seed, c, fleetEdits)
			for i := 0; i < 200; i++ {
				ops = append(ops, g.next())
			}
		}
		v = []any{fleetHotPool(seed, suite), sessions, ops}
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadInputsDeterministic(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := generated(t, name, 42), generated(t, name, 42)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed generated different inputs")
			}
			if bytes.Equal(a, generated(t, name, 43)) {
				t.Fatal("a different seed generated identical inputs")
			}
		})
	}
}

func TestCheckerAcceptsAndRejects(t *testing.T) {
	// A triangle on two modules: one value must live on both.
	tri := [][]int{{1, 2}, {2, 3}, {1, 3}}
	good := map[int][]int{1: {0}, 2: {1}, 3: {0, 1}}
	if bad := checkCopies(tri, good, 2); len(bad) != 0 {
		t.Fatalf("valid allocation rejected at instructions %v", bad)
	}
	dropped := map[int][]int{1: {0}, 2: {1}, 3: {0}}
	if bad := checkCopies(tri, dropped, 2); len(bad) == 0 {
		t.Fatal("allocation with a needed copy dropped was accepted")
	}
	missing := map[int][]int{1: {0}, 2: {1}}
	if bad := checkCopies(tri, missing, 2); len(bad) != 2 {
		t.Fatalf("value without copies: got bad instructions %v, want the two reading it", bad)
	}
	outside := map[int][]int{1: {0}, 2: {1}, 3: {2}}
	if bad := checkCopies(tri, outside, 2); len(bad) == 0 {
		t.Fatal("copy on a module outside 0..k-1 was accepted")
	}
}

// TestCheckerOnEngineAllocation runs the checker on real allocations: it
// accepts the engine's result, and dropping one copy of a replicated value
// breaks at least one instruction.
func TestCheckerOnEngineAllocation(t *testing.T) {
	s := stream{Instrs: benchprog.ClusterInstrs(2, 14, 6), K: 6, Backtrack: true}
	al, err := parmem.AssignValues(context.Background(), toInstrs(s.Instrs), engineConfig(s, nil))
	if err != nil {
		t.Fatal(err)
	}
	copies := copyMap(al.Copies)
	if err := checkResult("clusters", s.Instrs, copies, s.K); err != nil {
		t.Fatal(err)
	}
	rejected := false
	for v, mods := range copies {
		if len(mods) < 2 {
			continue
		}
		for i := range mods {
			corrupt := make(map[int][]int, len(copies))
			for w, m := range copies {
				corrupt[w] = m
			}
			corrupt[v] = append(append([]int(nil), mods[:i]...), mods[i+1:]...)
			if len(checkCopies(s.Instrs, corrupt, s.K)) > 0 {
				rejected = true
			}
		}
	}
	if al.MultiCopy == 0 {
		t.Fatal("workload replicated nothing; the corruption test needs a replicated value")
	}
	if !rejected {
		t.Fatal("no single dropped copy was rejected")
	}
}
