package main

import (
	"math"
	"testing"
)

func TestSplitWorkers(t *testing.T) {
	cases := []struct {
		name   string
		prefix string
		n      int
		ok     bool
	}{
		{"BenchmarkAssignScaling/clusters/workers=4", "BenchmarkAssignScaling/clusters", 4, true},
		{"BenchmarkAssignScaling/suite/workers=1", "BenchmarkAssignScaling/suite", 1, true},
		{"BenchmarkAssignSteadyState/steady", "", 0, false},
		{"BenchmarkX/workers=0", "", 0, false},
		{"BenchmarkX/workers=abc", "", 0, false},
	}
	for _, c := range cases {
		prefix, n, ok := splitWorkers(c.name)
		if prefix != c.prefix || n != c.n || ok != c.ok {
			t.Errorf("splitWorkers(%q) = (%q, %d, %v), want (%q, %d, %v)",
				c.name, prefix, n, ok, c.prefix, c.n, c.ok)
		}
	}
}

func TestAnnotateScaling(t *testing.T) {
	rec := func(name string, ns float64) Record {
		return Record{Name: name, Runs: 1, Metrics: map[string]float64{"ns/op": ns}}
	}
	doc := Output{Benchmarks: []Record{
		rec("BenchmarkAssignScaling/clusters/workers=1-8", 100),
		rec("BenchmarkAssignScaling/clusters/workers=2-8", 50),
		rec("BenchmarkAssignScaling/clusters/workers=4-8", 40),
		rec("BenchmarkAssignScaling/lonely/workers=2-8", 70), // no workers=1 sibling
		rec("BenchmarkAssignSteadyState/steady-8", 10),       // not a scaling row
	}}
	annotateScaling(&doc)

	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	checks := []struct {
		i                   int
		speedup, efficiency float64
	}{
		{0, 1.0, 1.0},
		{1, 2.0, 1.0},
		{2, 2.5, 0.625},
	}
	for _, c := range checks {
		m := doc.Benchmarks[c.i].Metrics
		if !approx(m["speedup"], c.speedup) || !approx(m["efficiency"], c.efficiency) {
			t.Errorf("%s: speedup=%v efficiency=%v, want %v / %v",
				doc.Benchmarks[c.i].Name, m["speedup"], m["efficiency"], c.speedup, c.efficiency)
		}
	}
	for _, i := range []int{3, 4} {
		m := doc.Benchmarks[i].Metrics
		if _, ok := m["speedup"]; ok {
			t.Errorf("%s: unexpectedly annotated with a speedup", doc.Benchmarks[i].Name)
		}
	}
}

func TestAnnotateIncremental(t *testing.T) {
	rec := func(name string, ns float64) Record {
		return Record{Name: name, Runs: 1, Metrics: map[string]float64{"ns/op": ns}}
	}
	doc := Output{Benchmarks: []Record{
		rec("BenchmarkAssignIncremental/chains/full-8", 1000),
		rec("BenchmarkAssignIncremental/chains/delta=1-8", 100),
		rec("BenchmarkAssignIncremental/chains/delta=25-8", 500),
		rec("BenchmarkAssignIncremental/orphan/delta=1-8", 50), // no /full sibling
		rec("BenchmarkAssignSteadyState/steady-8", 10),
	}}
	annotateIncremental(&doc)

	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if s := doc.Benchmarks[1].Metrics["incr_speedup"]; !approx(s, 10.0) {
		t.Errorf("delta=1 incr_speedup = %v, want 10", s)
	}
	if s := doc.Benchmarks[2].Metrics["incr_speedup"]; !approx(s, 2.0) {
		t.Errorf("delta=25 incr_speedup = %v, want 2", s)
	}
	for _, i := range []int{0, 3, 4} {
		if _, ok := doc.Benchmarks[i].Metrics["incr_speedup"]; ok {
			t.Errorf("%s: unexpectedly annotated", doc.Benchmarks[i].Name)
		}
	}
}

func TestGomaxprocs(t *testing.T) {
	rec := func(name string) []Record { return []Record{{Name: name}} }
	cases := []struct {
		recs []Record
		want int
	}{
		{rec("BenchmarkAssignScaling/chains/workers=2-8"), 8},
		{rec("BenchmarkDenseVsMap/dense-2"), 2},
		{rec("BenchmarkDenseVsMap/dense"), 1},
		{nil, 0},
	}
	for _, c := range cases {
		if got := gomaxprocs(c.recs); got != c.want {
			t.Errorf("gomaxprocs(%v) = %d, want %d", c.recs, got, c.want)
		}
	}
}
