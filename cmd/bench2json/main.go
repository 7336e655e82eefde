// Command bench2json converts `go test -bench` text output into JSON so the
// benchmark numbers can be archived and diffed across commits without any
// third-party tooling.
//
// It reads the benchmark output on stdin and writes a JSON document to
// stdout (or -o file): one record per benchmark with the iteration count
// and every reported metric (ns/op, B/op, allocs/op and any custom
// testing.B ReportMetric units) keyed by unit. The document also records
// where the numbers come from: the core count, GOMAXPROCS, Go version and
// git commit of the run.
//
//	go test -bench . -benchmem ./... | bench2json -o BENCH.json
//
// With -baseline FILE it additionally diffs the run against a previously
// archived document and exits nonzero when the allocation profile
// regressed: a benchmark's allocs/op more than 10% (plus a grace of 2
// allocations for tiny counts) above its baseline value, or a baseline
// benchmark missing from the run entirely, is a failure. Benchmarks new in
// this run only warn — they become binding once the baseline is
// regenerated. Only allocs/op is gated: it is deterministic for this
// repo's single-goroutine benchmark bodies, while ns/op varies with the
// machine. The -o document is written before the diff verdict, so a
// failing gate still leaves the fresh numbers on disk for inspection.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Record is one benchmark result line.
type Record struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Output is the whole document.
type Output struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	// Cores, GOMAXPROCS, GoVersion and Commit record the machine, the
	// toolchain and the code the numbers were measured on.
	Cores      int      `json:"cores,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	Commit     string   `json:"commit,omitempty"`
	Pkg        []string `json:"packages,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	baseline := flag.String("baseline", "", "diff allocs/op against this archived JSON; exit nonzero on regression")
	flag.Parse()

	var doc Output
	skipped := 0
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = append(doc.Pkg, strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		rec, ok := parseLine(line)
		if !ok {
			// A Benchmark-prefixed line that does not parse is usually a
			// truncated or interleaved result; dropping it silently would
			// shrink the gated set without anyone noticing.
			skipped++
			continue
		}
		doc.Benchmarks = append(doc.Benchmarks, rec)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "bench2json: warning: skipped %d unparseable benchmark line(s)\n", skipped)
	}
	annotateScaling(&doc)
	annotateIncremental(&doc)
	doc.Cores, doc.GoVersion, doc.Commit = runtime.NumCPU(), runtime.Version(), gitCommit()
	doc.GOMAXPROCS = gomaxprocs(doc.Benchmarks)

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}

	if *baseline != "" {
		if !diffBaseline(*baseline, doc) {
			os.Exit(1)
		}
	}
}

// gitCommit names the checked-out commit, suffixed "-dirty" when the
// working tree has uncommitted changes, or "unknown" outside a git tree.
func gitCommit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// gomaxprocs reads the GOMAXPROCS the benchmarks ran under from the -P
// suffix the testing package appends to their names (it appends none at
// 1). It returns 0 when the document holds no benchmark.
func gomaxprocs(recs []Record) int {
	if len(recs) == 0 {
		return 0
	}
	name := recs[0].Name
	if key := benchKey(name); key != name {
		p, _ := strconv.Atoi(name[len(key)+1:])
		return p
	}
	return 1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench2json:", err)
	os.Exit(1)
}

// benchKey normalizes a benchmark name for cross-machine comparison by
// stripping the trailing -P GOMAXPROCS suffix the testing package appends.
func benchKey(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// splitWorkers recognizes scaling-benchmark names of the form
// <prefix>/workers=<N> and returns the prefix and pool width.
func splitWorkers(name string) (prefix string, workers int, ok bool) {
	const tag = "/workers="
	i := strings.LastIndex(name, tag)
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(name[i+len(tag):])
	if err != nil || n < 1 {
		return "", 0, false
	}
	return name[:i], n, true
}

// annotateScaling derives the speedup/efficiency curve for scaling
// benchmarks: every record named <prefix>/workers=N with a workers=1
// sibling in the same document gains speedup = ns/op(workers=1) / ns/op
// and efficiency = speedup / N. The derived metrics are archival only —
// the diff gate reads allocs/op exclusively — so curves measured on
// different machines never fail a build, they just document what was
// measured (the benchmarks report the core count alongside).
func annotateScaling(doc *Output) {
	base := make(map[string]float64)
	for _, rec := range doc.Benchmarks {
		if prefix, n, ok := splitWorkers(benchKey(rec.Name)); ok && n == 1 {
			if ns, ok := rec.Metrics["ns/op"]; ok && ns > 0 {
				base[prefix] = ns
			}
		}
	}
	for i := range doc.Benchmarks {
		rec := &doc.Benchmarks[i]
		prefix, n, ok := splitWorkers(benchKey(rec.Name))
		if !ok {
			continue
		}
		ns := rec.Metrics["ns/op"]
		ns1, haveBase := base[prefix]
		if !haveBase {
			// Emit the row as measured, but say why its curve is missing:
			// a silently absent derivation reads as "never measured" when
			// the real cause is a workers=1 sibling lost from the run.
			if n != 1 {
				fmt.Fprintf(os.Stderr, "bench2json: warning: %s has no workers=1 sibling; speedup/efficiency not derived\n", benchKey(rec.Name))
			}
			continue
		}
		if ns <= 0 {
			continue
		}
		speedup := ns1 / ns
		rec.Metrics["speedup"] = speedup
		rec.Metrics["efficiency"] = speedup / float64(n)
	}
}

// splitDelta recognizes incremental-benchmark names of the form
// <prefix>/delta=<N> and returns the prefix and delta size.
func splitDelta(name string) (prefix string, delta int, ok bool) {
	const tag = "/delta="
	i := strings.LastIndex(name, tag)
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(name[i+len(tag):])
	if err != nil || n < 1 {
		return "", 0, false
	}
	return name[:i], n, true
}

// annotateIncremental derives the incremental-recompilation speedup: every
// record named <prefix>/delta=N with a <prefix>/full sibling (the cold
// full-recompile of the same workload) gains incr_speedup =
// ns/op(full) / ns/op. Like the scaling curve, the derived metric is
// archival only — the diff gate never reads it.
func annotateIncremental(doc *Output) {
	full := make(map[string]float64)
	for _, rec := range doc.Benchmarks {
		if key := benchKey(rec.Name); strings.HasSuffix(key, "/full") {
			if ns, ok := rec.Metrics["ns/op"]; ok && ns > 0 {
				full[strings.TrimSuffix(key, "/full")] = ns
			}
		}
	}
	for i := range doc.Benchmarks {
		rec := &doc.Benchmarks[i]
		prefix, _, ok := splitDelta(benchKey(rec.Name))
		if !ok {
			continue
		}
		nsFull, haveFull := full[prefix]
		if !haveFull {
			fmt.Fprintf(os.Stderr, "bench2json: warning: %s has no /full sibling; incr_speedup not derived\n", benchKey(rec.Name))
			continue
		}
		if ns := rec.Metrics["ns/op"]; ns > 0 {
			rec.Metrics["incr_speedup"] = nsFull / ns
		}
	}
}

// diffBaseline compares the run's allocs/op against the archived baseline
// and reports whether the gate passes. The tolerance is relative 10% plus
// an absolute grace of 2 allocs/op, so single-digit counts do not fail on
// one stray allocation.
func diffBaseline(path string, doc Output) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var base Output
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing baseline %s: %w", path, err))
	}

	got := make(map[string]Record, len(doc.Benchmarks))
	for _, rec := range doc.Benchmarks {
		got[benchKey(rec.Name)] = rec
	}
	seen := make(map[string]bool, len(base.Benchmarks))

	pass := true
	for _, old := range base.Benchmarks {
		key := benchKey(old.Name)
		seen[key] = true
		oldAllocs, tracked := old.Metrics["allocs/op"]
		rec, ok := got[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench2json: FAIL %s: in baseline but missing from this run\n", key)
			pass = false
			continue
		}
		if !tracked {
			continue
		}
		newAllocs, ok := rec.Metrics["allocs/op"]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench2json: FAIL %s: baseline tracks allocs/op but the run reports none (run with -benchmem)\n", key)
			pass = false
			continue
		}
		if limit := oldAllocs*1.10 + 2.0; newAllocs > limit {
			fmt.Fprintf(os.Stderr, "bench2json: FAIL %s: allocs/op %.1f exceeds baseline %.1f (limit %.1f)\n",
				key, newAllocs, oldAllocs, limit)
			pass = false
		}
	}
	for _, rec := range doc.Benchmarks {
		if key := benchKey(rec.Name); !seen[key] {
			fmt.Fprintf(os.Stderr, "bench2json: note: %s not in baseline %s; regenerate it to start gating\n", key, path)
		}
	}
	if pass {
		fmt.Fprintf(os.Stderr, "bench2json: allocs/op within tolerance of %s (%d benchmarks)\n", path, len(base.Benchmarks))
	}
	return pass
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   10 allocs/op
//
// Metric values and units come in pairs after the iteration count.
func parseLine(line string) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Record{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	rec := Record{Name: fields[0], Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		rec.Metrics[fields[i+1]] = v
	}
	return rec, true
}
