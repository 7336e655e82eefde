// Command parmembench is the repository's end-to-end benchmark: one
// command that generates a workload from a seed, drives the system
// through its public entry points (the parmem package in process, or a
// parmemd fleet behind parmemgw over TCP), checks every output with its
// own independent checker, and prints every metric by name with its unit.
//
//	parmembench --workload paper-suite|engine-large|fleet-mix \
//	    --seed N --seconds S --trace 0|1 [--bin DIR] [--work DIR]
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 a separate, traced run of the same inputs carries the
// per-layer breakdown. README.md records why each workload exists and
// which layer is predicted to move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	binDir   string // holds the parmemd and parmemgw binaries (fleet-mix)
	workDir  string // scratch space for daemon cache directories and traces
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"paper-suite":  runPaperSuite,
	"engine-large": runEngineLarge,
	"fleet-mix":    runFleetMix,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "paper-suite, engine-large or fleet-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer breakdown")
	flag.StringVar(&cfg.binDir, "bin", ".bench_build/bin", "directory holding parmemd and parmemgw")
	flag.StringVar(&cfg.workDir, "work", ".bench_build/work", "scratch directory for daemon state")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || flag.NArg() != 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "parmembench: usage: --workload paper-suite|engine-large|fleet-mix --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	printMeta(cfg)
	start := time.Now()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parmembench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Printf("wall_s %.3f\n", time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parmembench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
