package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// meta is the machine and input identity recorded with every result.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
}

// printMeta prints the "meta" line that precedes every result. The commit
// comes from PARMEMBENCH_COMMIT (run.sh fills it from git when the tree is
// a repository); the source hash identifies the code in checkouts without
// git metadata.
func printMeta(cfg config) {
	commit := os.Getenv("PARMEMBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	m := meta{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, SourceHash: sourceHash("."),
	}
	b, _ := json.Marshal(m) // a struct of strings and numbers always marshals
	fmt.Printf("meta %s\n", b)
}

// sourceHash hashes every Go source and go.mod file under root (sorted by
// path, build and hidden directories skipped), so two results can be told
// apart by the code they measured.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
