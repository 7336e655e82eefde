package gateway

import (
	"math/rand"
	"testing"

	"parmem"
	"parmem/internal/alloccache"
	"parmem/internal/benchprog"
	"parmem/internal/conflict"
	"parmem/internal/server"
)

// TestAssignKeyHashesSnapshot pins the assign routing key to the one the
// gateway computed from the map conflict graph: hashing the snapshot
// conflict.Snapshot builds must hash the same bytes, so ring placement and
// cache affinity do not move. The streams are the paper programs and
// seeded Synthetic programs compiled at k=4 and 8, the chain and cluster
// workload families, and seeded random streams.
func TestAssignKeyHashesSnapshot(t *testing.T) {
	var streams [][][]int
	srcs := []string{benchprog.Synthetic(3), benchprog.Synthetic(12)}
	for _, s := range benchprog.All() {
		srcs = append(srcs, s.Source)
	}
	for _, src := range srcs {
		for _, k := range []int{4, 8} {
			p, err := parmem.Compile(src, parmem.Options{Modules: k})
			if err != nil {
				t.Fatal(err)
			}
			var instrs [][]int
			for _, in := range p.Instructions() {
				instrs = append(instrs, in)
			}
			streams = append(streams, instrs)
		}
	}
	streams = append(streams, benchprog.ChainInstrs(3, 200, 4), benchprog.ClusterInstrs(4, 12, 4), nil)
	r := rand.New(rand.NewSource(26))
	for i := 0; i < 40; i++ {
		instrs := make([][]int, r.Intn(60))
		for j := range instrs {
			for n := r.Intn(5); n > 0; n-- {
				instrs[j] = append(instrs[j], r.Intn(40))
			}
		}
		streams = append(streams, instrs)
	}

	for i, instrs := range streams {
		req := server.AssignRequest{Instrs: instrs, K: 4, Strategy: "stor1", Method: "hittingset"}
		cinstrs := make([]conflict.Instruction, len(instrs))
		for j, ops := range instrs {
			cinstrs[j] = ops
		}
		want := mixOpts(alloccache.CanonicalHash(conflict.Build(cinstrs)), req.K, req.Strategy, req.Method)
		if got := assignKey(req); got != want {
			t.Fatalf("stream %d: key %#x, map-graph key %#x", i, got, want)
		}
	}
}
