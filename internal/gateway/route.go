package gateway

import (
	"encoding/json"
	"hash/fnv"

	"parmem/internal/alloccache"
	"parmem/internal/arena"
	"parmem/internal/conflict"
	"parmem/internal/server"
)

// Routing keys. The gateway's job is cache affinity: every request that
// would hit the same memo entries must land on the same backend, so the
// fleet's caches partition the keyspace instead of each backend slowly
// warming a copy of everything.
//
// For assign requests the key is the canonical hash of the conflict graph
// the engine will build — the same graph signature the allocation cache
// keys on — mixed with K, so isomorphic-in-bytes requests route together
// no matter how the client ordered its JSON. For compile and batch
// requests the graph does not exist yet (building it would mean running
// half the pipeline in the gateway), so the key hashes the source text
// and the options that shape compilation; identical submissions — the
// warm-fleet case — still collide.
//
// Session-flavored requests trade cache affinity for session affinity:
// an assign that holds a session, and every delta against one, route by
// the session's name. Daemon-side sessions live on the connection that
// created them, and the gateway keeps exactly one multiplexed upstream
// connection per backend — so pinning a session name to one ring position
// keeps the hold and all its deltas on the connection that knows the
// session. A failover (the session's home backend dying) loses the
// session; the daemon answers the next delta with its typed unknown-base
// INVALID_ARGUMENT and the client re-holds, exactly as it would after its
// own connection dropped.

// routeKey computes the routing key of one request frame. Unparseable
// payloads return key 0 (a deterministic backend will reject them with
// the protocol's own INVALID_ARGUMENT).
func routeKey(op server.Op, payload []byte) uint64 {
	switch op {
	case server.OpAssign:
		var req server.AssignRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return 0
		}
		if req.Hold != "" {
			return sessionKey(req.Hold)
		}
		return assignKey(req)
	case server.OpDelta:
		var req server.DeltaRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return 0
		}
		return sessionKey(req.Base)
	case server.OpCompile:
		var req server.CompileRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return 0
		}
		return textKey(req.Src, req.K, req.Strategy, req.Method)
	case server.OpBatch:
		var req server.BatchRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return 0
		}
		h := fnv.New64a()
		for _, src := range req.Srcs {
			writeLenPrefixed(h, src)
		}
		return mixOpts(h.Sum64(), req.K, req.Strategy, req.Method)
	}
	return 0
}

// assignKey hashes the conflict graph the backend's engine will build
// from the instruction stream — the canonical (order-independent) graph
// hash of its snapshot — mixed with K.
func assignKey(req server.AssignRequest) uint64 {
	instrs := make([]conflict.Instruction, len(req.Instrs))
	for i, ops := range req.Instrs {
		for _, v := range ops {
			if v < 0 {
				return 0 // the backend rejects negative ids; don't build
			}
		}
		instrs[i] = conflict.Instruction(ops)
	}
	sc := arena.Get()
	defer sc.Release()
	h := alloccache.CanonicalHashDense(conflict.Snapshot(instrs, sc))
	return mixOpts(h, req.K, req.Strategy, req.Method)
}

// sessionKey pins a session name to one ring position. The "sess\x00"
// prefix keeps the namespace disjoint from text keys.
func sessionKey(name string) uint64 {
	h := fnv.New64a()
	writeLenPrefixed(h, "sess\x00"+name)
	return h.Sum64()
}

func textKey(src string, k int, strategy, method string) uint64 {
	h := fnv.New64a()
	writeLenPrefixed(h, src)
	return mixOpts(h.Sum64(), k, strategy, method)
}

// mixOpts folds the option fields that change what the engine computes
// into the base hash.
func mixOpts(base uint64, k int, strategy, method string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(base >> (8 * i))
	}
	h.Write(b[:])
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(k) >> (8 * i))
	}
	h.Write(b[:])
	writeLenPrefixed(h, strategy)
	writeLenPrefixed(h, method)
	return h.Sum64()
}

func writeLenPrefixed(h interface{ Write([]byte) (int, error) }, s string) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(len(s)) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(s))
}
