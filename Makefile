GO ?= go

.PHONY: build test test-parmembench check race fanout flake-hunt vet staticcheck boundary bench bench-run bench-json bench-diff bench-scaling bench-scaling-smoke tables trace-smoke soak-smoke gateway-smoke fleet-trace-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# parmembench is a nested module (replace parmem => ../), so the root
# `go test ./...` never reaches it; an API change that breaks the
# benchmark fails here first.
test-parmembench:
	cd parmembench && $(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools/cmd/staticcheck when the binary is
# on PATH and skips with a note otherwise, so check works on boxes without
# it (this repo adds no tool dependencies).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# flake-hunt reruns the packages whose tests race real sockets, timers and
# goroutines (daemon, gateway, telemetry, trace merge) 50 times, plain and
# under the race detector, to shake out timing-dependent failures. It takes
# minutes, so neither check nor CI runs it.
FLAKE_PKGS = ./internal/server ./internal/gateway ./internal/telemetry ./internal/tracemerge

flake-hunt:
	$(GO) test -count=50 $(FLAKE_PKGS)
	$(GO) test -race -count=50 $(FLAKE_PKGS)

# fanout reruns the golden digests, the parallel-determinism tests and the
# decomposition tests at one and two CPUs: Workers=0 resolves to one worker
# per CPU, so on a 1-CPU box the decomposition's fan-out would otherwise
# never meet the digests.
fanout:
	$(GO) test -count=1 -cpu 1,2 -run 'TestGoldenAllocations|TestParallel' .
	$(GO) test -count=1 -cpu 1,2 -run TestDecompose ./internal/atoms

# boundary keeps the map graph out of the engine, whose only graph is
# graph.Dense: no non-test file of assign, coloring or gateway may build,
# convert or induce a map graph, and atoms and alloccache may convert one
# only in the graph-taking wrappers the benchmark compiles against
# (atoms.DecomposeParallel, alloccache.CanonicalHash). It also keeps the
# engine's conflict graphs on one constructor: no non-test file of assign
# may call conflict.Snapshot outside buildConflict.
MAPGRAPH_CALLS = graph\.New\(|graph\.FromGraph|\.Induced\(|\.InducedGraph\(
MAPGRAPH_WRAPPERS = ^internal/atoms/atoms\.go:[0-9]+:[[:space:]]*return Decompose\(graph\.FromGraph\(g\), workers\)$$|^internal/alloccache/alloccache\.go:[0-9]+:[[:space:]]*return CanonicalHashDense\(graph\.FromGraph\(g\)\)$$

boundary:
	@out=$$(grep -nE '$(MAPGRAPH_CALLS)' $$(ls internal/assign/*.go internal/coloring/*.go internal/gateway/*.go \
		internal/atoms/*.go internal/alloccache/*.go | grep -v '_test\.go$$') | grep -vE '$(MAPGRAPH_WRAPPERS)'); \
	if [ -n "$$out" ]; then echo "map-graph calls inside the engine:"; echo "$$out"; exit 1; fi
	@out=$$(awk '/^func /{fn=$$0} /conflict\.Snapshot\(/ && fn !~ /\) buildConflict\(/{print FILENAME":"FNR": "$$0}' \
		$$(ls internal/assign/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$out" ]; then echo "conflict.Snapshot calls outside buildConflict:"; echo "$$out"; exit 1; fi

# check is the CI gate: static analysis, the map-graph boundary, the full
# suite under the race detector, the fan-out rerun, and the nested
# benchmark module's tests.
check: vet staticcheck boundary race fanout test-parmembench

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-run collects the gated benchmark set into bench.out: the dense-core
# kernels (graph, coloring, duplication — BenchmarkDense covers both the
# flat/blocked probe benches and the 10k blocked-vs-CSR one) with their
# map-backed counterparts in internal/oracle, the
# steady-state/batch throughput benchmarks of the root package, the
# multi-core scaling matrix, and the incremental-recompilation sweep (both
# without -benchmem: their rows archive the speedup curves — bench2json
# derives speedup/efficiency from the workers=1 sibling and incr_speedup
# from the /full sibling — they are not allocation-gated). Output goes to a
# file, not a pipe, so a failing `go test` fails the target instead of
# feeding a truncated stream to the converter.
bench-run:
	$(GO) test -run='^$$' -bench='BenchmarkDense|BenchmarkColoring|BenchmarkDuplication' \
		-benchmem ./internal/graph ./internal/coloring ./internal/duplication ./internal/oracle > bench.out
	$(GO) test -run='^$$' -bench='BenchmarkAssignSteadyState|BenchmarkCompileBatch' \
		-benchmem . >> bench.out
	$(GO) test -run='^$$' -bench='BenchmarkFleet' \
		-benchmem ./internal/gateway >> bench.out
	$(GO) test -run='^$$' -bench='BenchmarkAssignScaling' \
		-timeout 30m . >> bench.out
	$(GO) test -run='^$$' -bench='BenchmarkAssignIncremental' \
		-timeout 30m . >> bench.out

# bench-json archives the gated benchmark numbers — ns/op, B/op, allocs/op —
# as BENCH_parmem.json, the committed baseline bench-diff compares against.
bench-json: bench-run
	$(GO) run ./cmd/bench2json -o BENCH_parmem.json < bench.out
	@rm -f bench.out
	@echo wrote BENCH_parmem.json

# bench-diff reruns the gated benchmarks and fails when any allocs/op
# regresses more than 10% over the committed BENCH_parmem.json (or a
# baseline benchmark disappeared). The fresh numbers land in BENCH_new.json
# either way; promote them with `make bench-json` after an intentional
# change.
bench-diff: bench-run
	$(GO) run ./cmd/bench2json -baseline BENCH_parmem.json -o BENCH_new.json < bench.out
	@rm -f bench.out

# bench-scaling runs only the multi-core scaling matrix
# (BenchmarkAssignScaling: workload × workers=1,2,4,8) and writes the
# speedup/efficiency curve — bench2json derives speedup and efficiency for
# every workers=N row from its workers=1 sibling; the rows carry the
# machine's core count — to SCALING_parmem.json (per-run scratch, not
# committed; the committed curve lives in BENCH_parmem.json via bench-json).
bench-scaling:
	$(GO) test -run='^$$' -bench='BenchmarkAssignScaling' -timeout 30m . > scaling.out
	$(GO) run ./cmd/bench2json -o SCALING_parmem.json < scaling.out
	@rm -f scaling.out
	@echo wrote SCALING_parmem.json

# bench-scaling-smoke is the CI variant: workers=1 and 2 only, enough to
# prove the harness runs end to end and produce a curve artifact on the
# runner's cores without paying for the full matrix.
bench-scaling-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkAssignScaling/.*/workers=[12]$$' -timeout 30m . > scaling.out
	$(GO) run ./cmd/bench2json -o SCALING_parmem.json < scaling.out
	@rm -f scaling.out
	@echo wrote SCALING_parmem.json

tables:
	$(GO) run ./cmd/parmem-tables

# trace-smoke compiles a benchmark with full telemetry on and checks that
# the Chrome trace file and the metrics dump actually materialize — the
# end-to-end sanity pass of the observability layer (the structural
# assertions live in the test suite; this proves the shipped binaries wire
# it all up).
trace-smoke:
	$(GO) run ./cmd/parmemc -bench FFT -workers 4 -trace trace-smoke.json -metrics 2> trace-smoke.metrics
	@grep -q '"traceEvents"' trace-smoke.json || { echo "trace-smoke: no traceEvents in trace-smoke.json"; exit 1; }
	@grep -q '"name": "atom"' trace-smoke.json || { echo "trace-smoke: no atom spans in trace-smoke.json"; exit 1; }
	@grep -q 'parmem_instructions_total' trace-smoke.metrics || { echo "trace-smoke: no metrics dump"; exit 1; }
	@rm -f trace-smoke.json trace-smoke.metrics
	@echo trace-smoke OK

# soak-smoke is the end-to-end robustness pass of the daemon: boot parmemd
# on a free port, hammer it for 10 seconds with the chaos client (fault
# injection on: garbage frames, slow loris, disconnects, deadline storms,
# overload bursts), then SIGTERM it and require a clean graceful drain.
# The chaos client enforces the acceptance bar itself — >=99% availability,
# typed shedding, zero dropped in-flight responses — and the latency/
# accounting summary lands in SOAK_summary.json for CI to archive.
soak-smoke:
	$(GO) build -o bin/parmemd ./cmd/parmemd
	$(GO) build -o bin/parmemsoak ./cmd/parmemsoak
	@rm -f soak-smoke.log
	@./bin/parmemd -addr 127.0.0.1:0 2>soak-smoke.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
		grep -q 'listening on' soak-smoke.log && break; sleep 0.1; \
	done; \
	addr=$$(sed -n 's/^parmemd: listening on //p' soak-smoke.log | head -1); \
	if [ -z "$$addr" ]; then echo "soak-smoke: parmemd never announced its address"; cat soak-smoke.log; kill $$pid 2>/dev/null; exit 1; fi; \
	echo "soak-smoke: daemon at $$addr"; \
	./bin/parmemsoak -addr "$$addr" -duration 10s -faults \
		-steady-ops 256 -max-allocs-per-op 500 -summary SOAK_summary.json; soak=$$?; \
	kill -TERM $$pid; wait $$pid; daemon=$$?; \
	cat soak-smoke.log; rm -f soak-smoke.log; \
	if [ $$soak -ne 0 ]; then echo "soak-smoke: soak FAILED ($$soak)"; exit $$soak; fi; \
	if [ $$daemon -ne 0 ]; then echo "soak-smoke: parmemd did not drain cleanly ($$daemon)"; exit 1; fi; \
	echo soak-smoke OK

# fleet-trace-smoke is the end-to-end distributed-tracing pass: boot two
# parmemd backends (span export + flight recorder on, 1ms latency trigger)
# behind parmemgw (span export on), soak the gateway with traced traffic —
# the chaos client checks every response echoes its request's trace id and,
# via -flight-url, that the daemons spooled at least one flight capture —
# then drain everything and merge the four per-process JSONL exports with
# parmemtrace. The merge must find at least one trace spanning 3 processes
# (client -> gateway -> daemon); the merged Chrome trace lands in
# FLEET_trace.json and one flight capture in FLEET_flight_capture.json for
# CI to archive.
fleet-trace-smoke:
	$(GO) build -o bin/parmemd ./cmd/parmemd
	$(GO) build -o bin/parmemgw ./cmd/parmemgw
	$(GO) build -o bin/parmemsoak ./cmd/parmemsoak
	$(GO) build -o bin/parmemtrace ./cmd/parmemtrace
	@rm -rf fts-flight1 fts-flight2 fts-d1.log fts-d2.log fts-gw.log \
		fts-d1.jsonl fts-d2.jsonl fts-gw.jsonl fts-client.jsonl
	@./bin/parmemd -addr 127.0.0.1:0 -telemetry-addr 127.0.0.1:0 \
		-trace fts-d1.jsonl -flight-dir fts-flight1 -flight-latency 1ms 2>fts-d1.log & \
	pid1=$$!; \
	./bin/parmemd -addr 127.0.0.1:0 -telemetry-addr 127.0.0.1:0 \
		-trace fts-d2.jsonl -flight-dir fts-flight2 -flight-latency 1ms 2>fts-d2.log & \
	pid2=$$!; \
	for i in $$(seq 1 100); do \
		grep -q 'telemetry on' fts-d1.log && grep -q 'telemetry on' fts-d2.log && break; sleep 0.1; \
	done; \
	a1=$$(sed -n 's/^parmemd: listening on //p' fts-d1.log | head -1); \
	a2=$$(sed -n 's/^parmemd: listening on //p' fts-d2.log | head -1); \
	t1=$$(sed -n 's|^parmemd: telemetry on http://\([^/]*\)/metrics.*|\1|p' fts-d1.log | head -1); \
	t2=$$(sed -n 's|^parmemd: telemetry on http://\([^/]*\)/metrics.*|\1|p' fts-d2.log | head -1); \
	if [ -z "$$a1" ] || [ -z "$$a2" ] || [ -z "$$t1" ] || [ -z "$$t2" ]; then \
		echo "fleet-trace-smoke: backends never announced"; cat fts-d1.log fts-d2.log; \
		kill $$pid1 $$pid2 2>/dev/null; exit 1; fi; \
	./bin/parmemgw -addr 127.0.0.1:0 -backends "$$a1,$$a2" -trace fts-gw.jsonl 2>fts-gw.log & \
	gwpid=$$!; \
	for i in $$(seq 1 100); do \
		grep -q 'listening on' fts-gw.log && break; sleep 0.1; \
	done; \
	gaddr=$$(sed -n 's/^parmemgw: listening on //p' fts-gw.log | head -1); \
	if [ -z "$$gaddr" ]; then echo "fleet-trace-smoke: gateway never announced"; cat fts-gw.log; \
		kill $$pid1 $$pid2 $$gwpid 2>/dev/null; exit 1; fi; \
	echo "fleet-trace-smoke: gateway at $$gaddr over $$a1 + $$a2 (flight at $$t1, $$t2)"; \
	./bin/parmemsoak -addr "$$gaddr" -duration 5s -clients 2 \
		-trace fts-client.jsonl -flight-url "http://$$t1,http://$$t2" \
		-summary FLEET_summary.json; soak=$$?; \
	kill -TERM $$gwpid; wait $$gwpid; gw=$$?; \
	kill -TERM $$pid1; wait $$pid1; b1=$$?; \
	kill -TERM $$pid2; wait $$pid2; b2=$$?; \
	cat fts-gw.log; \
	if [ $$soak -ne 0 ]; then echo "fleet-trace-smoke: soak FAILED ($$soak)"; exit $$soak; fi; \
	if [ $$gw -ne 0 ] || [ $$b1 -ne 0 ] || [ $$b2 -ne 0 ]; then \
		echo "fleet-trace-smoke: dirty drain (gw=$$gw b1=$$b1 b2=$$b2)"; exit 1; fi; \
	./bin/parmemtrace -min-processes 3 -o FLEET_trace.json \
		fts-client.jsonl fts-gw.jsonl fts-d1.jsonl fts-d2.jsonl || \
		{ echo "fleet-trace-smoke: no trace spans 3 processes"; exit 1; }; \
	capture=$$(ls fts-flight1 fts-flight2 2>/dev/null | grep '^flight-' | head -1); \
	if [ -z "$$capture" ]; then echo "fleet-trace-smoke: no flight capture spooled"; exit 1; fi; \
	cp "$$(ls fts-flight1/flight-*.json fts-flight2/flight-*.json 2>/dev/null | head -1)" FLEET_flight_capture.json; \
	rm -rf fts-flight1 fts-flight2 fts-d1.log fts-d2.log fts-gw.log \
		fts-d1.jsonl fts-d2.jsonl fts-gw.jsonl fts-client.jsonl; \
	echo fleet-trace-smoke OK

# gateway-smoke is the end-to-end fleet pass: boot two parmemd backends
# (each with a persistent -cache-dir), front them with parmemgw, soak the
# gateway with fault injection on (garbage, truncated, slow-loris and
# oversized frames, deadline storms, overload bursts — all hitting the
# gateway's connection layer), and SIGTERM one backend mid-run. The
# hash ring must fail the dead shard's keys over to the survivor without
# the client noticing: the soak enforces >=99% availability and zero
# dropped in-flight responses, then the gateway and the surviving backend
# must both drain cleanly. The accounting lands in GATEWAY_summary.json.
gateway-smoke:
	$(GO) build -o bin/parmemd ./cmd/parmemd
	$(GO) build -o bin/parmemgw ./cmd/parmemgw
	$(GO) build -o bin/parmemsoak ./cmd/parmemsoak
	@rm -rf gw-smoke-cache1 gw-smoke-cache2 gw-smoke-b1.log gw-smoke-b2.log gw-smoke-gw.log
	@./bin/parmemd -addr 127.0.0.1:0 -cache-dir gw-smoke-cache1 2>gw-smoke-b1.log & \
	pid1=$$!; \
	./bin/parmemd -addr 127.0.0.1:0 -cache-dir gw-smoke-cache2 2>gw-smoke-b2.log & \
	pid2=$$!; \
	for i in $$(seq 1 100); do \
		grep -q 'listening on' gw-smoke-b1.log && grep -q 'listening on' gw-smoke-b2.log && break; sleep 0.1; \
	done; \
	a1=$$(sed -n 's/^parmemd: listening on //p' gw-smoke-b1.log | head -1); \
	a2=$$(sed -n 's/^parmemd: listening on //p' gw-smoke-b2.log | head -1); \
	if [ -z "$$a1" ] || [ -z "$$a2" ]; then echo "gateway-smoke: backends never announced"; cat gw-smoke-b1.log gw-smoke-b2.log; kill $$pid1 $$pid2 2>/dev/null; exit 1; fi; \
	./bin/parmemgw -addr 127.0.0.1:0 -backends "$$a1,$$a2" 2>gw-smoke-gw.log & \
	gwpid=$$!; \
	for i in $$(seq 1 100); do \
		grep -q 'listening on' gw-smoke-gw.log && break; sleep 0.1; \
	done; \
	gaddr=$$(sed -n 's/^parmemgw: listening on //p' gw-smoke-gw.log | head -1); \
	if [ -z "$$gaddr" ]; then echo "gateway-smoke: gateway never announced"; cat gw-smoke-gw.log; kill $$pid1 $$pid2 $$gwpid 2>/dev/null; exit 1; fi; \
	echo "gateway-smoke: gateway at $$gaddr over $$a1 + $$a2"; \
	( sleep 4; echo "gateway-smoke: draining backend 2 mid-soak"; kill -TERM $$pid2 ) & \
	./bin/parmemsoak -addr "$$gaddr" -duration 10s -faults -summary GATEWAY_summary.json; soak=$$?; \
	wait $$pid2; b2=$$?; \
	kill -TERM $$gwpid; wait $$gwpid; gw=$$?; \
	kill -TERM $$pid1; wait $$pid1; b1=$$?; \
	cat gw-smoke-gw.log; \
	rm -rf gw-smoke-cache1 gw-smoke-cache2 gw-smoke-b1.log gw-smoke-b2.log gw-smoke-gw.log; \
	if [ $$soak -ne 0 ]; then echo "gateway-smoke: soak FAILED ($$soak)"; exit $$soak; fi; \
	if [ $$b2 -ne 0 ]; then echo "gateway-smoke: drained backend exited dirty ($$b2)"; exit 1; fi; \
	if [ $$gw -ne 0 ]; then echo "gateway-smoke: parmemgw did not drain cleanly ($$gw)"; exit 1; fi; \
	if [ $$b1 -ne 0 ]; then echo "gateway-smoke: surviving parmemd did not drain cleanly ($$b1)"; exit 1; fi; \
	echo gateway-smoke OK
