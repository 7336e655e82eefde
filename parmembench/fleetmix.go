package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parmem"
	"parmem/internal/alloccache"
	"parmem/internal/benchprog"
	"parmem/internal/conflict"
	"parmem/internal/server"
)

// fleet-mix: two parmemd processes, each with a fresh -cache-dir, behind
// one parmemgw, all built from this repository. Two closed-loop clients
// each hold one connection to the gateway and send about 75% assigns of
// hot streams (Zipf over a pool of 48 prefilled streams), 15% assigns of
// never-seen streams (engine work plus memory and disk cache writes) and
// 10% deltas on a per-client held session. latency_* covers the assigns,
// delta_* the deltas.

const (
	fleetClients = 2
	fleetEdits   = 32 // forked edits per client session
)

// fleet is one booted gateway-plus-two-daemons deployment.
type fleet struct {
	dir     string
	daemons []*proc
	gw      *proc
	clients []*server.Client
}

// fleetState is one set-up of the workload.
type fleetState struct {
	fl       *fleet
	hot      []stream
	sessions []editSet
	// Figures of the prefill: one assign per hot stream.
	copies, cycles, wrong int64
}

func (s stream) request() server.AssignRequest {
	req := server.AssignRequest{Instrs: s.Instrs, K: s.K}
	if s.Backtrack {
		req.Method = "backtrack"
	}
	return req
}

// suiteStreams compiles the paper programs (STOR1, k=8) for their
// instruction streams.
func suiteStreams(ctx context.Context) ([]stream, error) {
	var out []stream
	for _, spec := range benchprog.All() {
		p, err := parmem.CompileCtx(ctx, spec.Source, parmem.Options{Modules: 8, Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", spec.Name, err)
		}
		out = append(out, stream{Name: "suite/" + spec.Name, Instrs: instrRows(p.Instructions()), K: 8})
	}
	return out, nil
}

// bootFleet starts two daemons and the gateway under dir and connects the
// clients. traced adds a -trace span export to every process.
func bootFleet(cfg config, dir string, traced bool) (*fleet, error) {
	if err := makeDir(dir); err != nil {
		return nil, err
	}
	fl := &fleet{dir: dir}
	var backends []string
	for i := 0; i < 2; i++ {
		args := []string{"-addr", "127.0.0.1:0", "-telemetry-addr", "127.0.0.1:0",
			"-cache-dir", filepath.Join(dir, "cache"+strconv.Itoa(i))}
		if traced {
			args = append(args, "-trace", filepath.Join(dir, "parmemd"+strconv.Itoa(i)+".jsonl"))
		}
		d, err := startProc("parmemd", filepath.Join(cfg.binDir, "parmemd"), args...)
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.daemons = append(fl.daemons, d)
		backends = append(backends, d.addr)
	}
	args := []string{"-addr", "127.0.0.1:0", "-telemetry-addr", "127.0.0.1:0", "-backends", backends[0] + "," + backends[1]}
	if traced {
		args = append(args, "-trace", filepath.Join(dir, "parmemgw.jsonl"))
	}
	gw, err := startProc("parmemgw", filepath.Join(cfg.binDir, "parmemgw"), args...)
	if err != nil {
		fl.stop()
		return nil, err
	}
	fl.gw = gw
	for i := 0; i < fleetClients; i++ {
		c, err := server.Dial(gw.addr)
		if err != nil {
			fl.stop()
			return nil, fmt.Errorf("dial gateway: %w", err)
		}
		fl.clients = append(fl.clients, c)
	}
	return fl, nil
}

// pids lists the fleet's processes for the peak-RSS reading.
func (fl *fleet) pids() []int {
	var out []int
	for _, p := range append(append([]*proc(nil), fl.daemons...), fl.gw) {
		if p != nil {
			out = append(out, p.cmd.Process.Pid)
		}
	}
	return out
}

// stop closes the clients, drains the gateway and then the daemons, and
// removes the fleet's directory.
func (fl *fleet) stop() {
	for _, c := range fl.clients {
		_ = c.Close()
	}
	if fl.gw != nil {
		fl.gw.stop()
	}
	for _, d := range fl.daemons {
		d.stop()
	}
	_ = os.RemoveAll(fl.dir)
}

// setupFleet boots a fleet, prefills the hot pool through the gateway and
// holds each client's session.
func setupFleet(ctx context.Context, cfg config, dir string, traced bool) (*fleetState, error) {
	suite, err := suiteStreams(ctx)
	if err != nil {
		return nil, err
	}
	s := &fleetState{hot: fleetHotPool(cfg.seed, suite)}
	for c := 0; c < fleetClients; c++ {
		s.sessions = append(s.sessions, fleetSession(cfg.seed, c, fleetEdits))
	}
	if s.fl, err = bootFleet(cfg, dir, traced); err != nil {
		return nil, err
	}
	for _, h := range s.hot {
		resp, err := s.fl.clients[0].Assign(ctx, h.request())
		if err := okResponse(resp, err); err != nil {
			s.fl.stop()
			return nil, fmt.Errorf("prefill %s: %w", h.Name, err)
		}
		copies := resp.Result.Copies
		if err := checkResult(h.Name, h.Instrs, copies, h.K); err != nil {
			s.wrong++
			fmt.Printf("WRONG %v\n", err)
		}
		s.copies += int64(resp.Result.TotalCopies)
		s.cycles += streamCycles(h.Instrs, copies, h.K)
	}
	for c, es := range s.sessions {
		req := es.Base.request()
		req.Hold = sessionName(c)
		resp, err := s.fl.clients[c].Assign(ctx, req)
		if err := okResponse(resp, err); err != nil {
			s.fl.stop()
			return nil, fmt.Errorf("hold session %d: %w", c, err)
		}
	}
	return s, nil
}

func sessionName(c int) string { return "bench-session-" + strconv.Itoa(c) }

// okResponse turns a transport error or a non-OK response into an error.
func okResponse(resp server.Response, err error) error {
	switch {
	case err != nil:
		return err
	case resp.Code != server.CodeOK:
		return fmt.Errorf("%s: %s", resp.Code, resp.Error)
	case resp.Result == nil:
		return errors.New("OK response without a result")
	}
	return nil
}

// clientTally is one client's share of a measured loop.
type clientTally struct {
	lat, delta        []time.Duration
	latAt, deltaAt    []time.Duration // completion times since t.start
	attempted, failed int64
	wrong             int64
	check             time.Duration
	responses         []server.Response // a few OK responses for the codec timings
}

// fleetLoop runs both clients closed-loop for seconds and until both of
// t's latency series hold need samples, merging into t. It returns the
// wall time minus the mean per-client checking time.
func fleetLoop(ctx context.Context, s *fleetState, t *tally, seed int64, seconds float64, need int) (time.Duration, []server.Response) {
	var nLat, nDelta atomic.Int64
	nLat.Store(int64(len(t.lat)))
	nDelta.Store(int64(len(t.delta)))
	start := time.Now()
	done := func() bool {
		el := time.Since(start).Seconds()
		if el >= maxRunSeconds {
			return true
		}
		return el >= seconds && nLat.Load() >= int64(need) && nDelta.Load() >= int64(need)
	}
	tallies := make([]clientTally, fleetClients)
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ct := &tallies[c]
			ops := newFleetOps(seed, c, fleetEdits)
			cl := s.fl.clients[c]
			for !done() {
				op := ops.next()
				var rows [][]int
				var k int
				var resp server.Response
				var err error
				var d time.Duration
				switch op.Kind {
				case opDelta:
					es := s.sessions[c]
					e := es.Edits[op.Edit]
					rows, k = applyEdit(es.Base.Instrs, e), es.Base.K
					req := server.DeltaRequest{Base: sessionName(c), Changed: []server.ChangedOp{{Index: e.Index, Ops: e.Instr}}}
					t0 := time.Now()
					resp, err = cl.Delta(ctx, req)
					d = time.Since(t0)
				default:
					st := op.Fresh
					if op.Kind == opHot {
						st = &s.hot[op.Hot]
					}
					rows, k = st.Instrs, st.K
					req := st.request()
					t0 := time.Now()
					resp, err = cl.Assign(ctx, req)
					d = time.Since(t0)
				}
				ct.attempted++
				if err := okResponse(resp, err); err != nil {
					if ct.failed++; ct.failed <= 5 {
						fmt.Fprintf(os.Stderr, "parmembench: failed: client %d: %v\n", c, err)
					}
					continue
				}
				if at := time.Since(t.start); op.Kind == opDelta {
					ct.delta, ct.deltaAt = append(ct.delta, d), append(ct.deltaAt, at)
					nDelta.Add(1)
				} else {
					ct.lat, ct.latAt = append(ct.lat, d), append(ct.latAt, at)
					nLat.Add(1)
				}
				c0 := time.Now()
				if err := checkResult("fleet response", rows, resp.Result.Copies, k); err != nil {
					if ct.wrong++; ct.wrong <= 5 {
						fmt.Fprintf(os.Stderr, "parmembench: WRONG RESULT: %v\n", err)
					}
				}
				if len(ct.responses) < 64 && ct.attempted%16 == 0 {
					ct.responses = append(ct.responses, resp)
				}
				ct.check += time.Since(c0)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var check time.Duration
	var responses []server.Response
	for _, ct := range tallies {
		t.lat, t.latAt = append(t.lat, ct.lat...), append(t.latAt, ct.latAt...)
		t.delta, t.deltaAt = append(t.delta, ct.delta...), append(t.deltaAt, ct.deltaAt...)
		t.attempted += ct.attempted
		t.failed += ct.failed
		t.wrong += ct.wrong
		check += ct.check
		responses = append(responses, ct.responses...)
	}
	return wall - check/fleetClients, responses
}

func runFleetMix(cfg config) (*result, error) {
	// One deadline for the whole run: a hung daemon fails the run's
	// outstanding requests instead of hanging the benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var t tally
	root, err := filepath.Abs(filepath.Join(cfg.workDir, "fleet-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rep := 0
	setup := func(traced bool) (*fleetState, error) {
		rep++
		return setupFleet(ctx, cfg, filepath.Join(root, strconv.Itoa(rep)), traced)
	}
	if !cfg.trace {
		// Every set-up is measured for an equal share of the run and of
		// the samples, so that one boot's luck (process placement, which
		// daemon owns the hottest streams) does not decide the run's
		// figures.
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			s, err := setup(false)
			if err != nil {
				return nil, err
			}
			t.setups = append(t.setups, time.Since(t0).Seconds())
			if i == 0 {
				t.startClock()
			}
			t.wrong += s.wrong
			t.copies, t.cycles = s.copies, s.cycles
			el, _ := fleetLoop(ctx, s, &t, cfg.seed, cfg.seconds/setupReps, minSamples*(i+1)/setupReps)
			t.elapsed += el
			t.rssMB = max(t.rssMB, peakRSSMB(s.fl.pids()))
			s.fl.stop()
		}
		return t.endToEnd(), nil
	}

	l := newLayers()
	s, err := setup(false)
	if err != nil {
		return nil, err
	}
	t.wrong += s.wrong
	before, err := scrapeDaemons(s.fl)
	if err != nil {
		s.fl.stop()
		return nil, err
	}
	_, responses := fleetLoop(ctx, s, &t, cfg.seed, 0.35*cfg.seconds, 0)
	untraced := pctMS(t.lat, 50)
	ops := float64(t.attempted)
	after, err := scrapeDaemons(s.fl)
	if err == nil {
		fleetCounters(l, before, after, ops)
		err = gatewayOverhead(ctx, l, s, 0.1*cfg.seconds)
	}
	s.fl.stop()
	if err != nil {
		return nil, err
	}

	ts, err := setup(true)
	if err != nil {
		return nil, err
	}
	t.wrong += ts.wrong
	t.lat, t.latAt = t.lat[:0], t.latAt[:0]
	fleetLoop(ctx, ts, &t, cfg.seed, 0.35*cfg.seconds, 0)
	ts.fl.stop()
	l.set("telemetry.overhead_ms", pctMS(t.lat, 50)-untraced)

	if err := codecLayers(ctx, l, s, responses, 0.1*cfg.seconds); err != nil {
		return nil, err
	}
	l.reconcile("fleet-mix assign", []string{"client.encode_us", "server.frame_us", "gateway.overhead_ms",
		"server.decode_us", "server.queue_wait_ms", "alloccache.lookup_ms", "server.encode_us", "client.decode_us"}, untraced)
	return l.result(&t), nil
}

// scrapeDaemons reads both daemons' /metrics and sums them.
func scrapeDaemons(fl *fleet) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, d := range fl.daemons {
		m, err := d.scrape()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// fleetCounters records the daemons' cache, disk, shedding, admission and
// arena counters over the measured loop (after minus before).
func fleetCounters(l *layers, before, after map[string]float64, ops float64) {
	diff := func(family string, fragments ...string) float64 {
		return sumSeries(after, family, fragments...) - sumSeries(before, family, fragments...)
	}
	for _, level := range []string{"assign", "dup", "atomcolor", "comp"} {
		sel := `level="` + level + `"`
		hits, misses := diff("parmem_cache_hits_total", sel), diff("parmem_cache_misses_total", sel)
		if hits+misses > 0 {
			l.set("alloccache.hit_ratio."+level, hits/(hits+misses))
		}
	}
	l.set("diskcache.puts", diff("parmem_diskcache_puts_total"))
	l.set("diskcache.bytes_written", diff("parmem_diskcache_bytes"))
	l.set("server.shed", diff("parmem_server_shed_total"))
	if n := diff("parmem_server_queue_wait_us_count"); n > 0 {
		l.set("server.queue_wait_ms", diff("parmem_server_queue_wait_us_sum")/n/1000)
	}
	l.set("arena.pool_gets", diff("parmem_arena_pool_gets_total")/ops)
	l.set("arena.zeroed_bytes", diff("parmem_arena_zeroed_bytes_total")/ops)
}

// gatewayOverhead measures gateway.overhead_ms as paired requests: the same
// hot assign through the gateway and straight to the daemon that owns it,
// alternating, for about seconds. The owner is the backend whose gateway
// request counter moves when the gateway forwards the stream.
func gatewayOverhead(ctx context.Context, l *layers, s *fleetState, seconds float64) error {
	direct := map[string]*server.Client{}
	for _, d := range s.fl.daemons {
		c, err := server.Dial(d.addr)
		if err != nil {
			return fmt.Errorf("dial daemon: %w", err)
		}
		defer c.Close()
		direct[d.addr] = c
	}
	gw := s.fl.clients[0]
	var viaGW, viaDirect []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		h := s.hot[i%len(s.hot)]
		req := h.request()
		m0, err := s.fl.gw.scrape()
		if err != nil {
			return err
		}
		if err := okResponse(gw.Assign(ctx, req)); err != nil {
			return fmt.Errorf("gateway overhead probe: %w", err)
		}
		m1, err := s.fl.gw.scrape()
		if err != nil {
			return err
		}
		var owner *server.Client
		for addr, c := range direct {
			sel := `backend="` + addr + `"`
			if sumSeries(m1, "parmem_gateway_requests_total", sel) > sumSeries(m0, "parmem_gateway_requests_total", sel) {
				owner = c
			}
		}
		if owner == nil {
			return fmt.Errorf("gateway overhead probe: no backend request counter moved")
		}
		for r := 0; r < 8; r++ {
			t0 := time.Now()
			if err := okResponse(gw.Assign(ctx, req)); err != nil {
				return err
			}
			viaGW = append(viaGW, ms(time.Since(t0)))
			t0 = time.Now()
			if err := okResponse(owner.Assign(ctx, req)); err != nil {
				return err
			}
			viaDirect = append(viaDirect, ms(time.Since(t0)))
		}
	}
	l.set("gateway.overhead_ms", median(viaGW)-median(viaDirect))
	fmt.Printf("gateway pairs %d: via gateway p50 %.4f ms, direct p50 %.4f ms\n", len(viaGW), median(viaGW), median(viaDirect))
	return nil
}

// codecLayers times, in process and on the workload's own payloads, what
// each hop does to a request: the client's JSON encode and response
// decode, one frame write plus read, the daemon's request decode and
// response encode, the gateway's routing computation (conflict.Build plus
// alloccache.CanonicalHash), and a warm in-memory cache lookup. It also
// times the engine layers on fresh streams, the fleet's cold path.
func codecLayers(ctx context.Context, l *layers, s *fleetState, responses []server.Response, seconds float64) error {
	store, err := parmem.OpenCacheStore(parmem.CacheConfig{})
	if err != nil {
		return err
	}
	defer store.Close()
	ops := newFleetOps(0, 0, fleetEdits)
	var fresh []stream
	for len(fresh) < 8 {
		if op := ops.next(); op.Kind == opFresh {
			fresh = append(fresh, *op.Fresh)
		}
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for i, h := range s.hot {
			req := h.request()
			t0 := time.Now()
			payload, err := json.Marshal(req)
			l.since("client.encode_us", t0)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			t0 = time.Now()
			if err := server.WriteFrame(&buf, server.Frame{Op: server.OpAssign, ID: 1, Payload: payload}); err != nil {
				return err
			}
			f, err := server.ReadFrame(&buf, server.DefaultMaxFrame)
			l.since("server.frame_us", t0)
			if err != nil {
				return err
			}
			var got server.AssignRequest
			t0 = time.Now()
			err = json.Unmarshal(f.Payload, &got)
			l.since("server.decode_us", t0)
			if err != nil {
				return err
			}
			instrs := toInstrs(got.Instrs)
			t0 = time.Now()
			_ = alloccache.CanonicalHash(conflict.Build(instrs))
			l.since("gateway.route_us", t0)
			acfg := parmem.AssignConfig{K: h.K, Workers: 1, Store: store}
			if h.Backtrack {
				acfg.Method = parmem.Backtrack
			}
			if round > 0 { // round 0 fills the cache
				t0 = time.Now()
			}
			if _, err := parmem.AssignValues(ctx, instrs, acfg); err != nil {
				return err
			}
			if round > 0 {
				l.since("alloccache.lookup_ms", t0)
			}
			if len(responses) > 0 {
				resp := responses[i%len(responses)]
				t0 = time.Now()
				out, err := json.Marshal(resp)
				l.since("server.encode_us", t0)
				if err != nil {
					return err
				}
				var back server.Response
				t0 = time.Now()
				err = json.Unmarshal(out, &back)
				l.since("client.decode_us", t0)
				if err != nil {
					return err
				}
			}
		}
		for _, f := range fresh {
			instrs := toInstrs(f.Instrs)
			engineLayers(l, instrs, 1, round == 0)
			rec, ring := tracer()
			acfg := engineConfig(f, rec)
			acfg.Workers = 1
			al, err := parmem.AssignValues(ctx, instrs, acfg)
			if err != nil {
				return err
			}
			l.spanTimes(ring)
			if round == 0 {
				allocCounts(l, al)
			}
		}
	}
	return nil
}
