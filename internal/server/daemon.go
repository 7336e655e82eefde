package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parmem/internal/telemetry"
)

// Service is what a daemon process serves: parmemd's Server or parmemgw's
// Gateway.
type Service interface {
	Addr() string
	MountHealth(*telemetry.Server)
	Drain(context.Context) error
}

// RunDaemon is the process lifecycle parmemd and parmemgw share, around the
// service start builds on the process's recorder: the -trace JSONL span
// export, the "NAME: listening on ADDR" announcement scripts parse, the
// -telemetry-addr endpoint with the service's health probes, and SIGTERM or
// SIGINT → graceful drain bounded by drainGrace (a second signal exits 1 at
// once) → trace flush. It returns the process exit code.
func RunDaemon(name, traceFile, telemetryAddr string, drainGrace time.Duration, start func(*telemetry.Recorder) (Service, error)) int {
	rec := telemetry.New()
	var traceSink *telemetry.JSONLSink
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: -trace: %v\n", name, err)
			return 1
		}
		traceSink = telemetry.NewJSONLSink(f)
		traceSink.WriteProcess(name, rec.Tracer())
		rec.AddSink(traceSink)
	}
	svc, err := start(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s: listening on %s\n", name, svc.Addr())

	if telemetryAddr != "" {
		ts, err := rec.Serve(telemetryAddr)
		switch {
		case errors.Is(err, telemetry.ErrAddrInUse):
			// The service port bound fine; losing the observability
			// endpoint is worth a warning, not the process.
			fmt.Fprintf(os.Stderr, "%s: -telemetry-addr %s: %v; live endpoint disabled\n", name, telemetryAddr, err)
		case err != nil:
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		default:
			defer ts.Close()
			svc.MountHealth(ts)
			fmt.Fprintf(os.Stderr, "%s: telemetry on http://%s/metrics (health: /healthz, /readyz)\n", name, ts.Addr())
		}
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "%s: %v: draining (grace %v)\n", name, sig, drainGrace)

	ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "%s: %v during drain: exiting now\n", name, sig)
		os.Exit(1)
	}()
	if err := svc.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: drain: %v\n", name, err)
		return 1
	}
	if traceSink != nil {
		if err := traceSink.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -trace: %v\n", name, err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: drained cleanly\n", name)
	return 0
}
