package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"parmem/internal/gateway"
	"parmem/internal/server"
)

// The connection layer (server.Front) serves both parmemd and parmemgw, so
// every test here runs against each front end: a daemon alone, and a
// gateway in front of a daemon.

// front is what the tests need of either front end.
type front interface {
	Addr() string
	Drain(context.Context) error
}

// bootDaemon starts a daemon on a free port with test-friendly bounds.
func bootDaemon(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.FrameTimeout == 0 {
		cfg.FrameTimeout = 500 * time.Millisecond
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// bootGateway starts a gateway over one default daemon; cfg's frame bounds
// configure the gateway.
func bootGateway(t *testing.T, cfg server.Config) *gateway.Gateway {
	t.Helper()
	b := bootDaemon(t, server.Config{})
	if cfg.FrameTimeout == 0 {
		cfg.FrameTimeout = 500 * time.Millisecond
	}
	g, err := gateway.New(gateway.Config{
		Addr:          "127.0.0.1:0",
		Backends:      []string{b.Addr()},
		MaxFrameBytes: cfg.MaxFrameBytes,
		FrameTimeout:  cfg.FrameTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// forEachFront runs test once per front end; boot starts that front end.
func forEachFront(t *testing.T, test func(t *testing.T, boot func(server.Config) front)) {
	rows := []struct {
		name string
		boot func(*testing.T, server.Config) front
	}{
		{"daemon", func(t *testing.T, cfg server.Config) front { return bootDaemon(t, cfg) }},
		{"gateway", func(t *testing.T, cfg server.Config) front { return bootGateway(t, cfg) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			test(t, func(cfg server.Config) front { return row.boot(t, cfg) })
		})
	}
}

func ping(t *testing.T, addr string) (server.Response, error) {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.Ping(context.Background())
}

func TestGarbageStreamClosesOnlyThatConnection(t *testing.T) {
	forEachFront(t, func(t *testing.T, boot func(server.Config) front) {
		s := boot(server.Config{})

		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write([]byte("GET / HTTP/1.1\r\nHost: nope\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 64)
		if _, err := nc.Read(buf); err == nil {
			// Drain until close; the server must hang up.
			for err == nil {
				_, err = nc.Read(buf)
			}
		}

		// A sibling connection is unaffected.
		resp, err := ping(t, s.Addr())
		if err != nil || resp.Code != server.CodeOK {
			t.Fatalf("listener damaged by garbage stream: %+v, %v", resp, err)
		}
	})
}

func TestOversizedFrameTypedReject(t *testing.T) {
	forEachFront(t, func(t *testing.T, boot func(server.Config) front) {
		s := boot(server.Config{MaxFrameBytes: 1024})

		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		var hdr [server.HeaderLen]byte
		binary.BigEndian.PutUint16(hdr[0:2], server.Magic)
		hdr[2] = server.Version
		hdr[3] = uint8(server.OpCompile)
		binary.BigEndian.PutUint64(hdr[4:12], 42)
		binary.BigEndian.PutUint32(hdr[12:16], 1<<20)
		if _, err := nc.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		f, err := server.ReadFrame(nc, server.DefaultMaxFrame)
		if err != nil {
			t.Fatalf("expected a typed reject frame, got %v", err)
		}
		if f.ID != 42 || !f.Op.IsResponse() {
			t.Fatalf("reject frame should echo the request id: %+v", f)
		}
		if !strings.Contains(string(f.Payload), string(server.CodeInvalidArgument)) {
			t.Fatalf("reject payload: %s", f.Payload)
		}
		// The connection is then closed (the payload was never read, so the
		// stream cannot stay in sync).
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := server.ReadFrame(nc, server.DefaultMaxFrame); err == nil {
			t.Fatal("connection should be closed after an oversized frame")
		}
	})
}

func TestSlowLorisKilled(t *testing.T) {
	forEachFront(t, func(t *testing.T, boot func(server.Config) front) {
		s := boot(server.Config{FrameTimeout: 200 * time.Millisecond})

		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		var f bytes.Buffer
		if err := server.WriteFrame(&f, server.Frame{Op: server.OpPing, ID: 1}); err != nil {
			t.Fatal(err)
		}
		// First byte opens the frame window; then stall.
		if _, err := nc.Write(f.Bytes()[:1]); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 16)
		var rerr error
		for rerr == nil {
			_, rerr = nc.Read(buf)
		}
		if errors.Is(rerr, io.EOF) == false && !strings.Contains(rerr.Error(), "reset") {
			t.Logf("connection ended with: %v", rerr)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("slow-loris connection survived %v; frame timeout not enforced", elapsed)
		}

		// The front end is still serving.
		if resp, err := ping(t, s.Addr()); err != nil || resp.Code != server.CodeOK {
			t.Fatalf("server unhealthy after slow loris: %+v, %v", resp, err)
		}
	})
}

// TestDrainAnswersUnreadFrames drains right after a burst of frames lands
// on a connection: frames the server has not read yet when the last
// tracked response is written must still be answered (UNAVAILABLE), not
// lost to a reset connection.
func TestDrainAnswersUnreadFrames(t *testing.T) {
	forEachFront(t, func(t *testing.T, boot func(server.Config) front) {
		const rounds, burst = 10, 200
		for r := 0; r < rounds; r++ {
			s := boot(server.Config{PerConnInFlight: burst})
			nc, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			// One answered ping first: a connection still in the listener's
			// backlog when the drain closes the listener was never accepted,
			// and the kernel resets it.
			if err := server.WriteFrame(nc, server.Frame{Op: server.OpPing, ID: 1 << 32}); err != nil {
				t.Fatal(err)
			}
			if _, err := server.ReadFrame(nc, server.DefaultMaxFrame); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for i := 1; i <= burst; i++ {
				server.WriteFrame(&buf, server.Frame{Op: server.OpPing, ID: uint64(i)}) //nolint:errcheck // a Buffer write cannot fail
			}
			if _, err := nc.Write(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
			dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err = s.Drain(dctx)
			cancel()
			if err != nil {
				t.Fatalf("round %d: drain: %v", r, err)
			}

			nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			answered := map[uint64]bool{}
			for len(answered) < burst {
				f, err := server.ReadFrame(nc, server.DefaultMaxFrame)
				if err != nil {
					t.Fatalf("round %d: %d of %d frames answered, then %v", r, len(answered), burst, err)
				}
				var resp server.Response
				if err := json.Unmarshal(f.Payload, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Code != server.CodeOK && resp.Code != server.CodeUnavailable {
					t.Fatalf("round %d: frame %d: unexpected drain-time code %+v", r, f.ID, resp)
				}
				answered[f.ID] = true
			}
			if _, err := server.ReadFrame(nc, server.DefaultMaxFrame); !errors.Is(err, io.EOF) {
				t.Fatalf("round %d: after the last answer: want EOF, got %v", r, err)
			}
			nc.Close()
		}
	})
}
