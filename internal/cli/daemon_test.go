package cli

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lockedBuffer lets a test read what Serve writes while it runs.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeLifecycle: Serve announces its address, runs Ready, serves,
// and on the end of its context finishes the open request before it
// drains and prints the exit line.
func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inHandler := make(chan struct{})
	var served, drainedAfterServe, ready atomic.Bool
	var out lockedBuffer
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, Daemon{
			Name: "testd",
			Addr: "127.0.0.1:0",
			Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				close(inHandler)
				time.Sleep(50 * time.Millisecond)
				served.Store(true)
				io.WriteString(w, "ok")
			}),
			Out:             &out,
			DumpFlight:      func(io.Writer) error { return nil },
			Ready:           func() { ready.Store(true) },
			ShutdownTimeout: 5 * time.Second,
			Drain: func(context.Context) error {
				drainedAfterServe.Store(served.Load())
				return nil
			},
		})
	}()

	var base string
	for deadline := time.Now().Add(5 * time.Second); base == ""; {
		if time.Now().After(deadline) {
			t.Fatalf("no banner: %q", out.String())
		}
		if rest, ok := strings.CutPrefix(out.String(), "listening on "); ok {
			base = strings.TrimSpace(rest)
		}
		time.Sleep(time.Millisecond)
	}
	if !ready.Load() {
		t.Error("Ready did not run once the banner was out")
	}
	got := make(chan string, 1)
	go func() {
		resp, err := http.Get(base)
		if err != nil {
			got <- err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- string(b)
	}()
	<-inHandler
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v", err)
	}
	if body := <-got; body != "ok" {
		t.Errorf("open request answered %q, want ok", body)
	}
	if !drainedAfterServe.Load() {
		t.Error("Drain ran before the open request finished")
	}
	if !strings.HasSuffix(out.String(), "testd: drained, bye\n") {
		t.Errorf("output %q lacks the exit line", out.String())
	}
}

// TestServeListenError: an address that cannot be bound is Serve's error,
// before any banner.
func TestServeListenError(t *testing.T) {
	var out lockedBuffer
	err := Serve(context.Background(), Daemon{
		Name: "testd", Addr: "256.256.256.256:0", Handler: http.NotFoundHandler(), Out: &out,
		DumpFlight: func(io.Writer) error { return nil },
	})
	if err == nil || out.String() != "" {
		t.Errorf("Serve = %v, output %q; want an error and no banner", err, out.String())
	}
}
