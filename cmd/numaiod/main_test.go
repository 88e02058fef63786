package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"numaio/internal/cli"
)

// Exit-code contract (internal/cli): 0 success or -h, 1 runtime failure,
// 2 usage error.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"help", []string{"-h"}, 0},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"unexpected positional", []string{"positional"}, 2},
		{"bad workers", []string{"-workers", "0"}, 2},
		{"unusable address", []string{"-addr", "256.256.256.256:0"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, io.Discard)
			if got := cli.ExitCode(err); got != tc.want {
				t.Errorf("args %v: exit code %d (err: %v), want %d", tc.args, got, err, tc.want)
			}
		})
	}
}

// syncBuffer lets the test read the daemon's stdout while run() writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeAndGracefulShutdown boots the daemon on an ephemeral port,
// exercises the API, then cancels the signal context (the SIGTERM path)
// and verifies a clean drain.
func TestServeAndGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-quiet"}, &out)
	}()

	base := awaitBanner(t, &out)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	body := `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}}`
	resp, err = http.Post(base+"/v1/characterize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := new(bytes.Buffer)
	if _, err := io.Copy(metrics, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(metrics.String(),
		`numaiod_requests_total{endpoint="/v1/characterize",status="200"} 1`) {
		t.Errorf("metrics missing characterize counter:\n%s", metrics)
	}

	// SIGTERM path: the signal context cancels, run() drains and returns.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after context cancellation")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("no drain confirmation in output: %q", out.String())
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("daemon still serving after shutdown")
	}
}

// TestQuietLogsNothing boots the daemon with and without -quiet, serves a
// request and shuts it down, with stderr captured: -quiet must write
// nothing there, the daemon's own lines included, while the default logs
// the request.
func TestQuietLogsNothing(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantLog bool
	}{
		{[]string{"-quiet"}, false},
		{nil, true},
	} {
		stderr := captureStderr(t, func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var out syncBuffer
			done := make(chan error, 1)
			go func() {
				done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &out)
			}()
			base := awaitBanner(t, &out)
			resp, err := http.Get(base + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			cancel()
			if err := <-done; err != nil {
				t.Fatalf("shutdown returned %v", err)
			}
		})
		if logged := strings.Contains(stderr, "path=/healthz"); logged != tc.wantLog {
			t.Errorf("args %v: request logged %v, want %v; stderr:\n%s", tc.args, logged, tc.wantLog, stderr)
		}
		if !tc.wantLog && stderr != "" {
			t.Errorf("-quiet wrote to stderr:\n%s", stderr)
		}
	}
}

// captureStderr runs fn with os.Stderr redirected to a pipe and returns
// what fn wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	saved := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = saved }()
	fn()
	w.Close()
	return <-read
}

// awaitBanner waits for the daemon's listen banner and returns its base
// URL.
func awaitBanner(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				return strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never announced its address; output: %q", out.String())
	return ""
}
