package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// settle waits until the process's goroutines and file descriptors are
// back to the baseline, or reports what is left.
func settle(t *testing.T, what string, goroutines, fds int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs(t)
		if g <= goroutines && f <= fds {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s left %d goroutines (baseline %d) and %d fds (baseline %d):\n%s",
				what, g, goroutines, f, fds, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func openFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(ents)
}

func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameNames(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return strings.Join(a, ",") == strings.Join(b, ",")
}

// TestEveryWorkloadRunsCleanly runs each workload briefly, untraced and
// traced: each must pass its self-check and correctness check, report
// exactly the metrics BENCHMARK.json names, and leave no goroutine,
// listener or connection behind.
func TestEveryWorkloadRunsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", wl.name, "-seed", "9", "-seconds", "1", "-trace", trace, "-out", t.TempDir()}
			res, err := run(context.Background(), args, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %s: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", wl.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !sameNames(keys(res.Metrics), want) {
				t.Errorf("%s trace %s: metrics %v, want %v", wl.name, trace, keys(res.Metrics), want)
			}
			settle(t, wl.name+" trace "+trace, goroutines, fds)
		}
	}
}

// TestInterruptStopsEverything cancels a run during its timed window, as
// SIGINT does: the run returns an error, prints no result, and stops
// every server, the gateway's health loop and every connection.
func TestInterruptStopsEverything(t *testing.T) {
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel once the gateway is listening and traffic flows.
	go func() {
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			if openFDs(t) > fds+8 {
				time.Sleep(200 * time.Millisecond)
				cancel()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	args := []string{"-workload", "predict-miss-fleet", "-seed", "2", "-seconds", "30", "-trace", "0"}
	res, err := run(ctx, args, io.Discard)
	if err == nil {
		t.Fatalf("interrupted run returned a result: %+v", res)
	}
	cancel()
	settle(t, "interrupted run", goroutines+1, fds)
}

// addrs lists every listener the stack opened.
func (st *stack) addrs() []string {
	var out []string
	for _, rep := range st.replicas {
		out = append(out, rep.srv.ln.Addr().String())
	}
	if st.gwSrv != nil {
		out = append(out, st.gwSrv.ln.Addr().String())
	}
	return out
}

func TestServersCloseTheirListeners(t *testing.T) {
	wl, err := lookupWorkload("predict-miss-fleet")
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStack(context.Background(), wl, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	addrs := st.addrs()
	if len(addrs) != 4 {
		t.Fatalf("fleet stack listens on %v, want 3 replicas and a gateway", addrs)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if c, err := net.Dial("tcp", a); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections after close", a)
		}
	}
}
