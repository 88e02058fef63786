package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"numaio/internal/cli"
	"numaio/internal/service"
	"numaio/internal/topology"
)

// TestSharedProfileMachineStaysReadOnly: a named profile resolves to one
// machine shared by every request in the process. Predict, place with
// evaluate, what-if and async characterize requests on that profile run
// concurrently against one server; afterwards the shared machine must
// still fingerprint to its original value. Under -race, a handler writing
// to it would also be reported as a data race.
func TestSharedProfileMachineStaysReadOnly(t *testing.T) {
	shared, wantFP, err := cli.ResolveMachine(json.RawMessage(`"dl585g7"`))
	if err != nil {
		t.Fatal(err)
	}
	if fresh, _ := topology.Fingerprint(topology.DL585G7()); wantFP != fresh {
		t.Fatalf("memoized fingerprint %s, fresh build %s", wantFP, fresh)
	}
	svc := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	const cfg = `"machine": "dl585g7", "config": {"repeats": 1, "sigma": -1}`
	type request struct{ path, body string }
	var reqs []request
	add := func(path, format string, args ...any) {
		reqs = append(reqs, request{path, fmt.Sprintf(format, args...)})
	}
	for i := 0; i < 4; i++ {
		add("/v1/predict", `{%s, "target": 7, "mode": "write", "mix": {"%d": 0.5, "7": 0.5}}`, cfg, i)
		add("/v1/place", `{%s, "target": 7, "tasks": %d, "evaluate": true}`, cfg, 2+i)
		add("/v1/whatif", `{%s, "target": 7, "degrade": [{"a": "node6", "b": "node7", "factor": 0.%d}]}`, cfg, 5+i)
		add("/v1/characterize", `{%s, "async": true}`, cfg)
	}
	var wg sync.WaitGroup
	for _, r := range reqs {
		wg.Add(1)
		go func(path, body string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
				t.Errorf("%s %s = %d %s", path, body, resp.StatusCode, out)
			}
		}(r.path, r.body)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	if fp, err := topology.Fingerprint(shared); err != nil || fp != wantFP {
		t.Errorf("shared dl585g7 machine now fingerprints to %s (%v), want %s", fp, err, wantFP)
	}
	if again, fp, _ := cli.ResolveMachine(json.RawMessage(`"dl585g7"`)); again != shared || fp != wantFP {
		t.Error("profile resolution no longer returns the shared machine")
	}
}
