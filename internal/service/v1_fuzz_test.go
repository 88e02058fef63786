package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"

	"numaio/internal/cli"
	"numaio/internal/core"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
)

// fuzzModel is a dl585g7 whole-host model, characterized once per process.
var fuzzModel = sync.OnceValues(func() (*core.MachineModel, error) {
	m, fp, err := cli.ResolveMachine(json.RawMessage(`"dl585g7"`))
	if err != nil {
		return nil, err
	}
	mm, err := DefaultCharacterize(context.Background(), m, core.Config{Repeats: 1, Sigma: -1})
	if err != nil {
		return nil, err
	}
	mm.Fingerprint = fp
	return mm, nil
})

// failingTransport refuses every outbound request.
type failingTransport struct{}

func (failingTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("fuzz target makes no network calls")
}

// FuzzV1Bodies sends each input, as a request body, to the v1 routes that
// decode one beyond predict and place: POST /v1/characterize,
// /v1/predict/batch, /v1/whatif and /v1/models/pull, and PUT
// /v1/models/{fingerprint}. The daemon runs no sweep, since its
// characterizer returns a precomputed dl585g7 model, and makes no network
// call, since its pull client fails every request. Every answer must be a
// 2xx with a JSON body or the uniform {"error": ...} body, never a 500,
// and a pull the daemon had to fetch is a 502.
func FuzzV1Bodies(f *testing.F) {
	base, err := fuzzModel()
	if err != nil {
		f.Fatal(err)
	}
	model, err := json.Marshal(base)
	if err != nil {
		f.Fatal(err)
	}
	// The docs/SERVICE.md examples, the model the PUT route installs, and
	// a few near misses.
	for _, seed := range []string{
		`{"machine": "intel-4s4n", "config": {"repeats": 2}}`,
		`{"machine": "amd-8s8n", "async": true}`,
		`{"fingerprint": "` + base.Fingerprint + `", "target": 0, "mode": "write", "mix": {"0": 0.5, "2": 0.5}}`,
		`{"machine": "intel-4s4n", "items": [
		   {"target": 0, "mode": "write", "mix": {"0": 0.5, "2": 0.5}},
		   {"target": 3, "mode": "read",  "counts": {"1": 2, "2": 2}}]}`,
		`{"machine": "intel-4s4n", "target": 0, "tasks": 8, "evaluate": true}`,
		`{"machine": "intel-4s4n", "target": 3, "degrade": [{"a": "node0", "b": "node3", "factor": 0.5}]}`,
		`{"machine": "dl585g7", "target": 7, "modes": ["read"], "degrade": [{"a": "node0", "b": "node7", "factor": 0}]}`,
		`{"fingerprint": "deadbeef", "source": "http://127.0.0.1:8081"}`,
		`{"fingerprint": "` + base.Fingerprint + `", "source": "http://127.0.0.1:8081/"}`,
		string(model),
		`{"machine": "intel-4s4n"} {}`,
		`{"machine": {"nodes": []}}`,
		`[]`,
		``,
	} {
		f.Add(seed)
	}

	s := New(Config{
		Workers: 2,
		Characterize: func(context.Context, *topology.Machine, core.Config) (*core.MachineModel, error) {
			mm, err := fuzzModel()
			if err != nil {
				return nil, err
			}
			cp := *mm // characterizeCached stamps the fingerprint
			return &cp, nil
		},
		PullClient: &http.Client{Transport: failingTransport{}},
	})
	f.Fuzz(func(t *testing.T, body string) {
		for _, route := range []struct{ method, path string }{
			{http.MethodPost, "/v1/characterize"},
			{http.MethodPost, "/v1/predict/batch"},
			{http.MethodPost, "/v1/whatif"},
			{http.MethodPost, "/v1/models/pull"},
			{http.MethodPut, "/v1/models/" + base.Fingerprint},
		} {
			rec := serve(s, route.method, route.path, body)
			got := rec.Body.Bytes()
			switch {
			case rec.Code == http.StatusInternalServerError:
				t.Fatalf("%s %s %q: 500 %s", route.method, route.path, body, got)
			case rec.Code >= 200 && rec.Code < 300:
				if !json.Valid(got) {
					t.Fatalf("%s %s %q: %d with a body that is not JSON: %s", route.method, route.path, body, rec.Code, got)
				}
			default:
				var e struct {
					Error string `json:"error"`
				}
				if err := telemetry.Decode(got, &e); err != nil || e.Error == "" {
					t.Fatalf("%s %s %q: %d without the uniform error body: %s", route.method, route.path, body, rec.Code, got)
				}
			}
			if route.path == "/v1/models/pull" && rec.Code == http.StatusOK && strings.Contains(string(got), `"installed": true`) {
				t.Fatalf("pull %q installed a model with no network: %s", body, got)
			}
			if route.path == "/v1/models/pull" && fetches(s, body) && rec.Code != http.StatusBadGateway {
				t.Fatalf("pull %q had to fetch and answered %d, want 502: %s", body, rec.Code, got)
			}
		}
	})
}

// fetches reports whether a pull body is one the daemon must fetch: a
// well-formed request for a model it does not hold, from a source that
// makes a valid URL.
func fetches(s *Server, body string) bool {
	var req modelPullRequest
	if telemetry.Decode([]byte(body), &req) != nil || req.Fingerprint == "" || req.Source == "" {
		return false
	}
	if _, ok := s.cache.FindByFingerprint(req.Fingerprint); ok {
		return false
	}
	_, err := http.NewRequest(http.MethodGet, strings.TrimRight(req.Source, "/")+"/v1/models/"+req.Fingerprint, nil)
	return err == nil
}
