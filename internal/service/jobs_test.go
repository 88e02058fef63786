package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"numaio/internal/core"
	"numaio/internal/topology"
)

// stubServer builds a daemon whose characterizer returns an empty model at
// once, so async jobs cost no sweep.
func stubServer() *Server {
	return New(Config{
		Workers: 2,
		Characterize: func(context.Context, *topology.Machine, core.Config) (*core.MachineModel, error) {
			return &core.MachineModel{}, nil
		},
	})
}

func serve(s *Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestJobRegistryBounded: past maxFinishedJobs finished jobs, the oldest
// is forgotten first, and the newest is still served.
func TestJobRegistryBounded(t *testing.T) {
	s := stubServer()
	const extra = 3
	for i := 1; i <= maxFinishedJobs+extra; i++ {
		rec := serve(s, http.MethodPost, "/v1/characterize", `{"machine": "intel-4s4n", "async": true}`)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("async characterize %d = %d: %s", i, rec.Code, rec.Body)
		}
		// Wait for each job, so the jobs finish in submission order.
		id := fmt.Sprintf("job-%06d", i)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			if job, ok := s.jobs.Get(id); ok && job.State == JobDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never finished", id)
			}
		}
	}
	for i, want := range map[int]int{
		1:                       http.StatusNotFound,
		extra:                   http.StatusNotFound,
		extra + 1:               http.StatusOK,
		maxFinishedJobs + extra: http.StatusOK,
	} {
		if rec := serve(s, http.MethodGet, fmt.Sprintf("/v1/jobs/job-%06d", i), ""); rec.Code != want {
			t.Errorf("job %d = %d, want %d", i, rec.Code, want)
		}
	}
	if n := len(s.jobs.jobs); n != maxFinishedJobs {
		t.Errorf("registry holds %d jobs, want %d", n, maxFinishedJobs)
	}
}

// TestRefusedJobNotRegistered: an async characterization the draining
// pool refuses is a 503 and leaves no pending job behind.
func TestRefusedJobNotRegistered(t *testing.T) {
	s := stubServer()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := serve(s, http.MethodPost, "/v1/characterize", `{"machine": "intel-4s4n", "async": true}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("async characterize while draining = %d: %s", rec.Code, rec.Body)
	}
	if rec := serve(s, http.MethodGet, "/v1/jobs/job-000001", ""); rec.Code != http.StatusNotFound {
		t.Errorf("refused job = %d: %s, want 404", rec.Code, rec.Body)
	}
}
