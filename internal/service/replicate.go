package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"numaio/internal/core"
	"numaio/internal/telemetry"
)

// Replication hooks: the fleet gateway (internal/fleet) replicates hot
// models to ring peers for read availability. A peer can be handed a model
// directly (PUT /v1/models/{fingerprint}) or told to pull it from the
// replica that owns it (POST /v1/models/pull). Installed models land in
// the ordinary model cache — fingerprint-addressed requests (predict,
// place by fingerprint, GET /v1/models) hit them immediately, and TTL and
// LRU pressure age them out like any locally computed entry.

// installKey namespaces replicated entries in the model cache so they can
// never collide with locally computed (fingerprint|config) keys.
func installKey(fp string) string { return "installed|" + fp }

// installModel validates and caches a replicated model.
func (s *Server) installModel(fp string, mm *core.MachineModel) error {
	if fp == "" {
		return fmt.Errorf("fingerprint is required")
	}
	if mm.Fingerprint == "" {
		mm.Fingerprint = fp
	}
	if mm.Fingerprint != fp {
		return fmt.Errorf("model fingerprint %q does not match %q", mm.Fingerprint, fp)
	}
	if len(mm.Models) == 0 {
		return fmt.Errorf("model has no per-target entries")
	}
	s.cache.Install(installKey(fp), mm)
	s.installs.Inc()
	return nil
}

// handleModelInstall is PUT /v1/models/{fingerprint}: install a model
// shipped in the request body (the push half of replication). The body is
// bounded like every other request body: over telemetry.MaxBodyBytes is a
// 413.
func (s *Server) handleModelInstall(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	var mm core.MachineModel
	if !telemetry.DecodeRequest(w, r, &mm) {
		return
	}
	if err := s.installModel(fp, &mm); err != nil {
		telemetry.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.log.Info("model installed", "fingerprint", fp, "source", "push")
	telemetry.WriteJSON(w, http.StatusOK, map[string]any{"fingerprint": fp, "installed": true})
}

// modelPullRequest is the POST /v1/models/pull body.
type modelPullRequest struct {
	Fingerprint string `json:"fingerprint"`
	// Source is the base URL of the replica holding the model.
	Source string `json:"source"`
}

// handleModelPull is POST /v1/models/pull: fetch the named model from a
// peer replica's GET /v1/models endpoint and install it (the pull half of
// replication, driven by the gateway's hot-model tracking). The peer's
// answer is read through telemetry.ReadBody: one over
// telemetry.MaxBodyBytes is a 502, like any other bad peer answer.
func (s *Server) handleModelPull(w http.ResponseWriter, r *http.Request) {
	var req modelPullRequest
	if !telemetry.DecodeRequest(w, r, &req) {
		return
	}
	if req.Fingerprint == "" || req.Source == "" {
		telemetry.WriteError(w, http.StatusBadRequest, "fingerprint and source are required")
		return
	}
	if _, ok := s.cache.FindByFingerprint(req.Fingerprint); ok {
		// Already held (computed locally or previously replicated) — a
		// cheap no-op, not an error, so repeated pulls converge.
		telemetry.WriteJSON(w, http.StatusOK, map[string]any{"fingerprint": req.Fingerprint, "installed": false})
		return
	}
	// The fetch is a hop of the same logical operation, so the source
	// replica's span joins the pulling request's trace.
	url := strings.TrimRight(req.Source, "/") + "/v1/models/" + req.Fingerprint
	preq, err := telemetry.NewHop(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		telemetry.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := s.pullClient.Do(preq)
	if err != nil {
		telemetry.WriteError(w, http.StatusBadGateway, "pulling model from %s: %v", req.Source, err)
		return
	}
	body, err := telemetry.ReadBody(resp.Body)
	resp.Body.Close()
	if err != nil {
		telemetry.WriteError(w, http.StatusBadGateway, "reading model from %s: %v", req.Source, err)
		return
	}
	defer body.Release()
	if resp.StatusCode != http.StatusOK {
		telemetry.WriteError(w, http.StatusBadGateway, "source %s returned %d: %s",
			req.Source, resp.StatusCode, bytes.TrimSpace(body.Bytes()))
		return
	}
	var mm core.MachineModel
	if err := json.Unmarshal(body.Bytes(), &mm); err != nil {
		telemetry.WriteError(w, http.StatusBadGateway, "decoding model from %s: %v", req.Source, err)
		return
	}
	if err := s.installModel(req.Fingerprint, &mm); err != nil {
		telemetry.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	s.log.Info("model installed", "fingerprint", req.Fingerprint, "source", req.Source)
	telemetry.WriteJSON(w, http.StatusOK, map[string]any{"fingerprint": req.Fingerprint, "installed": true})
}
