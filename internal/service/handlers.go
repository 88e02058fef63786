package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"encoding/json"

	"numaio/internal/cli"
	"numaio/internal/cluster"
	"numaio/internal/core"
	"numaio/internal/numa"
	"numaio/internal/sched"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
	"numaio/internal/units"
)

// configJSON is the wire form of core.Config; zero fields take the
// characterizer defaults.
type configJSON struct {
	Threads        int     `json:"threads,omitempty"`
	Repeats        int     `json:"repeats,omitempty"`
	BytesPerThread int64   `json:"bytes_per_thread,omitempty"`
	GapThreshold   float64 `json:"gap_threshold,omitempty"`
	Sigma          float64 `json:"sigma,omitempty"`
	// Parallelism overrides the daemon's measurement worker-pool width for
	// this request; 0 inherits the daemon default. Affects wall time only —
	// the resulting model is identical at any setting.
	Parallelism int `json:"parallelism,omitempty"`
}

func (c *configJSON) toCore() core.Config {
	if c == nil {
		return core.Config{}
	}
	return core.Config{
		Threads:        c.Threads,
		Repeats:        c.Repeats,
		BytesPerThread: units.Size(c.BytesPerThread),
		GapThreshold:   c.GapThreshold,
		Sigma:          c.Sigma,
		Parallelism:    c.Parallelism,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

type characterizeRequest struct {
	Machine json.RawMessage `json:"machine,omitempty"`
	Config  *configJSON     `json:"config,omitempty"`
	Async   bool            `json:"async,omitempty"`
}

type characterizeResponse struct {
	Fingerprint   string  `json:"fingerprint"`
	Cached        bool    `json:"cached"`
	CostReduction float64 `json:"cost_reduction"`
	// Stale marks a model served from an expired cache entry because
	// recomputation failed (or its circuit breaker is open) — the last
	// good model, degraded gracefully rather than a 500.
	Stale bool               `json:"stale,omitempty"`
	Model *core.MachineModel `json:"model"`
}

func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	stg := telemetry.StagesFromContext(r.Context())
	start := time.Now()
	var req characterizeRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	start = stg.Lap("decode", start)
	m, fp, err := cli.ResolveMachine(req.Machine)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	stg.Lap("resolve", start)
	cfg := req.Config.toCore()

	if req.Async {
		job := s.jobs.New()
		snapshot := *job // the worker goroutine mutates job; respond with a copy
		err := s.pool.Submit(func() {
			s.jobs.SetState(job.ID, JobRunning, "", nil)
			mm, _, _, err := s.characterizeCached(context.Background(), m, fp, cfg)
			if err != nil {
				s.jobs.SetState(job.ID, JobFailed, fp, err)
				return
			}
			s.jobs.SetState(job.ID, JobDone, mm.Fingerprint, nil)
		})
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeJSON(w, http.StatusAccepted, snapshot)
		return
	}

	mm, cached, stale, err := s.characterizeCached(r.Context(), m, fp, cfg)
	if err != nil {
		writeError(w, errStatus(err), "characterization failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, characterizeResponse{
		Fingerprint:   fp,
		Cached:        cached,
		CostReduction: mm.CostReduction(),
		Stale:         stale,
		Model:         mm,
	})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	mm, ok := s.cache.FindByFingerprint(fp)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached model with fingerprint %q", fp)
		return
	}
	writeJSON(w, http.StatusOK, mm)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

type predictRequest struct {
	Machine     json.RawMessage `json:"machine,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	Config      *configJSON     `json:"config,omitempty"`
	Target      int             `json:"target"`
	Mode        string          `json:"mode"`
	// Mix maps node IDs (as JSON object keys, e.g. "2") to traffic
	// fractions summing to 1; Counts to process counts. Exactly one of
	// the two must be given.
	Mix    map[string]float64 `json:"mix,omitempty"`
	Counts map[string]int     `json:"counts,omitempty"`
}

type predictResponse struct {
	Fingerprint   string  `json:"fingerprint"`
	Target        int     `json:"target"`
	Mode          string  `json:"mode"`
	PredictedBPS  float64 `json:"predicted_bps"`
	PredictedGbps float64 `json:"predicted_gbps"`
}

// modelForRequest resolves the whole-host model behind a request that
// carries either a cached fingerprint or a machine to (re-)characterize.
// Looking up the fingerprint, or resolving the machine, is the request's
// "resolve" stage.
func (s *Server) modelForRequest(ctx context.Context, fingerprint string, machine json.RawMessage, cfg core.Config) (*core.MachineModel, int, error) {
	stg := telemetry.StagesFromContext(ctx)
	start := time.Now()
	if fingerprint != "" {
		mm, ok := s.cache.FindByFingerprint(fingerprint)
		stg.Lap("resolve", start)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("no cached model with fingerprint %q (characterize first or send a machine)", fingerprint)
		}
		return mm, 0, nil
	}
	m, fp, err := cli.ResolveMachine(machine)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	stg.Lap("resolve", start)
	mm, _, _, err := s.characterizeCached(ctx, m, fp, cfg)
	if err != nil {
		return nil, errStatus(err), err
	}
	return mm, 0, nil
}

// predictOne evaluates Eq. 1 for one (target, mode, mix-or-counts) item
// against an already resolved whole-host model — the shared core of the
// single and batch predict endpoints. All failures are client errors.
func predictOne(mm *core.MachineModel, target int, modeStr string, mixIn map[string]float64, countsIn map[string]int) (units.Bandwidth, error) {
	mode, err := core.ParseMode(modeStr)
	if err != nil {
		return 0, err
	}
	if (len(mixIn) == 0) == (len(countsIn) == 0) {
		return 0, fmt.Errorf("exactly one of mix or counts is required")
	}
	model, err := mm.ModelFor(topology.NodeID(target), mode)
	if err != nil {
		return 0, err
	}
	if len(mixIn) > 0 {
		mix, err := nodeKeys(mixIn)
		if err != nil {
			return 0, err
		}
		return model.Predict(mix, nil)
	}
	counts, err := nodeKeys(countsIn)
	if err != nil {
		return 0, err
	}
	return model.PredictCounts(counts, nil)
}

// predictCacheKey canonicalizes a predict request: machine/fingerprint,
// characterization options, target, mode and the sorted mix or counts.
// Requests that differ only in JSON key order map to the same key.
func predictCacheKey(req *predictRequest, cfg core.Config) string {
	var b strings.Builder
	b.Write(req.Machine)
	b.WriteByte('|')
	b.WriteString(req.Fingerprint)
	b.WriteByte('|')
	b.WriteString(configKey(cfg))
	fmt.Fprintf(&b, "|%d|%s", req.Target, req.Mode)
	appendMixKey(&b, req.Mix, req.Counts)
	return b.String()
}

// appendMixKey appends the sorted canonical form of a mix or counts map.
func appendMixKey(b *strings.Builder, mix map[string]float64, counts map[string]int) {
	if len(mix) > 0 {
		keys := make([]string, 0, len(mix))
		for k := range mix {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("|mix")
		for _, k := range keys {
			b.WriteByte(',')
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(strconv.FormatFloat(mix[k], 'g', -1, 64))
		}
	}
	if len(counts) > 0 {
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("|counts")
		for _, k := range keys {
			b.WriteByte(',')
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(strconv.Itoa(counts[k]))
		}
	}
}

// handlePredict serves a predict request whose body handleCached has read
// and found in no exact-bytes index.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, body []byte) {
	stg := telemetry.StagesFromContext(r.Context())
	start := time.Now()
	var req predictRequest
	if err := decodeBody(bytes.NewReader(body), &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Cheap validation before any model work, so malformed requests cannot
	// trigger a characterization.
	if _, err := core.ParseMode(req.Mode); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if (len(req.Mix) == 0) == (len(req.Counts) == 0) {
		writeError(w, http.StatusBadRequest, "exactly one of mix or counts is required")
		return
	}
	if err := firstErr(validateNodeKeys(req.Mix), validateNodeKeys(req.Counts)); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg := req.Config.toCore()
	start = stg.Lap("decode", start)
	key := predictCacheKey(&req, cfg)
	cached, hit := s.predictCache.Get(key)
	if hit {
		s.predictCache.Alias(key, body)
	}
	stg.Lap("cache", start)
	if hit {
		writeJSONBytes(w, http.StatusOK, cached)
		return
	}
	mm, status, err := s.modelForRequest(r.Context(), req.Fingerprint, req.Machine, cfg)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	start = time.Now()
	predicted, err := predictOne(mm, req.Target, req.Mode, req.Mix, req.Counts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	stg.Lap("predict", start)
	writeJSONCached(w, http.StatusOK, predictResponse{
		Fingerprint:   mm.Fingerprint,
		Target:        req.Target,
		Mode:          req.Mode,
		PredictedBPS:  float64(predicted),
		PredictedGbps: predicted.Gbps(),
	}, s.predictCache, key)
}

// predictBatchRequest amortizes one model resolution over many prediction
// items — POST /v1/predict/batch.
type predictBatchRequest struct {
	Machine     json.RawMessage    `json:"machine,omitempty"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Config      *configJSON        `json:"config,omitempty"`
	Items       []predictBatchItem `json:"items"`
}

type predictBatchItem struct {
	Target int                `json:"target"`
	Mode   string             `json:"mode"`
	Mix    map[string]float64 `json:"mix,omitempty"`
	Counts map[string]int     `json:"counts,omitempty"`
}

// predictBatchResult is one item's outcome; a bad item reports its error
// in place without failing the batch.
type predictBatchResult struct {
	Target        int     `json:"target"`
	Mode          string  `json:"mode"`
	PredictedBPS  float64 `json:"predicted_bps,omitempty"`
	PredictedGbps float64 `json:"predicted_gbps,omitempty"`
	Error         string  `json:"error,omitempty"`
}

type predictBatchResponse struct {
	Fingerprint string               `json:"fingerprint"`
	Results     []predictBatchResult `json:"results"`
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	stg := telemetry.StagesFromContext(r.Context())
	start := time.Now()
	var req predictBatchRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no items")
		return
	}
	stg.Lap("decode", start)
	mm, status, err := s.modelForRequest(r.Context(), req.Fingerprint, req.Machine, req.Config.toCore())
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	start = time.Now()
	resp := predictBatchResponse{
		Fingerprint: mm.Fingerprint,
		Results:     make([]predictBatchResult, len(req.Items)),
	}
	for i, it := range req.Items {
		res := predictBatchResult{Target: it.Target, Mode: it.Mode}
		if predicted, err := predictOne(mm, it.Target, it.Mode, it.Mix, it.Counts); err != nil {
			res.Error = err.Error()
		} else {
			res.PredictedBPS = float64(predicted)
			res.PredictedGbps = predicted.Gbps()
		}
		resp.Results[i] = res
	}
	stg.Lap("predict", start)
	writeJSON(w, http.StatusOK, resp)
}

// validateNodeKeys checks that every key parses as a node ID without
// building the converted map — the cheap pre-resolution validation pass.
func validateNodeKeys[V any](in map[string]V) error {
	for k := range in {
		if _, err := strconv.Atoi(k); err != nil {
			return fmt.Errorf("node key %q is not an integer", k)
		}
	}
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// nodeKeys converts a JSON object keyed by node-ID strings into a NodeID
// map.
func nodeKeys[V any](in map[string]V) (map[topology.NodeID]V, error) {
	out := make(map[topology.NodeID]V, len(in))
	for k, v := range in {
		n, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("node key %q is not an integer", k)
		}
		out[topology.NodeID(n)] = v
	}
	return out, nil
}

type placeRequest struct {
	Machine     json.RawMessage `json:"machine,omitempty"`
	Config      *configJSON     `json:"config,omitempty"`
	Target      int             `json:"target"`
	Engine      string          `json:"engine,omitempty"` // default memcpy
	Tasks       int             `json:"tasks"`
	Policies    []string        `json:"policies,omitempty"` // default: all
	Evaluate    bool            `json:"evaluate,omitempty"`
	SizePerTask int64           `json:"size_per_task,omitempty"`
	// Replicas > 1 switches to cluster placement over that many identical
	// hosts under ClusterPolicy (default model-greedy).
	Replicas      int    `json:"replicas,omitempty"`
	ClusterPolicy string `json:"cluster_policy,omitempty"`
}

type placementResult struct {
	Policy      string  `json:"policy"`
	Placement   []int   `json:"placement"`
	EstimateBPS float64 `json:"estimate_bps"`
	MeasuredBPS float64 `json:"measured_bps,omitempty"`
}

type clusterAssignment struct {
	Host string `json:"host"`
	Node int    `json:"node"`
}

type placeResponse struct {
	Fingerprint string            `json:"fingerprint"`
	Target      int               `json:"target"`
	Engine      string            `json:"engine"`
	Tasks       int               `json:"tasks"`
	Results     []placementResult `json:"results,omitempty"`
	// Cluster mode only:
	ClusterPolicy string              `json:"cluster_policy,omitempty"`
	Assignments   []clusterAssignment `json:"assignments,omitempty"`
	AggregateBPS  float64             `json:"aggregate_bps,omitempty"`
}

// engine is the request's engine, memcpy when it names none.
func (req *placeRequest) engine() string {
	if req.Engine == "" {
		return "memcpy"
	}
	return req.Engine
}

// placeCacheKey canonicalizes every placement-shaping field of a place
// request. Placements and (simulated) evaluations are deterministic, so
// equal-shaped requests share one rendered response. The free-form
// strings are quoted, so no engine, policy or cluster policy can spell
// another request's fields.
func placeCacheKey(req *placeRequest, cfg core.Config) string {
	var b strings.Builder
	b.Write(req.Machine)
	b.WriteByte('|')
	b.WriteString(configKey(cfg))
	fmt.Fprintf(&b, "|%d|%q|%d|%t|%d|%d|%q|%q",
		req.Target, req.engine(), req.Tasks, req.Evaluate, req.SizePerTask,
		req.Replicas, req.ClusterPolicy, req.Policies)
	return b.String()
}

// handlePlace serves a place request whose body handleCached has read and
// found in no exact-bytes index.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request, body []byte) {
	stg := telemetry.StagesFromContext(r.Context())
	start := time.Now()
	var req placeRequest
	if err := decodeBody(bytes.NewReader(body), &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Tasks <= 0 {
		writeError(w, http.StatusBadRequest, "tasks must be positive")
		return
	}
	engine := req.engine()
	cfg := req.Config.toCore()
	start = stg.Lap("decode", start)
	key := placeCacheKey(&req, cfg)
	cached, hit := s.placeCache.Get(key)
	if hit {
		s.placeCache.Alias(key, body)
	}
	start = stg.Lap("cache", start)
	if hit {
		writeJSONBytes(w, http.StatusOK, cached)
		return
	}
	m, fp, err := cli.ResolveMachine(req.Machine)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	stg.Lap("resolve", start)
	mm, _, _, err := s.characterizeCached(r.Context(), m, fp, cfg)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	// Placement, with its estimates or evaluation, is the request's
	// "predict" stage.
	start = time.Now()
	target := topology.NodeID(req.Target)
	resp := placeResponse{Fingerprint: mm.Fingerprint, Target: req.Target, Engine: engine, Tasks: req.Tasks}

	if req.Replicas > 1 {
		if err := s.placeCluster(&resp, m, mm, target, engine, req); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		stg.Lap("predict", start)
		writeJSONCached(w, http.StatusOK, resp, s.placeCache, key)
		return
	}

	sys, err := numa.NewSystem(m.Clone())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	sch, err := sched.FromMachineModel(sys, mm, target)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	policies := req.Policies
	if len(policies) == 0 {
		for _, p := range []sched.Policy{sched.LocalOnly, sched.HopDistance, sched.RoundRobin, sched.ClassBalanced} {
			policies = append(policies, p.String())
		}
	}
	for _, ps := range policies {
		p, err := sched.ParsePolicy(ps)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		placement, err := sch.Place(engine, req.Tasks, p)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		res := placementResult{Policy: ps, Placement: nodeInts(placement)}
		if est, err := sch.Estimate(engine, placement); err == nil {
			res.EstimateBPS = float64(est)
		}
		if req.Evaluate {
			rep, err := sch.Evaluate(engine, placement, units.Size(req.SizePerTask))
			if err != nil {
				writeError(w, http.StatusInternalServerError, "%v", err)
				return
			}
			res.MeasuredBPS = float64(rep.Aggregate)
		}
		resp.Results = append(resp.Results, res)
	}
	stg.Lap("predict", start)
	writeJSONCached(w, http.StatusOK, resp, s.placeCache, key)
}

// placeCluster handles the replicas > 1 arm: identical hosts sharing the
// cached characterization, placed with the cluster-level policies.
func (s *Server) placeCluster(resp *placeResponse, m *topology.Machine, mm *core.MachineModel, target topology.NodeID, engine string, req placeRequest) error {
	ps := req.ClusterPolicy
	if ps == "" {
		ps = cluster.ModelGreedy.String()
	}
	policy, err := cluster.ParsePolicy(ps)
	if err != nil {
		return err
	}
	var specs []cluster.HostSpec
	for i := 0; i < req.Replicas; i++ {
		sys, err := numa.NewSystem(m.Clone())
		if err != nil {
			return err
		}
		specs = append(specs, cluster.HostSpec{
			Name: fmt.Sprintf("host%d", i), Sys: sys, Models: mm, Target: target,
		})
	}
	cl, err := cluster.FromModels(specs)
	if err != nil {
		return err
	}
	assignments, err := cl.Place(engine, req.Tasks, policy)
	if err != nil {
		return err
	}
	resp.ClusterPolicy = ps
	for _, a := range assignments {
		resp.Assignments = append(resp.Assignments, clusterAssignment{Host: a.Host, Node: int(a.Node)})
	}
	if req.Evaluate {
		ev, err := cl.Evaluate(engine, assignments, units.Size(req.SizePerTask))
		if err != nil {
			return err
		}
		resp.AggregateBPS = float64(ev.Aggregate)
	}
	return nil
}

func nodeInts(nodes []topology.NodeID) []int {
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = int(n)
	}
	return out
}

type degradeJSON struct {
	A      string  `json:"a"`
	B      string  `json:"b"`
	Factor float64 `json:"factor"`
}

type whatifRequest struct {
	Machine json.RawMessage `json:"machine,omitempty"`
	Config  *configJSON     `json:"config,omitempty"`
	Target  int             `json:"target"`
	Modes   []string        `json:"modes,omitempty"` // default: write and read
	Degrade []degradeJSON   `json:"degrade"`
}

type nodeDiffJSON struct {
	Node         int     `json:"node"`
	BeforeBPS    float64 `json:"before_bps"`
	AfterBPS     float64 `json:"after_bps"`
	ClassBefore  int     `json:"class_before"`
	ClassAfter   int     `json:"class_after"`
	RelChange    float64 `json:"rel_change"`
	ClassChanged bool    `json:"class_changed"`
}

type whatifModeResult struct {
	Mode         string         `json:"mode"`
	Diffs        []nodeDiffJSON `json:"diffs"`
	ChangedNodes []int          `json:"changed_nodes"`
}

type whatifResponse struct {
	BeforeFingerprint string             `json:"before_fingerprint"`
	AfterFingerprint  string             `json:"after_fingerprint"`
	Target            int                `json:"target"`
	Results           []whatifModeResult `json:"results"`
}

func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	stg := telemetry.StagesFromContext(r.Context())
	start := time.Now()
	var req whatifRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if len(req.Degrade) == 0 {
		writeError(w, http.StatusBadRequest, "degrade list is empty: nothing to re-characterize")
		return
	}
	start = stg.Lap("decode", start)
	base, beforeFP, err := cli.ResolveMachine(req.Machine)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Reject an unknown target or mode before paying for a sweep.
	target := topology.NodeID(req.Target)
	if _, ok := base.Node(target); !ok {
		writeError(w, http.StatusBadRequest, "unknown target node %d", req.Target)
		return
	}
	names := req.Modes
	if len(names) == 0 {
		names = []string{core.ModeWrite.String(), core.ModeRead.String()}
	}
	modes := make([]core.Mode, len(names))
	for i, ms := range names {
		if modes[i], err = core.ParseMode(ms); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	// base may be the process-wide shared profile machine: degrade a copy.
	mutant := base.Clone()
	for _, d := range req.Degrade {
		if err := mutant.DegradeLinkBetween(d.A, d.B, d.Factor); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	afterFP, err := topology.Fingerprint(mutant)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	stg.Lap("resolve", start)
	cfg := req.Config.toCore()
	beforeMM, _, _, err := s.characterizeCached(r.Context(), base, beforeFP, cfg)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	// The mutant's sweep copies every sample the degradation cannot reach
	// from the base model; the result equals a fresh sweep byte for byte.
	cfg.Base = &core.Base{Machine: base, Model: beforeMM}
	afterMM, _, _, err := s.characterizeCached(r.Context(), mutant, afterFP, cfg)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}

	// Diffing the two models is the request's "predict" stage.
	start = time.Now()
	resp := whatifResponse{BeforeFingerprint: beforeFP, AfterFingerprint: afterFP, Target: req.Target}
	for i, mode := range modes {
		before, err := beforeMM.ModelFor(target, mode)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		after, err := afterMM.ModelFor(target, mode)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		diffs, err := core.Diff(before, after)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		res := whatifModeResult{Mode: names[i]}
		for _, d := range diffs {
			res.Diffs = append(res.Diffs, nodeDiffJSON{
				Node:         int(d.Node),
				BeforeBPS:    float64(d.Before),
				AfterBPS:     float64(d.After),
				ClassBefore:  d.ClassBefore,
				ClassAfter:   d.ClassAfter,
				RelChange:    d.RelChange,
				ClassChanged: d.ClassChanged,
			})
			if d.ClassChanged {
				res.ChangedNodes = append(res.ChangedNodes, int(d.Node))
			}
		}
		sort.Ints(res.ChangedNodes)
		resp.Results = append(resp.Results, res)
	}
	stg.Lap("predict", start)
	writeJSON(w, http.StatusOK, resp)
}
