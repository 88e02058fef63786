package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"

	"numaio/internal/cli"
	"numaio/internal/core"
	"numaio/internal/numa"
	"numaio/internal/sched"
	"numaio/internal/topology"
	"numaio/internal/units"
)

// checker verifies a workload's responses twice: every response's status
// and JSON shape as it arrives, and a deterministic sample of values after
// the window against the library's own answer for the same inputs.
type checker struct {
	wl  *workload
	seq *sequence
	// hot holds predict-hot's verified warm-up responses, one per shape;
	// every timed response must repeat its shape's bytes exactly.
	hot [][]byte
	// models caches the library's whole-host models by machine JSON.
	models map[string]*core.MachineModel
}

func newChecker(wl *workload, seq *sequence) *checker {
	return &checker{wl: wl, seq: seq, models: make(map[string]*core.MachineModel)}
}

func (c *checker) sampled(i int) bool { return c.hot == nil && i%c.wl.sampleEvery == 0 }

// Response shapes, decoded strictly.
type predictResp struct {
	Fingerprint   string  `json:"fingerprint"`
	Target        int     `json:"target"`
	Mode          string  `json:"mode"`
	PredictedBPS  float64 `json:"predicted_bps"`
	PredictedGbps float64 `json:"predicted_gbps"`
}

type whatifResp struct {
	BeforeFingerprint string `json:"before_fingerprint"`
	AfterFingerprint  string `json:"after_fingerprint"`
	Target            int    `json:"target"`
	Results           []struct {
		Mode  string `json:"mode"`
		Diffs []struct {
			Node         int     `json:"node"`
			BeforeBPS    float64 `json:"before_bps"`
			AfterBPS     float64 `json:"after_bps"`
			ClassBefore  int     `json:"class_before"`
			ClassAfter   int     `json:"class_after"`
			RelChange    float64 `json:"rel_change"`
			ClassChanged bool    `json:"class_changed"`
		} `json:"diffs"`
		ChangedNodes []int `json:"changed_nodes"`
	} `json:"results"`
}

type placeResp struct {
	Fingerprint string `json:"fingerprint"`
	Target      int    `json:"target"`
	Engine      string `json:"engine"`
	Tasks       int    `json:"tasks"`
	Results     []struct {
		Policy      string  `json:"policy"`
		Placement   []int   `json:"placement"`
		EstimateBPS float64 `json:"estimate_bps"`
		MeasuredBPS float64 `json:"measured_bps"`
	} `json:"results"`
}

func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("response shape: %w", err)
	}
	return nil
}

func positive(v float64) bool { return v > 0 && !math.IsInf(v, 0) }

// shape is the in-window check of sequence entry i's response.
func (c *checker) shape(i, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if c.hot != nil {
		if want := c.hot[i%len(c.hot)]; !bytes.Equal(body, want) {
			return fmt.Errorf("response differs from the verified one for shape %d", i%len(c.hot))
		}
		return nil
	}
	switch c.wl.path {
	case "/v1/predict":
		var r predictResp
		if err := decodeStrict(body, &r); err != nil {
			return err
		}
		if r.Fingerprint == "" || !positive(r.PredictedBPS) || !positive(r.PredictedGbps) {
			return fmt.Errorf("predict response missing fields: %s", body)
		}
	case "/v1/whatif":
		var r whatifResp
		if err := decodeStrict(body, &r); err != nil {
			return err
		}
		if r.BeforeFingerprint == "" || r.AfterFingerprint == "" || r.BeforeFingerprint == r.AfterFingerprint ||
			len(r.Results) != len(modes) {
			return fmt.Errorf("whatif response malformed: %.200s", body)
		}
		for _, res := range r.Results {
			if len(res.Diffs) == 0 {
				return fmt.Errorf("whatif response has no diffs for mode %q", res.Mode)
			}
		}
	case "/v1/place":
		var r placeResp
		if err := decodeStrict(body, &r); err != nil {
			return err
		}
		if r.Fingerprint == "" || len(r.Results) != len(policies) {
			return fmt.Errorf("place response malformed: %.200s", body)
		}
		for _, res := range r.Results {
			if len(res.Placement) != r.Tasks || !positive(res.EstimateBPS) || !positive(res.MeasuredBPS) {
				return fmt.Errorf("place result %q malformed", res.Policy)
			}
		}
	}
	return nil
}

// policies are the daemon's default placement policies, in its order.
var policies = []sched.Policy{sched.LocalOnly, sched.HopDistance, sched.RoundRobin, sched.ClassBalanced}

// model returns the library's whole-host characterization of a machine at
// the default configuration — what the daemon serves for requests that
// send no config — keeping it for later samples when keep is set.
func (c *checker) model(m *topology.Machine, keep bool) (*core.MachineModel, error) {
	var buf bytes.Buffer
	if err := m.EncodeJSON(&buf); err != nil {
		return nil, err
	}
	if mm, ok := c.models[buf.String()]; ok {
		return mm, nil
	}
	sys, err := numa.NewSystem(m)
	if err != nil {
		return nil, err
	}
	ch, err := core.NewCharacterizer(sys, core.Config{})
	if err != nil {
		return nil, err
	}
	mm, err := ch.CharacterizeAll()
	if err != nil {
		return nil, err
	}
	if keep {
		c.models[buf.String()] = mm
	}
	return mm, nil
}

// verify compares a sampled response with the library's answer for the
// request that produced it.
func (c *checker) verify(s sample) error {
	req, ok := c.seq.at(s.index)
	if !ok {
		return fmt.Errorf("no request %d", s.index)
	}
	var err error
	switch c.wl.path {
	case "/v1/predict":
		err = c.verifyPredict(req, s.body)
	case "/v1/whatif":
		err = c.verifyWhatif(req, s.body)
	case "/v1/place":
		err = c.verifyPlace(req, s.body)
	}
	if err != nil {
		return fmt.Errorf("request %d: %w", s.index, err)
	}
	return nil
}

func (c *checker) verifyPredict(reqBody, respBody []byte) error {
	var req predictBody
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return err
	}
	var got predictResp
	if err := decodeStrict(respBody, &got); err != nil {
		return err
	}
	m, err := cli.Machine(req.Machine)
	if err != nil {
		return err
	}
	mm, err := c.model(m, true)
	if err != nil {
		return err
	}
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		return err
	}
	model, err := mm.ModelFor(topology.NodeID(req.Target), mode)
	if err != nil {
		return err
	}
	mix := make(map[topology.NodeID]float64, len(req.Mix))
	for k, f := range req.Mix {
		n, err := strconv.Atoi(k)
		if err != nil {
			return err
		}
		mix[topology.NodeID(n)] = f
	}
	want, err := model.Predict(mix, nil)
	if err != nil {
		return err
	}
	if got.Fingerprint != mm.Fingerprint || got.Target != req.Target || got.Mode != req.Mode ||
		got.PredictedBPS != float64(want) || got.PredictedGbps != want.Gbps() {
		return fmt.Errorf("predict mismatch: got %+v, want fingerprint %s and %v bps", got, mm.Fingerprint, float64(want))
	}
	return nil
}

func (c *checker) verifyWhatif(reqBody, respBody []byte) error {
	var req whatifBody
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return err
	}
	var got whatifResp
	if err := decodeStrict(respBody, &got); err != nil {
		return err
	}
	base, err := cli.Machine(req.Machine)
	if err != nil {
		return err
	}
	mutant := base.Clone()
	for _, d := range req.Degrade {
		if err := mutant.DegradeLinkBetween(d.A, d.B, d.Factor); err != nil {
			return err
		}
	}
	before, err := c.model(base, true)
	if err != nil {
		return err
	}
	after, err := c.model(mutant, false) // every mutant is used once
	if err != nil {
		return err
	}
	if got.BeforeFingerprint != before.Fingerprint || got.AfterFingerprint != after.Fingerprint ||
		got.Target != req.Target || len(got.Results) != len(modes) {
		return fmt.Errorf("whatif mismatch in fingerprints or target")
	}
	for mi, ms := range modes {
		mode, err := core.ParseMode(ms)
		if err != nil {
			return err
		}
		b, err := before.ModelFor(topology.NodeID(req.Target), mode)
		if err != nil {
			return err
		}
		a, err := after.ModelFor(topology.NodeID(req.Target), mode)
		if err != nil {
			return err
		}
		diffs, err := core.Diff(b, a)
		if err != nil {
			return err
		}
		res := got.Results[mi]
		if res.Mode != ms || len(res.Diffs) != len(diffs) {
			return fmt.Errorf("whatif %s: got %d diffs, want %d", ms, len(res.Diffs), len(diffs))
		}
		var changed []int
		for j, d := range diffs {
			g := res.Diffs[j]
			if g.Node != int(d.Node) || g.BeforeBPS != float64(d.Before) || g.AfterBPS != float64(d.After) ||
				g.ClassBefore != d.ClassBefore || g.ClassAfter != d.ClassAfter ||
				g.RelChange != d.RelChange || g.ClassChanged != d.ClassChanged {
				return fmt.Errorf("whatif %s node %d: got %+v, want %+v", ms, d.Node, g, d)
			}
			if d.ClassChanged {
				changed = append(changed, int(d.Node))
			}
		}
		sort.Ints(changed)
		if fmt.Sprint(changed) != fmt.Sprint(res.ChangedNodes) {
			return fmt.Errorf("whatif %s: changed nodes %v, want %v", ms, res.ChangedNodes, changed)
		}
	}
	return nil
}

func (c *checker) verifyPlace(reqBody, respBody []byte) error {
	var req placeBody
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return err
	}
	var got placeResp
	if err := decodeStrict(respBody, &got); err != nil {
		return err
	}
	m, err := cli.Machine(req.Machine)
	if err != nil {
		return err
	}
	mm, err := c.model(m, true)
	if err != nil {
		return err
	}
	sys, err := numa.NewSystem(m.Clone())
	if err != nil {
		return err
	}
	sch, err := sched.FromMachineModel(sys, mm, topology.NodeID(req.Target))
	if err != nil {
		return err
	}
	const engine = "memcpy"
	if got.Fingerprint != mm.Fingerprint || got.Target != req.Target || got.Engine != engine ||
		got.Tasks != req.Tasks || len(got.Results) != len(policies) {
		return fmt.Errorf("place mismatch in header fields")
	}
	for pi, p := range policies {
		placement, err := sch.Place(engine, req.Tasks, p)
		if err != nil {
			return err
		}
		est, err := sch.Estimate(engine, placement)
		if err != nil {
			return err
		}
		rep, err := sch.Evaluate(engine, placement, units.Size(req.SizePerTask))
		if err != nil {
			return err
		}
		res := got.Results[pi]
		want := make([]int, len(placement))
		for j, n := range placement {
			want[j] = int(n)
		}
		if res.Policy != p.String() || fmt.Sprint(res.Placement) != fmt.Sprint(want) ||
			!sameSum(res.EstimateBPS, float64(est), len(placement)) || res.MeasuredBPS != float64(rep.Aggregate) {
			return fmt.Errorf("place %s: got %+v, want placement %v, estimate %v, measured %v",
				p, res, want, float64(est), float64(rep.Aggregate))
		}
	}
	return nil
}

// sameSum reports whether two sums of the same n terms agree within the
// rounding that summation order alone can cause. sched.Estimate sums its
// per-task rates over a map (fabric.Allocation.Aggregate), so one input
// can yield estimates a few ulps apart; every other value is compared
// exactly.
func sameSum(got, want float64, n int) bool {
	return math.Abs(got-want) <= float64(n)*0x1p-52*math.Abs(want)
}

// verifyAll checks the samples and returns how many failed, with the
// first few failures.
func (c *checker) verifyAll(samples []sample) (int64, []string) {
	var failed int64
	var errs []string
	for _, s := range samples {
		if err := c.verify(s); err != nil {
			failed++
			if len(errs) < 3 {
				errs = append(errs, err.Error())
			}
		}
	}
	return failed, errs
}
