package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"numaio/internal/cli"
	"numaio/internal/core"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
)

// FuzzRespCacheKeys generates predict and place requests, several
// spellings of each (key order, whitespace, number forms, fields set to
// their defaults), and a sequence of them, and checks the two properties
// the response cache rests on:
//
//   - two bodies share a canonical cache key if and only if they decode to
//     the same canonical request, so no request is served another's answer;
//   - every response of a daemon with the cache, exact-bytes hits
//     included, equals that of a daemon without it, and an exact-bytes hit
//     returns only bytes the canonical path returned for an earlier 200.
func FuzzRespCacheKeys(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed, uint8(10))
	}
	// Every daemon shares one characterization per machine and config, so
	// each input can start from an empty cache without paying Algorithm 1.
	var models sync.Map
	characterize := func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
		key := m.Name + "|" + configKey(cfg)
		if mm, ok := models.Load(key); ok {
			return mm.(*core.MachineModel), nil
		}
		mm, err := DefaultCharacterize(ctx, m, cfg)
		if err == nil {
			models.Store(key, mm)
		}
		return mm, err
	}
	// Both daemons hold the model, so requests naming its fingerprint
	// succeed on both.
	warm := func(tb testing.TB, s *Server) {
		rec := serveOnce(s, fuzzRequest{"/v1/characterize", `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}}`})
		if rec.Code != http.StatusOK {
			tb.Fatalf("warm-up characterize = %d %s", rec.Code, rec.Body)
		}
	}
	uncached := New(Config{Workers: 2, RespCacheEntries: -1, Characterize: characterize})
	warm(f, uncached)
	_, fp, err := cli.ResolveMachine(json.RawMessage(`"intel-4s4n"`))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, seed uint64, n uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		seq := genRequests(rng, 2+int(n%14), fp)

		for i, a := range seq {
			for _, b := range seq[i+1:] {
				if a.path != b.path {
					continue
				}
				ka, ca, okA := canonicalize(a)
				kb, cb, okB := canonicalize(b)
				if !okA || !okB {
					continue
				}
				if same := reflect.DeepEqual(ca, cb); (ka == kb) != same {
					t.Fatalf("keys equal %v, requests equal %v:\n%s\n%s\nkeys %q\n     %q", ka == kb, same, a.body, b.body, ka, kb)
				}
			}
		}

		// A small cache, so the sequence also evicts entries and their
		// spellings.
		cached := New(Config{Workers: 2, RespCacheEntries: 3, Characterize: characterize})
		warm(t, cached)
		served := map[string][]byte{} // body -> the canonical path's 200
		for _, req := range seq {
			got := serveOnce(cached, req)
			want := serveOnce(uncached, req)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s %s\ncached   %d %s\nuncached %d %s", req.path, req.body,
					got.Code, got.Body, want.Code, want.Body)
			}
			// Only an exact-bytes hit reports the cache stage first.
			if strings.HasPrefix(got.Header().Get("Server-Timing"), "cache;") {
				if prev, ok := served[req.body]; !ok || !bytes.Equal(prev, got.Body.Bytes()) {
					t.Fatalf("exact-bytes hit for %s served %s; the canonical path served %q", req.body, got.Body, prev)
				}
			} else if got.Code == http.StatusOK {
				if _, ok := served[req.body]; !ok {
					served[req.body] = bytes.Clone(got.Body.Bytes())
				}
			}
		}
	})
}

// fuzzRequest is one generated request body and the route it goes to.
type fuzzRequest struct{ path, body string }

func serveOnce(s *Server, req fuzzRequest) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
	return rec
}

// canonicalize decodes a body as its handler does and returns the
// response-cache key the handler computes, and the canonical request: the
// decoded fields, with those no answer depends on (the parallelism,
// empty versus absent maps and lists, an absent engine) normalized.
func canonicalize(req fuzzRequest) (string, any, bool) {
	switch req.path {
	case "/v1/predict":
		var p predictRequest
		if telemetry.Decode([]byte(req.body), &p) != nil {
			return "", nil, false
		}
		cfg := p.Config.toCore()
		key := predictCacheKey(&p, cfg)
		cfg.Parallelism = 0
		p.Config = nil
		if len(p.Mix) == 0 {
			p.Mix = nil
		}
		if len(p.Counts) == 0 {
			p.Counts = nil
		}
		return key, struct {
			predictRequest
			core.Config
		}{p, cfg}, true
	default:
		var p placeRequest
		if telemetry.Decode([]byte(req.body), &p) != nil {
			return "", nil, false
		}
		cfg := p.Config.toCore()
		key := placeCacheKey(&p, cfg)
		cfg.Parallelism = 0
		p.Config = nil
		p.Engine = p.engine()
		if len(p.Policies) == 0 {
			p.Policies = nil
		}
		return key, struct {
			placeRequest
			core.Config
		}{p, cfg}, true
	}
}

// genRequests draws a request and a few neighbours of it, each differing
// in one field, from a small value space, so distinct draws often
// coincide or nearly collide, and returns n bodies, each one spelling of
// one of them.
func genRequests(rng *rand.Rand, n int, fingerprint string) []fuzzRequest {
	var base fuzzShape = &predictShape{}
	if rng.Intn(2) == 0 {
		base = &placeShape{}
	}
	base.draw(rng, -1, fingerprint)
	shapes := []fuzzShape{base}
	for i := rng.Intn(3); i > 0; i-- {
		shapes = append(shapes, base.neighbour(rng, fingerprint))
	}
	spellings := make([][]fuzzRequest, len(shapes))
	out := make([]fuzzRequest, n)
	for i := range out {
		s := rng.Intn(len(shapes))
		// Mostly repeat a spelling already sent, so exact bytes recur.
		if k := len(spellings[s]); k > 0 && rng.Intn(3) > 0 {
			out[i] = spellings[s][rng.Intn(k)]
			continue
		}
		out[i] = shapes[s].spell(rng)
		spellings[s] = append(spellings[s], out[i])
	}
	return out
}

// fuzzShape is one generated request, before spelling.
type fuzzShape interface {
	// draw draws field f afresh, or every field when f < 0.
	draw(rng *rand.Rand, f int, fingerprint string)
	// neighbour returns a copy with one field drawn afresh.
	neighbour(rng *rand.Rand, fingerprint string) fuzzShape
	// spell renders the request, respelled on every call.
	spell(rng *rand.Rand) fuzzRequest
}

// predictShape names the machine, or sometimes the cached model's
// fingerprint, an unknown one, or one that spells other fields.
type predictShape struct {
	fingerprint string
	target      int
	mode        string
	weights     []float64
	nodes       []int
	plus        bool // node keys spelled "+2"
	counts      bool
}

func (p *predictShape) draw(rng *rand.Rand, f int, fingerprint string) {
	all := f < 0
	if all || f == 0 {
		p.fingerprint = pick(rng, "", "", "", fingerprint, "0000", "f|t0 r1")
	}
	if all || f == 1 {
		p.target = rng.Intn(4)
	}
	if all || f == 2 {
		p.mode = pick(rng, "write", "write", "read", "Write")
	}
	if all || f == 3 {
		p.weights = pick(rng, []float64{1}, []float64{0.5, 0.5}, []float64{0.25, 0.75}, []float64{0.25, 0.25, 0.5})
		p.nodes = rng.Perm(4)[:len(p.weights)]
	}
	if all || f == 4 {
		p.plus = rng.Intn(8) == 0
	}
	if all || f == 5 {
		p.counts = rng.Intn(3) == 0
	}
}

func (p *predictShape) neighbour(rng *rand.Rand, fingerprint string) fuzzShape {
	q := *p
	q.draw(rng, rng.Intn(6), fingerprint)
	return &q
}

func (p *predictShape) spell(rng *rand.Rand) fuzzRequest {
	fields := []string{`"machine":` + ws(rng) + `"intel-4s4n"`, `"config":` + ws(rng) + spellConfig(rng),
		`"target":` + ws(rng) + strconv.Itoa(p.target), `"mode":` + ws(rng) + strconv.Quote(p.mode)}
	if p.fingerprint != "" || rng.Intn(3) == 0 {
		fields = append(fields, `"fingerprint":`+ws(rng)+strconv.Quote(p.fingerprint))
	}
	var pairs []string
	for i, w := range p.weights {
		key := strconv.Itoa(p.nodes[i])
		if p.plus {
			key = "+" + key
		}
		v := spellFloat(rng, w)
		if p.counts {
			v = strconv.Itoa(int(w * 4))
		}
		pairs = append(pairs, strconv.Quote(key)+":"+ws(rng)+v)
	}
	have, other := `"mix":`, `"counts":`
	if p.counts {
		have, other = other, have
	}
	fields = append(fields, have+ws(rng)+spellObject(rng, pairs))
	if rng.Intn(3) == 0 {
		fields = append(fields, other+ws(rng)+pick(rng, "{}", "null"))
	}
	return fuzzRequest{"/v1/predict", spellObject(rng, fields)}
}

// placeShape is sometimes invalid: an unknown or comma-joined policy, or
// an engine or cluster policy that spells other fields.
type placeShape struct {
	target        int
	engine        string
	tasks         int
	policies      []string
	evaluate      bool
	replicas      int
	clusterPolicy string
}

func (p *placeShape) draw(rng *rand.Rand, f int, _ string) {
	all := f < 0
	if all || f == 0 {
		p.target = rng.Intn(4)
	}
	if all || f == 1 {
		p.engine = pick(rng, "", "", "memcpy", "rdma_read", "memcpy|2")
	}
	if all || f == 2 {
		p.tasks = pick(rng, 1, 2, 4, 4, 0)
	}
	if all || f == 3 {
		p.policies = pick(rng, nil, []string{"local-only", "hop-distance"}, []string{"local-only,hop-distance"},
			[]string{"round-robin"}, []string{"class-balanced", "nope"})
	}
	if all || f == 4 {
		p.evaluate = rng.Intn(4) == 0
	}
	if all || f == 5 {
		p.replicas = pick(rng, 0, 0, 1, 2)
	}
	if all || f == 6 {
		p.clusterPolicy = pick(rng, "", "", "model-greedy", `x"|"y`)
	}
}

func (p *placeShape) neighbour(rng *rand.Rand, _ string) fuzzShape {
	q := *p
	q.draw(rng, rng.Intn(7), "")
	return &q
}

func (p *placeShape) spell(rng *rand.Rand) fuzzRequest {
	fields := []string{`"machine":` + ws(rng) + `"intel-4s4n"`, `"config":` + ws(rng) + spellConfig(rng),
		`"target":` + ws(rng) + strconv.Itoa(p.target), `"tasks":` + ws(rng) + strconv.Itoa(p.tasks)}
	if p.engine != "" || rng.Intn(3) == 0 {
		e := p.engine
		if e == "" && rng.Intn(2) == 0 {
			e = "memcpy" // the default, spelled out
		}
		fields = append(fields, `"engine":`+ws(rng)+strconv.Quote(e))
	}
	if len(p.policies) > 0 {
		quoted := make([]string, len(p.policies))
		for i, name := range p.policies {
			quoted[i] = strconv.Quote(name)
		}
		fields = append(fields, `"policies":`+ws(rng)+"["+strings.Join(quoted, ","+ws(rng))+"]")
	} else if rng.Intn(3) == 0 {
		fields = append(fields, `"policies":`+ws(rng)+pick(rng, "[]", "null"))
	}
	if p.evaluate || rng.Intn(3) == 0 {
		fields = append(fields, `"evaluate":`+ws(rng)+strconv.FormatBool(p.evaluate))
	}
	if p.evaluate {
		fields = append(fields, `"size_per_task":`+ws(rng)+"1048576")
	} else if rng.Intn(4) == 0 {
		fields = append(fields, `"size_per_task":`+ws(rng)+"0")
	}
	if p.replicas != 0 || rng.Intn(3) == 0 {
		fields = append(fields, `"replicas":`+ws(rng)+strconv.Itoa(p.replicas))
	}
	if p.clusterPolicy != "" || rng.Intn(3) == 0 {
		fields = append(fields, `"cluster_policy":`+ws(rng)+strconv.Quote(p.clusterPolicy))
	}
	return fuzzRequest{"/v1/place", spellObject(rng, fields)}
}

// spellConfig renders the one config every generated request uses, one
// repeat without noise, respelled: key order, number forms and fields
// that change no answer.
func spellConfig(rng *rand.Rand) string {
	fields := []string{`"repeats":` + ws(rng) + "1", `"sigma":` + ws(rng) + pick(rng, "-1", "-1.0", "-1e0", "-10e-1")}
	if rng.Intn(3) == 0 {
		fields = append(fields, `"parallelism":`+ws(rng)+strconv.Itoa(rng.Intn(4)))
	}
	if rng.Intn(3) == 0 {
		fields = append(fields, `"threads":`+ws(rng)+"0")
	}
	return spellObject(rng, fields)
}

// spellObject renders fields, each `"key": value`, as a JSON object in
// random order with random whitespace.
func spellObject(rng *rand.Rand, fields []string) string {
	rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	var b strings.Builder
	b.WriteString("{" + ws(rng))
	for i, f := range fields {
		if i > 0 {
			b.WriteString(ws(rng) + "," + ws(rng))
		}
		b.WriteString(f)
	}
	b.WriteString(ws(rng) + "}")
	return b.String()
}

// spellFloat renders v in one of the forms JSON allows for it.
func spellFloat(rng *rand.Rand, v float64) string {
	switch rng.Intn(4) {
	case 0:
		return strconv.FormatFloat(v, 'e', -1, 64)
	case 1:
		if f := strconv.FormatFloat(v, 'f', -1, 64); strings.Contains(f, ".") {
			return f + "0"
		}
		return strconv.FormatFloat(v, 'f', 1, 64)
	case 2:
		return fmt.Sprintf("%gE0", v)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func ws(rng *rand.Rand) string { return pick(rng, "", "", " ", "\n  ", "\t") }

func pick[T any](rng *rand.Rand, vs ...T) T { return vs[rng.Intn(len(vs))] }
