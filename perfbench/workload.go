package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"numaio/internal/cli"
	"numaio/internal/topology"
)

// A workload is one traffic mix: where requests go, how their bodies are
// generated from the seed, how responses are checked, and which counter
// property defines it. Within a workload every operation does the same
// kind of work, so p50 and p99 describe one distribution.
type workload struct {
	name string
	// fleet routes requests through a numaiogw gateway in front of three
	// replicas; otherwise the clients talk to one numaiod directly.
	fleet bool
	path  string
	// warmup is the number of sequence entries sent during set-up to bring
	// every cache the workload writes to steady state.
	warmup int
	// cyclic workloads repeat their bodies; the others never repeat one,
	// so their pre-rendered sequence must outlast the window at maxRate,
	// set at about twice the fastest rate the workload has reached.
	cyclic  bool
	maxRate float64
	// Every sampleEvery-th sequence index (up to sampleCap of them) is
	// verified against the library after the window.
	sampleEvery, sampleCap int
	// gen renders n distinct request bodies from the seeded source.
	gen func(r *rand.Rand, n int, w *bodyWriter) error
	// selfCheck reads the counters' change over the timed window and
	// fails the run when they do not show what the workload is for.
	selfCheck func(d counters, ops int64) error
}

// respCacheEntries, modelCacheEntries and fleetMachines mirror the daemon
// defaults and the fleet rotation the workloads are sized against.
const (
	respCacheEntries  = 1024
	modelCacheEntries = 64
)

var fleetMachines = []string{"dl585g7", "magny-a", "intel-4s4n", "amd-4s8n"}

var workloads = []*workload{
	// predict-hot isolates the per-request HTTP path of numaiod: the
	// middleware, strict decode, cache-key canonicalization and the
	// response write. It cycles 64 dl585g7 shapes (8 targets x 2 modes x 4
	// mixes) that warm-up has cached, so every timed request is a
	// response-cache hit; fleet, model cache and simulator are off its path.
	{
		name: "predict-hot", path: "/v1/predict",
		warmup: 64, cyclic: true,
		sampleEvery: 1, sampleCap: 64,
		gen: genPredictHot,
		selfCheck: func(d counters, ops int64) error {
			return expect(
				claim{"predict response-cache hits", d[predictHits], ops},
				claim{"predict response-cache misses", d[predictMisses], 0})
		},
	},
	// predict-miss-fleet covers numaiogw routing and forwarding, machine
	// resolution plus topology.Fingerprint on both hops, Eq. 1 Predict,
	// encode, and response-cache writes beside reads. Each request sends a
	// mix never sent before, rotating over four machines, so it misses the
	// (full, evicting) response cache and hits the model cache.
	{
		name: "predict-miss-fleet", path: "/v1/predict", fleet: true,
		warmup:  len(fleetMachines) * (respCacheEntries + 64),
		maxRate: 16000, sampleEvery: 97, sampleCap: 200,
		gen: genPredictMiss,
		selfCheck: func(d counters, ops int64) error {
			return expect(
				claim{"predict response-cache hits", d[predictHits], 0},
				claim{"predict response-cache misses", d[predictMisses], ops},
				claim{"model-cache hits", d[modelHits], ops},
				claim{"model-cache misses", d[modelMisses], 0},
				claim{"gateway routed forwards", d[routed], ops},
				claim{"gateway proxied forwards", d[proxied], 0},
				claim{"gateway forward errors", d[fwdErrors], 0})
		},
	},
	// whatif-sweep is the only workload that puts the sweep (core -> fio
	// RunAggregate -> simhost lean sessions -> fabric) on the request path,
	// under the daemon's worker pool. Each request degrades one of the 16
	// dl585g7 node-to-node links by a factor not used before in the run:
	// one model-cache hit (the base machine) and one cold whole-host
	// Algorithm 1 sweep, evicting from the full model cache.
	{
		name: "whatif-sweep", path: "/v1/whatif",
		warmup:  modelCacheEntries + 8,
		maxRate: 1000, sampleEvery: 37, sampleCap: 12,
		gen: genWhatif,
		selfCheck: func(d counters, ops int64) error {
			return expect(
				claim{"characterizations", d[characterizations], ops},
				claim{"model-cache hits", d[modelHits], ops},
				claim{"model-cache misses", d[modelMisses], ops})
		},
	},
	// place-evaluate runs sched placement plus fio.Runner.Run's full-report
	// path (a fresh runner and a full fluid timeline) for all four
	// policies: the other way the fio, simhost and fabric layers are used,
	// and the only workload measuring sched. tasks and size_per_task vary
	// so every request misses the (full, evicting) place cache and hits
	// the model cache.
	{
		name: "place-evaluate", path: "/v1/place",
		warmup:  respCacheEntries + 64,
		maxRate: 6000, sampleEvery: 53, sampleCap: 48,
		gen: genPlace,
		selfCheck: func(d counters, ops int64) error {
			return expect(
				claim{"place response-cache hits", d[placeHits], 0},
				claim{"place response-cache misses", d[placeMisses], ops},
				claim{"model-cache hits", d[modelHits], ops},
				claim{"model-cache misses", d[modelMisses], 0})
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// claim is one counter property of a workload: got must equal want.
type claim struct {
	label     string
	got, want int64
}

// expect reports every claim that does not hold.
func expect(claims ...claim) error {
	var bad []string
	for _, c := range claims {
		if c.got != c.want {
			bad = append(bad, fmt.Sprintf("%s = %d, want %d", c.label, c.got, c.want))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("self-check: %s", strings.Join(bad, "; "))
	}
	return nil
}

// sequence is a workload's pre-rendered request bodies, stored back to
// back in anonymous memory outside the Go heap: the collector neither
// scans them nor counts them toward its heap goal, so holding a run's
// worth of requests leaves the daemons' garbage collection as it would be
// in their own process. Entry i of a cyclic sequence is entry i mod n.
type sequence struct {
	path   string
	data   []byte // the bodies
	ends   []byte // little-endian uint32 end offset of each body in data
	n      int
	cyclic bool
}

func (s *sequence) at(i int) ([]byte, bool) {
	if s.cyclic {
		i %= s.n
	} else if i >= s.n {
		return nil, false
	}
	start := 0
	if i > 0 {
		start = int(binary.LittleEndian.Uint32(s.ends[4*(i-1):]))
	}
	end := int(binary.LittleEndian.Uint32(s.ends[4*i:]))
	return s.data[start:end:end], true
}

// close returns the sequence's memory; it must not be used afterwards.
func (s *sequence) close() error {
	return errors.Join(syscall.Munmap(s.data), syscall.Munmap(s.ends))
}

func offHeap(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, max(size, 1), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// maxBody bounds a rendered body; the arena reserves this much address
// space per entry, of which only the pages written become resident.
const maxBody = 512

// appendRequest renders an HTTP/1.1 POST of body, with an X-Request-Id
// header when rid is set so the traced run can join one operation's spans.
func appendRequest(buf []byte, path, rid string, body []byte) []byte {
	buf = append(buf, "POST "...)
	buf = append(buf, path...)
	buf = append(buf, " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"...)
	if rid != "" {
		buf = append(buf, "X-Request-Id: "...)
		buf = append(buf, rid...)
		buf = append(buf, "\r\n"...)
	}
	buf = append(buf, "Content-Length: "...)
	buf = strconv.AppendInt(buf, int64(len(body)), 10)
	buf = append(buf, "\r\n\r\n"...)
	return append(buf, body...)
}

// buildSequence renders the workload's stream for a run of the given
// length: the warm-up entries followed by enough for the timed windows.
func buildSequence(wl *workload, seed int64, seconds float64) (seq *sequence, err error) {
	n := wl.warmup + int(wl.maxRate*seconds) + 1
	if wl.cyclic {
		n = wl.warmup
	}
	seq = &sequence{path: wl.path, cyclic: wl.cyclic}
	if seq.data, err = offHeap(n * maxBody); err != nil {
		return nil, err
	}
	if seq.ends, err = offHeap(4 * n); err != nil {
		syscall.Munmap(seq.data)
		return nil, err
	}
	size := 1
	for size < 2*n {
		size *= 2
	}
	w := &bodyWriter{seq: seq, set: make([]uint64, size)}
	if err = wl.gen(rand.New(rand.NewSource(seed)), n, w); err == nil && seq.n != n {
		err = fmt.Errorf("generated %d bodies, want %d", seq.n, n)
	}
	if err != nil {
		seq.close()
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	return seq, nil
}

// bodyWriter appends distinct bodies to a sequence.
type bodyWriter struct {
	seq  *sequence
	used int
	set  []uint64 // open-addressing set of body hashes; 0 is empty
	buf  []byte
}

// add keeps b unless an identical body was kept before (a hash collision
// merely redraws), reporting whether it was kept.
func (w *bodyWriter) add(b []byte) bool {
	h := fnv.New64a()
	h.Write(b)
	sum := h.Sum64() | 1
	mask := uint64(len(w.set) - 1)
	i := sum & mask
	for w.set[i] != 0 {
		if w.set[i] == sum {
			return false
		}
		i = (i + 1) & mask
	}
	if len(b) > maxBody {
		panic(fmt.Sprintf("request body of %d bytes exceeds maxBody", len(b)))
	}
	w.set[i] = sum
	w.used += copy(w.seq.data[w.used:], b)
	binary.LittleEndian.PutUint32(w.seq.ends[4*w.seq.n:], uint32(w.used))
	w.seq.n++
	return true
}

// Wire forms of the generated bodies, for decoding them back. The
// generators render the same fields by hand, in this key order.
type predictBody struct {
	Machine string             `json:"machine"`
	Mix     map[string]float64 `json:"mix"`
	Mode    string             `json:"mode"`
	Target  int                `json:"target"`
}

type degradeBody struct {
	A      string  `json:"a"`
	B      string  `json:"b"`
	Factor float64 `json:"factor"`
}

type whatifBody struct {
	Degrade []degradeBody `json:"degrade"`
	Machine string        `json:"machine"`
	Target  int           `json:"target"`
}

type placeBody struct {
	Evaluate    bool   `json:"evaluate"`
	Machine     string `json:"machine"`
	SizePerTask int64  `json:"size_per_task"`
	Target      int    `json:"target"`
	Tasks       int    `json:"tasks"`
}

var modes = []string{"write", "read"}

// mix is traffic fractions over distinct nodes, in ascending node order.
type mix struct {
	nodes []int
	fracs []float64
}

// randomMix spreads traffic over 2 to 4 distinct nodes with integer
// weights; the fractions sum to 1 within the daemon's tolerance.
func randomMix(r *rand.Rand, nodes []topology.NodeID, maxWeight int) mix {
	k := 2 + r.Intn(3)
	if k > len(nodes) {
		k = len(nodes)
	}
	perm := r.Perm(len(nodes))[:k]
	sort.Ints(perm)
	weights := make([]int, k)
	total := 0
	for i := range weights {
		weights[i] = 1 + r.Intn(maxWeight)
		total += weights[i]
	}
	m := mix{nodes: make([]int, k), fracs: make([]float64, k)}
	for i, p := range perm {
		m.nodes[i] = int(nodes[p])
		m.fracs[i] = float64(weights[i]) / float64(total)
	}
	return m
}

func appendPredict(b []byte, machine string, target int, mode string, m mix) []byte {
	b = append(b, `{"machine":"`...)
	b = append(b, machine...)
	b = append(b, `","mix":{`...)
	for i, n := range m.nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, `":`...)
		b = strconv.AppendFloat(b, m.fracs[i], 'g', -1, 64)
	}
	b = append(b, `},"mode":"`...)
	b = append(b, mode...)
	b = append(b, `","target":`...)
	b = strconv.AppendInt(b, int64(target), 10)
	return append(b, '}')
}

func machineNodes(name string) ([]topology.NodeID, error) {
	m, err := cli.Machine(name)
	if err != nil {
		return nil, err
	}
	return m.NodeIDs(), nil
}

func genPredictHot(r *rand.Rand, _ int, w *bodyWriter) error {
	nodes, err := machineNodes("dl585g7")
	if err != nil {
		return err
	}
	var mixes []mix
	seen := map[string]bool{}
	for len(mixes) < 4 {
		m := randomMix(r, nodes, 9)
		if key := fmt.Sprint(m); !seen[key] {
			seen[key] = true
			mixes = append(mixes, m)
		}
	}
	for _, target := range nodes {
		for _, mode := range modes {
			for _, m := range mixes {
				w.buf = appendPredict(w.buf[:0], "dl585g7", int(target), mode, m)
				w.add(w.buf)
			}
		}
	}
	return nil
}

func genPredictMiss(r *rand.Rand, n int, w *bodyWriter) error {
	nodes := make([][]topology.NodeID, len(fleetMachines))
	for i, name := range fleetMachines {
		var err error
		if nodes[i], err = machineNodes(name); err != nil {
			return err
		}
	}
	for w.seq.n < n {
		mi := w.seq.n % len(fleetMachines)
		ns := nodes[mi]
		target := int(ns[r.Intn(len(ns))])
		mode := modes[r.Intn(len(modes))]
		w.buf = appendPredict(w.buf[:0], fleetMachines[mi], target, mode, randomMix(r, ns, 1000))
		w.add(w.buf)
	}
	return nil
}

// nodeLinks lists the machine's duplex node-to-node links as (a, b) pairs.
func nodeLinks(m *topology.Machine) [][2]string {
	var out [][2]string
	for _, l := range m.Links() {
		if strings.HasPrefix(l.From, "node") && strings.HasPrefix(l.To, "node") && l.From < l.To {
			out = append(out, [2]string{l.From, l.To})
		}
	}
	return out
}

func genWhatif(r *rand.Rand, n int, w *bodyWriter) error {
	m, err := cli.Machine("dl585g7")
	if err != nil {
		return err
	}
	links := nodeLinks(m)
	if len(links) != 16 {
		return fmt.Errorf("dl585g7 has %d node-to-node links, want 16", len(links))
	}
	nodes := m.NodeIDs()
	// Factors are unique across the run, so every mutant is a new
	// fingerprint and a model-cache miss.
	used := make(map[float64]bool, n)
	for w.seq.n < n {
		l := links[r.Intn(len(links))]
		target := int(nodes[r.Intn(len(nodes))])
		factor := 0.2 + 0.75*r.Float64()
		if used[factor] {
			continue
		}
		used[factor] = true
		b := append(w.buf[:0], `{"degrade":[{"a":"`...)
		b = append(b, l[0]...)
		b = append(b, `","b":"`...)
		b = append(b, l[1]...)
		b = append(b, `","factor":`...)
		b = strconv.AppendFloat(b, factor, 'g', -1, 64)
		b = append(b, `}],"machine":"dl585g7","target":`...)
		b = strconv.AppendInt(b, int64(target), 10)
		w.buf = append(b, '}')
		w.add(w.buf)
	}
	return nil
}

func genPlace(r *rand.Rand, n int, w *bodyWriter) error {
	nodes, err := machineNodes("dl585g7")
	if err != nil {
		return err
	}
	for w.seq.n < n {
		target := int(nodes[r.Intn(len(nodes))])
		tasks := 2 + r.Intn(7)
		size := int64(256+r.Intn(1<<20)) << 20
		b := append(w.buf[:0], `{"evaluate":true,"machine":"dl585g7","size_per_task":`...)
		b = strconv.AppendInt(b, size, 10)
		b = append(b, `,"target":`...)
		b = strconv.AppendInt(b, int64(target), 10)
		b = append(b, `,"tasks":`...)
		b = strconv.AppendInt(b, int64(tasks), 10)
		w.buf = append(b, '}')
		w.add(w.buf)
	}
	return nil
}
