// Package blocksim is a discrete-event, block-granular simulator used to
// cross-validate the analytic fluid model (internal/simhost) and the
// latency approximation (internal/fio): transfers split into blocks that
// traverse their resources as a pipeline of FIFO servers (store-and-forward
// queueing), with a bounded number of outstanding blocks per transfer (the
// I/O queue depth). Steady throughputs must agree with the fluid
// allocation; per-block sojourn times give an empirical latency
// distribution.
//
// The fluid model answers "what rate does each transfer get"; blocksim
// answers "and does a block-by-block execution actually behave that way".
package blocksim

import (
	"container/heap"
	"fmt"
	"math"

	"numaio/internal/fabric"
	"numaio/internal/units"
)

// Stage is one service station of a transfer's pipeline.
type Stage struct {
	Resource fabric.ResourceID
	// Weight scales the block's service demand on this resource (same
	// semantics as fabric.Usage.Weight).
	Weight float64
}

// Transfer is a block stream to simulate.
type Transfer struct {
	ID     string
	Bytes  units.Size
	Stages []Stage
	// Window bounds outstanding blocks (queue depth); 0 means 4.
	Window int
}

// Result reports one transfer's outcome.
type Result struct {
	ID         string
	Bytes      units.Size
	Duration   units.Duration
	Throughput units.Bandwidth
	// Latencies are the sojourn times of every block, issue to completion,
	// in completion order.
	Latencies []units.Duration
}

// Config tunes a simulation run.
type Config struct {
	// BlockSize is the unit of transfer; 0 means 128 KiB.
	BlockSize units.Size
	// MaxEvents bounds the event loop as a runaway guard; 0 means 10M.
	MaxEvents int
}

// block is one in-flight unit of work.
type block struct {
	ts       *transferState
	issuedAt float64
	stage    int
}

type transferState struct {
	def       Transfer
	remaining int64 // blocks not yet issued
	inFlight  int
	result    *Result
}

// server is a FIFO service station.
type server struct {
	cap   float64 // bits per second
	queue []*block
	busy  bool
}

// event is a service completion.
type event struct {
	at  float64
	seq int64
	res fabric.ResourceID
	b   *block
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Run simulates the transfers to completion over the given resources.
func Run(resources []fabric.Resource, transfers []Transfer, cfg Config) (map[string]*Result, error) {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 128 * units.KiB
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 10_000_000
	}
	servers := make(map[fabric.ResourceID]*server)
	for _, r := range resources {
		if r.Capacity <= 0 {
			return nil, fmt.Errorf("blocksim: resource %q: nonpositive capacity", r.ID)
		}
		servers[r.ID] = &server{cap: float64(r.Capacity)}
	}

	states := make([]*transferState, 0, len(transfers))
	results := make(map[string]*Result, len(transfers))
	for _, tr := range transfers {
		if tr.Bytes <= 0 {
			return nil, fmt.Errorf("blocksim: transfer %q: nonpositive size", tr.ID)
		}
		if len(tr.Stages) == 0 {
			return nil, fmt.Errorf("blocksim: transfer %q: no stages", tr.ID)
		}
		if _, dup := results[tr.ID]; dup {
			return nil, fmt.Errorf("blocksim: duplicate transfer %q", tr.ID)
		}
		for _, st := range tr.Stages {
			if _, ok := servers[st.Resource]; !ok {
				return nil, fmt.Errorf("blocksim: transfer %q: unknown resource %q", tr.ID, st.Resource)
			}
			if st.Weight <= 0 {
				return nil, fmt.Errorf("blocksim: transfer %q: nonpositive weight", tr.ID)
			}
		}
		if tr.Window <= 0 {
			tr.Window = 4
		}
		nblocks := int64(math.Ceil(float64(tr.Bytes) / float64(cfg.BlockSize)))
		st := &transferState{
			def:       tr,
			remaining: nblocks,
			result:    &Result{ID: tr.ID, Bytes: tr.Bytes},
		}
		states = append(states, st)
		results[tr.ID] = st.result
	}

	blockBits := cfg.BlockSize.Bits()
	var evts eventHeap
	var seq int64
	now := 0.0

	// startService begins serving b at its current stage if the server is
	// idle, otherwise enqueues it.
	startService := func(b *block) {
		st := b.ts.def.Stages[b.stage]
		srv := servers[st.Resource]
		if srv.busy {
			srv.queue = append(srv.queue, b)
			return
		}
		srv.busy = true
		seq++
		heap.Push(&evts, event{
			at:  now + blockBits*st.Weight/srv.cap,
			seq: seq, res: st.Resource, b: b,
		})
	}

	issue := func(ts *transferState) {
		for ts.remaining > 0 && ts.inFlight < ts.def.Window {
			ts.remaining--
			ts.inFlight++
			b := &block{ts: ts, issuedAt: now, stage: 0}
			startService(b)
		}
	}
	for _, ts := range states {
		issue(ts)
	}

	for events := 0; evts.Len() > 0; events++ {
		if events > cfg.MaxEvents {
			return nil, fmt.Errorf("blocksim: event budget exhausted (%d)", cfg.MaxEvents)
		}
		e := heap.Pop(&evts).(event)
		now = e.at
		srv := servers[e.res]

		// Start the next queued block on this server.
		srv.busy = false
		if len(srv.queue) > 0 {
			nb := srv.queue[0]
			srv.queue = srv.queue[1:]
			startService(nb)
		}

		// Move the finished block along its pipeline.
		b := e.b
		b.stage++
		if b.stage < len(b.ts.def.Stages) {
			startService(b)
			continue
		}
		ts := b.ts
		ts.inFlight--
		ts.result.Latencies = append(ts.result.Latencies, units.Duration(now-b.issuedAt))
		if ts.remaining > 0 {
			issue(ts)
		} else if ts.inFlight == 0 {
			ts.result.Duration = units.Duration(now)
			ts.result.Throughput = units.Rate(ts.result.Bytes, ts.result.Duration)
		}
	}
	return results, nil
}

// FromUsages converts a fabric usage list into pipeline stages, preserving
// order and merging repeated resources by summing weights (a local copy's
// double controller charge becomes one heavier stage).
func FromUsages(usages []fabric.Usage) []Stage {
	idx := make(map[fabric.ResourceID]int)
	var out []Stage
	for _, u := range usages {
		if i, ok := idx[u.Resource]; ok {
			out[i].Weight += u.Weight
			continue
		}
		idx[u.Resource] = len(out)
		out = append(out, Stage{Resource: u.Resource, Weight: u.Weight})
	}
	return out
}
