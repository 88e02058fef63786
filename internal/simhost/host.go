// Package simhost turns a static topology.Machine into a runnable simulated
// host: a NUMA-aware memory allocator with the Linux allocation policies and
// numastat-style counters, deterministic measurement jitter, and a fluid
// transfer executor that advances concurrent transfers through the fabric
// solver until completion.
//
// This package substitutes for the real DL585 G7 testbed (see DESIGN.md):
// programs written against it exercise the same decisions — where threads
// run, where buffers live — that libnuma/numactl control on real hardware.
package simhost

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"numaio/internal/topology"
	"numaio/internal/units"
)

// Policy is a NUMA memory allocation policy, mirroring Linux mempolicy.
type Policy int

// Policies.
const (
	// PolicyLocalPreferred allocates on the requesting task's node when
	// possible and falls back to the emptiest other node (the Linux 2.6
	// default, Sec. II-B).
	PolicyLocalPreferred Policy = iota
	// PolicyBind allocates strictly on the given node and fails when it
	// is full.
	PolicyBind
	// PolicyPreferred allocates on the given node when possible, falling
	// back like local-preferred.
	PolicyPreferred
	// PolicyInterleave spreads the allocation evenly across the given
	// nodes (or all nodes when none are specified).
	PolicyInterleave
)

func (p Policy) String() string {
	switch p {
	case PolicyLocalPreferred:
		return "local-preferred"
	case PolicyBind:
		return "bind"
	case PolicyPreferred:
		return "preferred"
	case PolicyInterleave:
		return "interleave"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// NodeStats are numastat-style counters for one node.
type NodeStats struct {
	NumaHit       int64 // allocations that landed on the intended node
	NumaMiss      int64 // allocations placed here though intended elsewhere
	NumaForeign   int64 // allocations intended here but placed elsewhere
	InterleaveHit int64 // interleaved allocations that landed as intended
	LocalNode     int64 // allocations on the requesting task's node
	OtherNode     int64 // allocations on this node for tasks running elsewhere
}

// Share is the part of a buffer placed on one node.
type Share struct {
	Node topology.NodeID
	Size units.Size
}

// Buffer is an allocated simulated memory region. Pages records how the
// buffer is spread across nodes, one positive share per node in ascending
// node order: a single share except for interleaving.
type Buffer struct {
	ID    int
	Size  units.Size
	Pages []Share
	freed bool
}

// HomeNode returns the node holding the largest share of the buffer, which
// for non-interleaved buffers is the only node. Ties break toward the
// lowest node ID.
func (b *Buffer) HomeNode() topology.NodeID {
	var best topology.NodeID
	var bestSize units.Size = -1
	for _, sh := range b.Pages {
		if sh.Size > bestSize {
			best, bestSize = sh.Node, sh.Size
		}
	}
	return best
}

// DefaultOSReservation is the memory the OS pins on node 0 at boot. The
// paper observes ~2.5 GB in use on node 0 of an otherwise idle 4 GB/node
// host ("numactl --hardware" shows 1.5 GB free, Sec. IV-A).
const DefaultOSReservation = units.Size(2.5 * float64(units.GiB))

// maxPooledBuffers caps the Host's buffer freelist so a burst of
// allocations cannot pin memory forever.
const maxPooledBuffers = 256

// Host is a runnable simulated NUMA host. Free-memory and numastat state
// are dense position-indexed slices (node ID → position by binary search
// over the sorted IDs), not maps: the allocator sits on the
// characterization sweep's per-cell path, where map overhead and per-node
// pointer cells used to dominate the allocation profile.
type Host struct {
	M *topology.Machine

	mu sync.Mutex
	// ids is the machine's node IDs in ascending order; free and stats are
	// parallel to it.
	ids    []topology.NodeID
	free   []units.Size
	stats  []NodeStats
	nextID int
	// bufPool recycles Buffers (and their Pages slices) released by Free,
	// so the alloc/free cycle of every measurement instance stays off the
	// Go heap in steady state.
	bufPool []*Buffer
}

// Option configures a Host.
type Option func(*hostConfig)

type hostConfig struct {
	osReservation units.Size
}

// WithOSReservation overrides the boot-time OS memory reserved on node 0.
func WithOSReservation(s units.Size) Option {
	return func(c *hostConfig) { c.osReservation = s }
}

// NewHost validates the machine and boots a host on it.
func NewHost(m *topology.Machine, opts ...Option) (*Host, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cfg := hostConfig{osReservation: DefaultOSReservation}
	for _, o := range opts {
		o(&cfg)
	}
	ids := m.NodeIDs()
	h := &Host{
		M:     m,
		ids:   ids,
		free:  make([]units.Size, len(ids)),
		stats: make([]NodeStats, len(ids)),
	}
	for pos, id := range ids {
		h.free[pos] = m.MustNode(id).Memory
	}
	// The OS boots on node 0 (or the lowest node).
	res := cfg.osReservation
	if res > h.free[0] {
		res = h.free[0]
	}
	h.free[0] -= res
	return h, nil
}

// pos returns the dense position of a node ID, or -1 when the machine has
// no such node.
func (h *Host) pos(n topology.NodeID) int32 {
	if p, ok := slices.BinarySearch(h.ids, n); ok {
		return int32(p)
	}
	return -1
}

// FreeMem returns the free memory on a node.
func (h *Host) FreeMem(n topology.NodeID) units.Size {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p := h.pos(n); p >= 0 {
		return h.free[p]
	}
	return 0
}

// Stats returns a copy of a node's numastat counters.
func (h *Host) Stats(n topology.NodeID) NodeStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p := h.pos(n); p >= 0 {
		return h.stats[p]
	}
	return NodeStats{}
}

// AllocRequest describes an allocation.
type AllocRequest struct {
	Size   units.Size
	Policy Policy
	// Target is the bind/preferred node (ignored for local-preferred and
	// interleave).
	Target topology.NodeID
	// TaskNode is the node the requesting task runs on.
	TaskNode topology.NodeID
	// InterleaveNodes restricts interleaving; empty means all nodes.
	InterleaveNodes []topology.NodeID
}

// Alloc allocates a simulated buffer under the given policy.
func (h *Host) Alloc(req AllocRequest) (*Buffer, error) {
	if req.Size <= 0 {
		return nil, fmt.Errorf("simhost: nonpositive allocation size %v", req.Size)
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	task := h.pos(req.TaskNode)
	if task < 0 {
		return nil, fmt.Errorf("simhost: unknown task node %d", int(req.TaskNode))
	}

	switch req.Policy {
	case PolicyBind:
		return h.allocOn(req.Target, req, task, true)
	case PolicyPreferred:
		return h.allocOn(req.Target, req, task, false)
	case PolicyLocalPreferred:
		return h.allocOn(req.TaskNode, req, task, false)
	case PolicyInterleave:
		return h.allocInterleaved(req, task)
	default:
		return nil, fmt.Errorf("simhost: unknown policy %v", req.Policy)
	}
}

// allocOn places the buffer on node want, falling back to the emptiest node
// unless strict. Positions are dense indices into free/stats.
func (h *Host) allocOn(want topology.NodeID, req AllocRequest, task int32, strict bool) (*Buffer, error) {
	wantPos := h.pos(want)
	if wantPos < 0 {
		return nil, fmt.Errorf("simhost: unknown node %d", int(want))
	}
	got := wantPos
	if h.free[wantPos] < req.Size {
		if strict {
			return nil, fmt.Errorf("simhost: node %d has %v free, need %v",
				int(want), h.free[wantPos], req.Size)
		}
		got = h.emptiestPosWith(req.Size)
		if got < 0 {
			return nil, fmt.Errorf("simhost: no node can hold %v", req.Size)
		}
	}
	h.free[got] -= req.Size
	h.account(wantPos, got, task, false)
	b := h.takeBuffer(req.Size)
	b.Pages = append(b.Pages, Share{Node: h.ids[got], Size: req.Size})
	return b, nil
}

func (h *Host) allocInterleaved(req AllocRequest, task int32) (*Buffer, error) {
	nodes := req.InterleaveNodes
	if len(nodes) == 0 {
		nodes = h.ids
	}
	for _, n := range nodes {
		if h.pos(n) < 0 {
			return nil, fmt.Errorf("simhost: unknown interleave node %d", int(n))
		}
	}
	b := h.takeBuffer(req.Size)
	share := req.Size / units.Size(len(nodes))
	rem := req.Size - share*units.Size(len(nodes))
	var spill units.Size
	for i, n := range nodes {
		want := share
		if units.Size(i) < rem {
			want++
		}
		p := h.pos(n)
		take := want
		if h.free[p] < take {
			spill += take - h.free[p]
			take = h.free[p]
		}
		if take > 0 {
			h.free[p] -= take
			b.Pages = addShare(b.Pages, n, take)
			h.account(p, p, task, true)
		} else {
			h.stats[p].NumaForeign++
		}
	}
	// Spill overflow to the emptiest nodes.
	for spill > 0 {
		p := h.emptiestPosWith(1)
		if p < 0 {
			// Roll back.
			for _, sh := range b.Pages {
				h.free[h.pos(sh.Node)] += sh.Size
			}
			h.releaseBuffer(b)
			return nil, fmt.Errorf("simhost: interleave cannot place %v", req.Size)
		}
		take := spill
		if h.free[p] < take {
			take = h.free[p]
		}
		h.free[p] -= take
		b.Pages = addShare(b.Pages, h.ids[p], take)
		h.stats[p].NumaMiss++
		spill -= take
	}
	return b, nil
}

// addShare adds size on node n to shares, which it keeps in ascending node
// order with one share per node, so an interleave list naming a node twice
// or out of order yields the same shares.
func addShare(shares []Share, n topology.NodeID, size units.Size) []Share {
	i, ok := slices.BinarySearchFunc(shares, n, func(sh Share, n topology.NodeID) int { return cmp.Compare(sh.Node, n) })
	if ok {
		shares[i].Size += size
		return shares
	}
	return slices.Insert(shares, i, Share{Node: n, Size: size})
}

// emptiestPosWith returns the position of the node with the most free
// memory that can hold size, or -1. Ties break toward the lowest node ID
// (ids is ascending), matching the historical map-iteration-free behaviour.
func (h *Host) emptiestPosWith(size units.Size) int32 {
	best := int32(-1)
	var bestFree units.Size = -1
	for p := range h.free {
		if h.free[p] >= size && h.free[p] > bestFree {
			best, bestFree = int32(p), h.free[p]
		}
	}
	return best
}

// account updates numastat counters for a placement decision (positions).
func (h *Host) account(want, got, task int32, interleave bool) {
	if got == want {
		h.stats[got].NumaHit++
		if interleave {
			h.stats[got].InterleaveHit++
		}
	} else {
		h.stats[got].NumaMiss++
		h.stats[want].NumaForeign++
	}
	if got == task {
		h.stats[got].LocalNode++
	} else {
		h.stats[got].OtherNode++
	}
}

// takeBuffer pops a pooled buffer (reusing its Pages slice) or builds a
// fresh one, with no shares. Caller holds h.mu.
func (h *Host) takeBuffer(size units.Size) *Buffer {
	h.nextID++
	if n := len(h.bufPool); n > 0 {
		b := h.bufPool[n-1]
		h.bufPool[n-1] = nil
		h.bufPool = h.bufPool[:n-1]
		b.Pages = b.Pages[:0]
		b.ID = h.nextID
		b.Size = size
		b.freed = false
		return b
	}
	return &Buffer{ID: h.nextID, Size: size, Pages: make([]Share, 0, 1)}
}

// releaseBuffer parks a buffer for reuse. Caller holds h.mu.
func (h *Host) releaseBuffer(b *Buffer) {
	b.freed = true
	if len(h.bufPool) < maxPooledBuffers {
		h.bufPool = append(h.bufPool, b)
	}
}

// Free releases a buffer. Freeing twice is an error. The buffer (and its
// Pages slice) may be recycled by a later Alloc, so callers must not retain
// references past the Free.
func (h *Host) Free(b *Buffer) error {
	if b == nil {
		return fmt.Errorf("simhost: Free(nil)")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if b.freed {
		return fmt.Errorf("simhost: double free of buffer %d", b.ID)
	}
	for _, sh := range b.Pages {
		if p := h.pos(sh.Node); p >= 0 {
			h.free[p] += sh.Size
		}
	}
	h.releaseBuffer(b)
	return nil
}

// Hardware renders "numactl --hardware"-style output.
func (h *Host) Hardware() string {
	h.mu.Lock()
	ids := h.ids
	out := fmt.Sprintf("available: %d nodes (0-%d)\n", len(ids), int(ids[len(ids)-1]))
	for pos, id := range ids {
		n := h.M.MustNode(id)
		cores := make([]string, 0, n.Cores)
		for c := 0; c < n.Cores; c++ {
			cores = append(cores, fmt.Sprintf("%d", int(id)*n.Cores+c))
		}
		out += fmt.Sprintf("node %d cpus:", int(id))
		for _, c := range cores {
			out += " " + c
		}
		out += "\n"
		out += fmt.Sprintf("node %d size: %d MB\n", int(id), n.Memory/units.MiB)
		out += fmt.Sprintf("node %d free: %d MB\n", int(id), h.free[pos]/units.MiB)
	}
	h.mu.Unlock()

	slit, err := h.M.SLIT()
	if err != nil {
		return out
	}
	out += "node distances:\nnode "
	for _, id := range ids {
		out += fmt.Sprintf("%4d", int(id))
	}
	out += "\n"
	for i, id := range ids {
		out += fmt.Sprintf("%4d:", int(id))
		for j := range ids {
			out += fmt.Sprintf("%4d", slit[i][j])
		}
		out += "\n"
	}
	return out
}
