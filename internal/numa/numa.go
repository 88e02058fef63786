// Package numa is a libnuma-style user API over the simulated host: tasks
// pin themselves to nodes and allocate buffers bound to a node or
// interleaved, as a libnuma client would (Sec. II-B of the paper). It is
// the layer the benchmarks (stream, fio) and the characterization tool
// (core) program against.
package numa

import (
	"fmt"
	"sync"

	"numaio/internal/simhost"
	"numaio/internal/topology"
	"numaio/internal/units"
)

// System wraps a simulated host with libnuma-flavoured calls.
type System struct {
	host *simhost.Host
}

// NewSystem boots a system on the given machine.
func NewSystem(m *topology.Machine) (*System, error) {
	h, err := simhost.NewHost(m)
	if err != nil {
		return nil, err
	}
	return &System{host: h}, nil
}

// Host exposes the underlying simulated host.
func (s *System) Host() *simhost.Host { return s.host }

// Machine exposes the underlying machine topology.
func (s *System) Machine() *topology.Machine { return s.host.M }

// Hardware mirrors "numactl --hardware".
func (s *System) Hardware() string { return s.host.Hardware() }

// FreeMem returns the free memory on a node.
func (s *System) FreeMem(n topology.NodeID) units.Size { return s.host.FreeMem(n) }

// Stats returns the numastat counters of a node.
func (s *System) Stats(n topology.NodeID) simhost.NodeStats { return s.host.Stats(n) }

// Task is a schedulable entity with a CPU binding, mirroring a process
// under numactl control.
type Task struct {
	sys  *System
	name string

	mu   sync.Mutex
	node topology.NodeID
}

// NewTask creates an unbound task, initially running on the lowest node
// like a freshly forked process.
func (s *System) NewTask(name string) *Task {
	return &Task{
		sys:  s,
		name: name,
		node: s.host.M.NodeIDs()[0],
	}
}

// RunOn pins the task's CPU affinity to a node (numactl --cpunodebind).
func (t *Task) RunOn(n topology.NodeID) error {
	if _, ok := t.sys.host.M.Node(n); !ok {
		return fmt.Errorf("numa: task %q: unknown node %d", t.name, int(n))
	}
	t.mu.Lock()
	t.node = n
	t.mu.Unlock()
	return nil
}

// Node returns the node the task currently runs on.
func (t *Task) Node() topology.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.node
}

// AllocOnNode allocates strictly on the given node
// (numa_alloc_onnode with a bind policy).
func (t *Task) AllocOnNode(size units.Size, n topology.NodeID) (*simhost.Buffer, error) {
	return t.sys.host.Alloc(simhost.AllocRequest{
		Size: size, Policy: simhost.PolicyBind, Target: n, TaskNode: t.Node(),
	})
}

// AllocInterleaved allocates round-robin across all nodes
// (numa_alloc_interleaved).
func (t *Task) AllocInterleaved(size units.Size) (*simhost.Buffer, error) {
	return t.sys.host.Alloc(simhost.AllocRequest{
		Size: size, Policy: simhost.PolicyInterleave, TaskNode: t.Node(),
	})
}

// Free releases a buffer (numa_free).
func (t *Task) Free(b *simhost.Buffer) error { return t.sys.host.Free(b) }
