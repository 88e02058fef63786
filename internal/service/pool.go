package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Pool bounds the number of concurrent characterizations so N simultaneous
// requests don't each spawn an unbounded set of simulation goroutines.
// Synchronous handlers acquire a slot inline; asynchronous jobs run through
// Submit and are tracked for graceful drain.
type Pool struct {
	sem      chan struct{}
	wg       sync.WaitGroup
	mu       sync.Mutex
	closed   bool
	inflight atomic.Int64
}

// NewPool builds a pool admitting up to workers concurrent tasks
// (workers <= 0 means 4).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = 4
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Acquire blocks until a worker slot is free (or ctx is done). Callers must
// Release the slot. Acquire stays available during Drain so already-admitted
// jobs can finish; admission control happens in Submit (and in the HTTP
// server shutdown for synchronous requests).
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		p.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot taken by Acquire.
func (p *Pool) Release() {
	p.inflight.Add(-1)
	<-p.sem
}

// Submit runs fn in the background, tracked for graceful drain. It returns
// an error only when the pool is draining; otherwise fn is guaranteed to
// run and to finish before Drain returns. fn is expected to Acquire a
// worker slot itself for its bounded section (Submit does not hold one, so
// coalesced or cached work never ties up a slot).
func (p *Pool) Submit(fn func()) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("service: pool is shutting down")
	}
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		fn()
	}()
	return nil
}

// InFlight returns the number of tasks currently holding a worker slot.
func (p *Pool) InFlight() int64 { return p.inflight.Load() }

// Drain stops admitting work and waits for submitted jobs to finish, or
// for ctx to expire.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain timed out with %d jobs in flight", p.InFlight())
	}
}

// JobState is the lifecycle phase of an async characterization job.
type JobState string

// Job states.
const (
	JobPending JobState = "pending"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job tracks one asynchronous characterization.
type Job struct {
	ID          string    `json:"id"`
	State       JobState  `json:"state"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Error       string    `json:"error,omitempty"`
	Created     time.Time `json:"created"`
	Finished    time.Time `json:"finished"`
}

// maxFinishedJobs bounds the finished jobs a registry remembers, so a
// client looping async characterizations cannot grow the daemon.
const maxFinishedJobs = 1024

// JobRegistry hands out job IDs and tracks job lifecycles. Past
// maxFinishedJobs it forgets the job that finished first; it never forgets
// a pending or running one.
type JobRegistry struct {
	mu   sync.Mutex
	next int64
	jobs map[string]*Job
	// finished holds the IDs of finished jobs still held, oldest first.
	finished []string
}

// NewJobRegistry builds an empty registry.
func NewJobRegistry() *JobRegistry {
	return &JobRegistry{jobs: make(map[string]*Job)}
}

// New registers a fresh pending job.
func (r *JobRegistry) New() *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	j := &Job{ID: fmt.Sprintf("job-%06d", r.next), State: JobPending, Created: time.Now()}
	r.jobs[j.ID] = j
	return j
}

// Remove forgets a job that never ran: one the pool refused.
func (r *JobRegistry) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.jobs, id)
}

// Get returns a snapshot of the job (jobs mutate as they run).
func (r *JobRegistry) Get(id string) (Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// SetState transitions a job, recording fingerprint or error as relevant.
func (r *JobRegistry) SetState(id string, state JobState, fingerprint string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return
	}
	j.State = state
	j.Fingerprint = fingerprint
	if err != nil {
		j.Error = err.Error()
	}
	if state == JobDone || state == JobFailed {
		j.Finished = time.Now()
		r.finished = append(r.finished, id)
		if len(r.finished) > maxFinishedJobs {
			delete(r.jobs, r.finished[0])
			r.finished = r.finished[1:]
		}
	}
}
