package fabric

import "sync"

// solverPool recycles Solvers — with their grown flow, index and scratch
// buffers — across independent solves. The request-serving path builds a
// solver per fluid run (one per /v1/place evaluation, for example); pooling
// keeps those runs from re-growing every buffer each time.
var solverPool = sync.Pool{New: func() any {
	statPoolNews.Add(1)
	return NewSolver()
}}

// AcquireSolver returns an empty solver from the package pool. Its resource
// and flow sets are clear, but previously grown internal buffers are
// retained, so repeated acquire/solve/release cycles over similarly sized
// problems stop allocating. Pair with ReleaseSolver.
func AcquireSolver() *Solver {
	statPoolGets.Add(1)
	return solverPool.Get().(*Solver)
}

// ReleaseSolver clears the solver and returns it to the pool. The solver —
// and any IndexedAllocation viewing it — must not be used afterwards.
func ReleaseSolver(s *Solver) {
	if s == nil {
		return
	}
	s.clearAll()
	solverPool.Put(s)
}

// clearAll empties both the resource and flow sets while keeping every
// backing array for reuse.
func (s *Solver) clearAll() {
	s.resList = s.resList[:0]
	clear(s.resIndex)
	s.sorted = s.sorted[:0]
	s.rank = s.rank[:0]
	s.Reset()
}
