package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// nClients closed-loop callers drive every workload, one keep-alive
// connection each; a caller sends its next request only after reading the
// whole previous response, as a scheduler waiting on predict or place does.
const nClients = 2

// client speaks just enough HTTP/1.1 to send a pre-rendered request and
// read a Content-Length or chunked response, so the clients' own cost per
// operation is small, fixed and independent of net/http.
type client struct {
	conn    net.Conn
	br      *bufio.Reader
	body    []byte
	timings []string // Server-Timing values of the last response, when asked
	stop    func() bool
}

func dial(ctx context.Context, addr string) (*client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	// An interrupt closes the connection, failing any blocked read.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), stop: stop}, nil
}

func (c *client) close() {
	c.stop()
	c.conn.Close()
}

var errProtocol = errors.New("malformed HTTP response")

// do sends one request and reads the response. The returned body aliases
// the client's buffer and is valid until the next call.
func (c *client) do(req []byte, wantTimings bool) (int, []byte, error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, errProtocol
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, errProtocol
	}
	length, chunked := -1, false
	c.timings = c.timings[:0]
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, nil, errProtocol
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return 0, nil, errProtocol
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			chunked = bytes.Contains(val, []byte("chunked"))
		case bytes.EqualFold(key, []byte("Connection")):
			if bytes.EqualFold(val, []byte("close")) {
				return 0, nil, errors.New("server closed the keep-alive connection")
			}
		case wantTimings && bytes.EqualFold(key, []byte("Server-Timing")):
			c.timings = append(c.timings, string(val))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		c.body = grow(c.body, length)
		_, err = io.ReadFull(c.br, c.body)
	default:
		err = errProtocol
	}
	return status, c.body, err
}

func (c *client) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		n, err := strconv.ParseInt(string(line), 16, 64)
		if err != nil {
			return errProtocol
		}
		if n == 0 {
			// Trailer section: header lines up to a blank one.
			for {
				line, err = c.br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		off := len(c.body)
		c.body = grow(c.body, off+int(n))
		if _, err := io.ReadFull(c.br, c.body[off:]); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	}
}

// grow returns b resized to n bytes, reallocating only when needed.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		nb := make([]byte, n, n+n/2)
		copy(nb, b)
		return nb
	}
	return b[:n]
}

// sample is a response kept for verification after the window. Each
// client keeps its first sampleCap sampled responses, so the lowest
// sampleCap sampled indices of a run are always among them.
type sample struct {
	index int
	body  []byte
}

// window is the outcome of driving a sequence range.
type window struct {
	ops, failed int64
	// Sub-window statistics cover [0, subs x subDur) of the window; an
	// operation completing after the deadline counts in ops only.
	subDur  time.Duration
	subOps  []int64
	subCPU  []time.Duration
	subHist []*hist // in-window latencies by sub-window
	samples []sample
	errs    []string // first few in-window failures, for the report
	stages  map[string]time.Duration
	next    int // first sequence index not sent
}

// plan says what to drive: sequence entries from..to (to < 0: unbounded)
// for at most dur (0: until to).
type plan struct {
	from, to int
	dur      time.Duration
	subs     int
	traced   bool
	tr       *tracer
}

// drive runs the clients closed-loop over the plan. Each response is
// checked for status and shape as it arrives; sampled ones are kept for
// verification against the library afterwards.
func drive(ctx context.Context, clients []*client, seq *sequence, chk *checker, p plan) (*window, error) {
	var next atomic.Int64
	next.Store(int64(p.from))
	subs := p.subs
	if subs < 1 {
		subs = 1
	}
	w := &window{subDur: p.dur / time.Duration(subs), subOps: make([]int64, subs),
		subHist: make([]*hist, subs), stages: map[string]time.Duration{}}
	for k := range w.subHist {
		w.subHist[k] = new(hist)
	}
	type local struct {
		ops, failed int64
		subOps      []int64
		hists       []hist
		samples     []sample
		errs        []string
		stages      map[string]time.Duration
		err         error
	}
	locals := make([]*local, len(clients))
	var exhausted atomic.Bool
	start := time.Now()
	cpu := make([]time.Duration, subs+1)
	cpu[0] = cpuTime()
	sampler := make(chan struct{})
	if p.dur > 0 {
		// Read process CPU time at every sub-window boundary.
		go func() {
			defer close(sampler)
			for k := 1; k <= subs; k++ {
				t := time.NewTimer(time.Until(start.Add(time.Duration(k) * w.subDur)))
				select {
				case <-t.C:
					cpu[k] = cpuTime()
				case <-ctx.Done():
					t.Stop()
					return
				}
			}
		}()
	} else {
		close(sampler)
	}
	var wg sync.WaitGroup
	for ci, c := range clients {
		l := &local{subOps: make([]int64, subs), stages: map[string]time.Duration{}}
		if p.dur > 0 {
			l.hists = make([]hist, subs)
		}
		locals[ci] = l
		wg.Add(1)
		go func(ci int, c *client, l *local) {
			defer wg.Done()
			var buf []byte
			for {
				t0 := time.Now()
				if (p.dur > 0 && t0.Sub(start) >= p.dur) || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if p.to >= 0 && i >= p.to {
					return
				}
				reqBody, ok := seq.at(i)
				if !ok {
					exhausted.Store(true)
					return
				}
				var id string
				if p.traced {
					id = "c" + strconv.Itoa(ci) + "-" + strconv.Itoa(i)
				}
				buf = appendRequest(buf[:0], seq.path, id, reqBody)
				t0 = time.Now()
				status, body, err := c.do(buf, p.traced)
				t1 := time.Now()
				l.ops++
				if err != nil {
					// After a transport error the connection's state is
					// unknown, so the run cannot go on.
					l.failed++
					l.err = fmt.Errorf("request %d: %w", i, err)
					return
				}
				if err := chk.shape(i, status, body); err != nil {
					l.failed++
					if len(l.errs) < 3 {
						l.errs = append(l.errs, fmt.Sprintf("request %d: %v", i, err))
					}
					continue
				}
				if chk.sampled(i) && len(l.samples) < chk.wl.sampleCap {
					l.samples = append(l.samples, sample{index: i, body: bytes.Clone(body)})
				}
				if p.traced {
					p.tr.add(span{rid: id, kind: kClient, start: p.tr.at(t0), end: p.tr.at(t1)})
					for _, v := range c.timings {
						addTimings(l.stages, v)
					}
				}
				if p.dur > 0 {
					if k := int(t1.Sub(start) / w.subDur); k < subs {
						l.subOps[k]++
						l.hists[k].add(t1.Sub(t0))
					}
				}
			}
		}(ci, c, l)
	}
	wg.Wait()
	<-sampler
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, l := range locals {
		w.ops += l.ops
		w.failed += l.failed
		for k, n := range l.subOps {
			w.subOps[k] += n
		}
		for k := range l.hists {
			w.subHist[k].merge(&l.hists[k])
		}
		w.samples = append(w.samples, l.samples...)
		w.errs = append(w.errs, l.errs...)
		for name, d := range l.stages {
			w.stages[name] += d
		}
		if l.err != nil {
			return nil, fmt.Errorf("connection lost: %w", l.err)
		}
	}
	if exhausted.Load() {
		return nil, fmt.Errorf("request sequence exhausted after %d entries; raise maxRate", seq.n)
	}
	w.next = int(next.Load())
	if p.to >= 0 && w.next > p.to {
		w.next = p.to
	}
	for k := 1; k <= subs && p.dur > 0; k++ {
		w.subCPU = append(w.subCPU, cpu[k]-cpu[k-1])
	}
	return w, nil
}

// tailSamples is the fewest operations a p99 is taken over, so at least
// ten lie beyond it.
const tailSamples = 1000

// p99 is the median over blocks of consecutive sub-windows, each holding
// at least tailSamples operations, of the block's 99th percentile. Like
// the sub-window medians, it keeps a short stall of the host from moving
// the result; a leftover shorter than a block joins the last one.
func (w *window) p99() float64 {
	var blocks []*hist
	cur := new(hist)
	for _, h := range w.subHist {
		cur.merge(h)
		if cur.n >= tailSamples {
			blocks, cur = append(blocks, cur), new(hist)
		}
	}
	switch {
	case len(blocks) == 0:
		blocks = []*hist{cur}
	case cur.n > 0:
		blocks[len(blocks)-1].merge(cur)
	}
	var p []float64
	for _, b := range blocks {
		p = append(p, ms(b.quantile(0.99)))
	}
	return median(p)
}

// p50 is the median latency over the whole window.
func (w *window) p50() float64 {
	all := new(hist)
	for _, h := range w.subHist {
		all.merge(h)
	}
	return ms(all.quantile(0.5))
}

// subRates are the operations per second of each sub-window.
func (w *window) subRates() []float64 {
	var v []float64
	for _, n := range w.subOps {
		v = append(v, float64(n)/w.subDur.Seconds())
	}
	return v
}

// throughput is the median over sub-windows of operations per second.
func (w *window) throughput() float64 { return median(w.subRates()) }

// rates pools the throughput of several windows: the median over all
// their sub-windows.
func rates(ws []*window) float64 {
	var v []float64
	for _, w := range ws {
		v = append(v, w.subRates()...)
	}
	return median(v)
}

// addTimings folds one Server-Timing value ("route;dur=0.012, forward;dur=0.3")
// into per-stage sums.
func addTimings(into map[string]time.Duration, v string) {
	for len(v) > 0 {
		item := v
		if i := strings.IndexByte(v, ','); i >= 0 {
			item, v = v[:i], v[i+1:]
		} else {
			v = ""
		}
		name, dur := item, ""
		if i := strings.IndexByte(item, ';'); i >= 0 {
			name, dur = item[:i], item[i+1:]
		}
		name = strings.TrimSpace(name)
		if len(dur) > 4 && dur[:4] == "dur=" {
			if ms, err := strconv.ParseFloat(dur[4:], 64); err == nil {
				into[name] += time.Duration(ms * float64(time.Millisecond))
			}
		}
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
