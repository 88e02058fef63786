package main

import (
	"bufio"
	"bytes"
	"runtime"
	"strconv"
	"strings"

	"numaio/internal/fabric"
)

// counters is a snapshot of the public counters the benchmark reads at
// window edges: numaiod's /metrics exposition and model-cache stats
// (summed over replicas), numaiogw's forward counters, the fabric solver
// stats and the Go runtime's allocation counters.
type counters [nCounters]int64

const (
	predictHits = iota
	predictMisses
	placeHits
	placeMisses
	modelHits
	modelMisses
	characterizations
	routed
	proxied
	fwdErrors
	solves
	solveNanos
	incremental
	mallocs
	allocBytes
	gcs
	nCounters
)

func (st *stack) counters() counters {
	var c counters
	for _, rep := range st.replicas {
		var buf bytes.Buffer
		rep.svc.WriteMetrics(&buf)
		m := parseMetrics(buf.Bytes())
		c[predictHits] += m["numaiod_predict_cache_hits_total"]
		c[predictMisses] += m["numaiod_predict_cache_misses_total"]
		c[placeHits] += m["numaiod_place_cache_hits_total"]
		c[placeMisses] += m["numaiod_place_cache_misses_total"]
		c[characterizations] += m["numaiod_characterize_seconds_count"]
		cs := rep.svc.Cache().Stats()
		// A coalesced follower is served by another caller's compute: a hit.
		c[modelHits] += cs.Hits + cs.Coalesced
		c[modelMisses] += cs.Misses
	}
	if st.gw != nil {
		var buf bytes.Buffer
		st.gw.WriteMetrics(&buf)
		m := parseMetrics(buf.Bytes())
		c[routed] = m["numaiogw_routed_total"]
		c[proxied] = m["numaiogw_proxied_total"]
		c[fwdErrors] = m["numaiogw_forward_errors_total"]
	}
	fs := fabric.ReadStats()
	c[solves], c[solveNanos], c[incremental] = fs.Solves, fs.SolveNanos, fs.IncrementalSolves
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[mallocs], c[allocBytes], c[gcs] = int64(ms.Mallocs), int64(ms.TotalAlloc), int64(ms.NumGC)
	return c
}

// since returns the change from an earlier snapshot.
func (c counters) since(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) plus(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// parseMetrics reads the unlabelled integer samples of a Prometheus text
// exposition.
func parseMetrics(text []byte) map[string]int64 {
	out := make(map[string]int64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64); err == nil {
			out[name] = v
		}
	}
	return out
}
