// Command perfbench is the repository benchmark. For each workload it
// builds numaiod replicas (service.New at the binary's flag defaults) and,
// for the fleet workload, a numaiogw gateway with its health loop, all
// inside its own process; serves them through http.Server on loopback TCP
// listeners; and drives them closed-loop from two client goroutines, each
// on one keep-alive connection. Nothing it starts can outlive it.
//
//	bash perfbench/run.sh --workload predict-hot --seed 1 --seconds 20 --trace 0
//
// A run sets up several times and reports the median set-up time, then
// measures one timed window split into sub-windows. With -trace 1 it
// instead alternates untraced and traced segments, recording spans at
// every layer boundary in the traced ones, and reports per-layer metrics
// with a reconciliation of the layers against the client latency. The
// last line of standard output is the JSON result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// Set-up runs at least minSetups times and until minSetupTime has
	// passed (at most maxSetups times); setup_s is the median, so cheap
	// set-ups are timed often enough to be steady.
	minSetups    = 5
	maxSetups    = 100
	minSetupTime = 2 * time.Second
	// subWindows split the timed window; throughput and CPU per operation
	// are medians over them, so a short stall of the host moves one
	// sub-window, not the result.
	subWindows = 20
	// tracePairs alternating untraced and traced segments make up a
	// traced run, so drift of the host hits both sides alike.
	tracePairs = 5
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	out      string
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated request bodies")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 measures per-layer metrics in a traced run")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) || fs.NArg() != 0 {
		return o, fmt.Errorf("usage: perfbench -workload NAME -seed N -seconds S -trace 0|1")
	}
	o.traced = trace == 1
	return o, nil
}

func run(ctx context.Context, args []string, report io.Writer) (*result, error) {
	o, err := parseOptions(args)
	if err != nil {
		return nil, err
	}
	wl, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	dur := time.Duration(o.seconds) * time.Second
	seq, err := buildSequence(wl, o.seed, dur.Seconds())
	if err != nil {
		return nil, fmt.Errorf("generating requests: %w", err)
	}
	defer seq.close()
	chk := newChecker(wl, seq)
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}

	// Set up repeatedly; the last stack serves the timed window.
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	var setups []float64
	var warm *window
	var total time.Duration
	for k := 0; k < maxSetups && (k < minSetups || total < minSetupTime); k++ {
		if st != nil {
			err := st.close()
			st = nil
			if err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", k, err)
			}
			runtime.GC()
		}
		start := time.Now()
		if st, err = newStack(ctx, wl, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if warm, err = warmUp(ctx, st, seq, chk); err != nil {
			return nil, err
		}
		d := time.Since(start)
		total += d
		setups = append(setups, d.Seconds())
		if o.traced {
			break // a traced run reports no set-up time
		}
	}
	runtime.GC()

	// The timed window: one untraced window, or alternating untraced and
	// traced segments whose counter changes are summed by side.
	begin := st.counters()
	next := wl.warmup
	var plain, traced []*window
	var dPlain counters
	segments, seg := 1, dur
	if o.traced {
		segments, seg = 2*tracePairs, dur/(2*tracePairs)
	}
	for k := 0; k < segments; k++ {
		isTraced := k%2 == 1
		before := st.counters()
		tr.setOn(isTraced)
		w, err := drive(ctx, st.clients, seq, chk,
			plan{from: next, to: -1, dur: seg, subs: subWindows / segments, traced: isTraced, tr: tr})
		tr.setOn(false)
		if err != nil {
			return nil, err
		}
		next = w.next
		if isTraced {
			traced = append(traced, w)
		} else {
			plain = append(plain, w)
			dPlain = dPlain.plus(st.counters().since(before))
		}
	}
	end := st.counters()

	res := &result{Metrics: map[string]metric{}}
	var samples []sample
	var errs []string
	for _, w := range append(plain, traced...) {
		res.Attempted += w.ops
		res.Failed += w.failed
		samples = append(samples, w.samples...)
		errs = append(errs, w.errs...)
	}
	if chk.hot != nil {
		samples = warm.samples // every timed response repeated one of these bytes
	}
	slices.SortFunc(samples, func(a, b sample) int { return a.index - b.index })
	if len(samples) > wl.sampleCap {
		samples = samples[:wl.sampleCap]
	}
	bad, verr := chk.verifyAll(samples)
	res.Failed += bad
	errs = append(errs, verr...)
	selfErr := wl.selfCheck(end.since(begin), res.Attempted)
	if selfErr != nil {
		errs = append(errs, selfErr.Error())
	}
	res.Correct = res.Failed == 0 && selfErr == nil && len(samples) > 0

	fmt.Fprintf(report, "%s seed %d: %d operations, %d failed, %d responses verified against the library\n",
		wl.name, o.seed, res.Attempted, res.Failed, len(samples))
	for _, e := range errs {
		fmt.Fprintln(report, "  failure:", e)
	}
	if !o.traced {
		w := plain[0]
		fmt.Fprintf(report, "  %d set-ups (s): median %.4f, min %.4f, max %.4f\n",
			len(setups), median(setups), slices.Min(setups), slices.Max(setups))
		fmt.Fprintf(report, "  sub-window throughput (1/s): %s\n", formatFloats(w.subRates()))
		// p99 moves two to three times as much as throughput when other
		// tenants slow the host, too much for a gate; the traced run
		// reports it as client.latency_p99_ms.
		fmt.Fprintf(report, "  latency p99 %.4f ms\n", w.p99())
		res.Metrics = endToEnd(w, setups)
		return res, nil
	}
	res.Metrics = perLayer(report, tr.layers(), plain, traced, dPlain, tr.calls.Load())
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.out, "trace-"+wl.name+".json")
	if err := tr.writeJSON(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(report, "  spans written to", path)
	return res, nil
}

// warmUp sends the workload's warm-up entries through the set-up stack.
// Every response must pass its shape check; predict-hot keeps its 64
// responses as the bytes every timed response must repeat.
func warmUp(ctx context.Context, st *stack, seq *sequence, chk *checker) (*window, error) {
	chk.hot = nil
	w, err := drive(ctx, st.clients, seq, chk, plan{from: 0, to: chk.wl.warmup})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if w.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %s", w.failed, w.ops, strings.Join(w.errs, "; "))
	}
	if chk.wl.cyclic {
		if len(w.samples) != seq.n {
			return nil, fmt.Errorf("warm-up kept %d of %d shapes", len(w.samples), seq.n)
		}
		chk.hot = make([][]byte, len(w.samples))
		for _, s := range w.samples {
			chk.hot[s.index] = s.body
		}
	}
	return w, nil
}

func endToEnd(w *window, setups []float64) map[string]metric {
	var cpu []float64
	for k, n := range w.subOps {
		if n > 0 {
			cpu = append(cpu, float64(w.subCPU[k])/float64(time.Millisecond)/float64(n))
		}
	}
	return map[string]metric{
		"throughput_rps": {w.throughput(), "1/s"},
		"latency_p50_ms": {w.p50(), "ms"},
		"cpu_ms_per_op":  {median(cpu), "ms"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"setup_s":        {median(setups), "s"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func formatFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(s, " ")
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer derives the traced run's metrics. Span self times and
// Server-Timing stages come from the traced segments; counters, which
// tracing cannot change, from the untraced ones, whose runtime counts are
// then free of the tracer's own allocations. Span metrics are means per
// operation of self time: fleet.forward_ms is the gateway's round trip
// minus the replica's handler, that is the loopback hop itself, and
// core.characterize_ms alone is the whole characterization span.
func perLayer(report io.Writer, lt layerTimes, plain, traced []*window, d counters, calls int64) map[string]metric {
	var ops int64
	for _, w := range plain {
		ops += w.ops
	}
	n := float64(ops)
	stages := map[string]time.Duration{}
	for _, w := range traced {
		for name, v := range w.stages {
			stages[name] += v
		}
	}
	stage := func(name string) float64 {
		if lt.ops == 0 {
			return 0
		}
		return ms(stages[name]) / float64(lt.ops)
	}
	svcStages := stage("cache") + stage("queue") + stage("solve") + stage("encode")
	respHits, respMisses := d[predictHits]+d[placeHits], d[predictMisses]+d[placeMisses]
	untracedRate, tracedRate := rates(plain), rates(traced)
	pooled := &window{}
	for _, w := range plain {
		pooled.subHist = append(pooled.subHist, w.subHist...)
	}
	m := map[string]metric{
		"fleet.handler_ms":                {ms(lt.gwSelf), "ms"},
		"fleet.route_ms":                  {stage("route"), "ms"},
		"fleet.forward_ms":                {ms(lt.fwdSelf), "ms"},
		"fleet.proxied_ratio":             {ratio(d[proxied], d[routed]+d[proxied]), "ratio"},
		"fleet.failovers":                 {float64(d[fwdErrors]), "count"},
		"service.handler_ms":              {ms(lt.svcSelf), "ms"},
		"service.cache_ms":                {stage("cache"), "ms"},
		"service.encode_ms":               {stage("encode"), "ms"},
		"service.queue_ms":                {stage("queue"), "ms"},
		"service.solve_ms":                {stage("solve"), "ms"},
		"service.unattributed_ms":         {ms(lt.svc) - svcStages, "ms"},
		"service.resp_cache_hit_ratio":    {ratio(respHits, respHits+respMisses), "ratio"},
		"service.model_cache_hit_ratio":   {ratio(d[modelHits], d[modelHits]+d[modelMisses]), "ratio"},
		"core.characterize_ms":            {ms(lt.charSpan), "ms"},
		"core.characterizations_per_op":   {ratio(calls, int64(lt.ops)), "count/op"},
		"core.sweep_self_ms":              {ms(lt.sweep), "ms"},
		"fio.cell_self_ms":                {ms(lt.cell), "ms"},
		"simhost.fluid_run_self_ms":       {ms(lt.flow), "ms"},
		"fabric.solves_per_op":            {float64(d[solves]) / n, "count/op"},
		"fabric.solve_ms_per_op":          {float64(d[solveNanos]) / 1e6 / n, "ms"},
		"fabric.incremental_ratio":        {ratio(d[incremental], d[solves]), "ratio"},
		"runtime.allocs_per_op":           {float64(d[mallocs]) / n, "count/op"},
		"runtime.alloc_kb_per_op":         {float64(d[allocBytes]) / 1024 / n, "KB/op"},
		"runtime.gc_per_kop":              {float64(d[gcs]) * 1000 / n, "count/kop"},
		"client.overhead_ms":              {ms(lt.clientSelf), "ms"},
		"client.latency_p99_ms":           {pooled.p99(), "ms"},
		"tracing.throughput_rps":          {tracedRate, "1/s"},
		"tracing.untraced_throughput_rps": {untracedRate, "1/s"},
	}
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"client.overhead", lt.clientSelf},
		{"fleet.handler", lt.gwSelf},
		{"fleet.forward", lt.fwdSelf},
		{"service.handler", lt.svcSelf},
		{"core.characterize (outside sweeps)", lt.charSelf},
		{"core.sweep (wall share)", lt.sweepWall},
		{"fio.cell (wall share)", lt.cellWall},
		{"simhost.fluid_run (wall share)", lt.flowWall},
		{"benchmark trace folding", lt.reduce},
	}
	var sum time.Duration
	fmt.Fprintf(report, "  reconciliation over %d traced operations (mean per operation):\n", lt.ops)
	fmt.Fprintf(report, "    %-36s %10.4f ms\n", "client latency", ms(lt.client))
	for _, r := range rows {
		sum += r.d
		fmt.Fprintf(report, "    %-36s %10.4f ms\n", r.name, ms(r.d))
	}
	unexplained := lt.client - sum
	fmt.Fprintf(report, "    %-36s %10.4f ms\n", "sum of layer self times", ms(sum))
	fmt.Fprintf(report, "    %-36s %10.4f ms (%.2f%% of client latency)\n", "unexplained", ms(unexplained),
		100*ratio(int64(unexplained), int64(lt.client)))
	// The spans partition the client latency, so the remainder above only
	// checks that every operation's spans joined. The daemons' own
	// Server-Timing stages are an independent account of each handler
	// span; what they leave unattributed is the finding.
	if lt.gw > 0 {
		gwStages := stage("route") + stage("forward") + stage("failover")
		fmt.Fprintf(report, "    numaiogw handler %.4f ms: route %.4f, forward (replica included) %.4f, failover %.4f, unattributed %.4f ms\n",
			ms(lt.gw), stage("route"), stage("forward"), stage("failover"), ms(lt.gw)-gwStages)
	}
	fmt.Fprintf(report, "    numaiod handler %.4f ms: cache %.4f, queue %.4f, solve %.4f, encode %.4f, unattributed %.4f ms\n",
		ms(lt.svc), stage("cache"), stage("queue"), stage("solve"), stage("encode"), ms(lt.svc)-svcStages)
	overhead := 1 - tracedRate/untracedRate
	fmt.Fprintf(report, "  tracing overhead: %.1f ops/s traced vs %.1f untraced (%.1f%% fewer)\n",
		tracedRate, untracedRate, 100*overhead)
	m["reconcile.client_ms"] = metric{ms(lt.client), "ms"}
	m["reconcile.layers_ms"] = metric{ms(sum), "ms"}
	m["reconcile.unexplained_ms"] = metric{ms(unexplained), "ms"}
	m["tracing.overhead_ratio"] = metric{overhead, "ratio"}
	return m
}
