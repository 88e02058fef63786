// Command numaiod is the model-serving daemon: it characterizes machines
// with Algorithm 1 on demand, caches the resulting models by topology
// fingerprint, and serves Eq. 1 predictions, placement decisions and
// what-if diffs over an HTTP JSON API. See docs/SERVICE.md for the API.
//
// Usage:
//
//	numaiod [-addr host:port] [-workers n] [-parallelism n]
//	        [-cache-entries n] [-cache-ttl d] [-resp-cache-entries n]
//	        [-request-timeout d] [-retries n] [-retry-backoff d]
//	        [-breaker-threshold n] [-breaker-cooldown d] [-pprof]
//	        [-flight-events n] [-flight-dump]
//
// The daemon prints "listening on http://ADDR" once the socket is bound
// (use -addr 127.0.0.1:0 for an ephemeral port) and shuts down gracefully
// on SIGINT/SIGTERM, draining in-flight characterization jobs.
//
// An always-on flight recorder keeps the last -flight-events request and
// resilience events (default 4096; negative disables) in a fixed ring,
// served at GET /debug/flightrecorder. -flight-dump additionally writes
// the ring to stderr on request failures and breaker-open transitions
// (rate-limited to one dump per second); SIGQUIT dumps it on demand
// without stopping the daemon. See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"flag"
	"io"
	"net/http"
	_ "net/http/pprof" // handlers gated behind the -pprof flag
	"os"
	"time"

	"numaio/internal/cli"
	"numaio/internal/service"
)

func main() {
	os.Exit(cli.Main("numaiod", run(context.Background(), os.Args[1:], os.Stdout)))
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("numaiod", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", 4, "max concurrent characterizations")
	parallelism := fs.Int("parallelism", 0, "measurement worker-pool width per characterization (0 = same as -workers)")
	cacheEntries := fs.Int("cache-entries", 64, "model cache capacity")
	cacheTTL := fs.Duration("cache-ttl", time.Hour, "model cache entry lifetime (negative disables expiry)")
	respCacheEntries := fs.Int("resp-cache-entries", 1024, "per-endpoint response cache capacity (negative disables)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight jobs")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables; overruns are 504s)")
	retries := fs.Int("retries", 2, "retry budget for a failed characterization")
	retryBackoff := fs.Duration("retry-backoff", 100*time.Millisecond, "base backoff between characterization retries")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive failures that open a model's circuit breaker (0 disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", 30*time.Second, "open-breaker cooldown before a probe is admitted")
	pprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flightEvents := fs.Int("flight-events", 0, "flight recorder ring capacity (0 = 4096, negative disables)")
	flightDump := fs.Bool("flight-dump", false, "dump the flight recorder to stderr on failures and breaker opens")
	quiet := fs.Bool("quiet", false, "log nothing to stderr")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if *workers < 1 {
		return cli.Usagef("-workers must be at least 1, got %d", *workers)
	}
	if *parallelism < 0 {
		return cli.Usagef("-parallelism must be nonnegative, got %d", *parallelism)
	}
	if *retries < 0 {
		return cli.Usagef("-retries must be nonnegative, got %d", *retries)
	}
	if *breakerThreshold < 0 {
		return cli.Usagef("-breaker-threshold must be nonnegative, got %d", *breakerThreshold)
	}

	// nil under -quiet, which then logs nothing, the daemon's own lines
	// included.
	logger := cli.DaemonLogger(os.Stderr, *quiet)

	var dumpDst io.Writer
	if *flightDump {
		dumpDst = os.Stderr
	}
	svc := service.New(service.Config{
		Workers:            *workers,
		Parallelism:        *parallelism,
		CacheEntries:       *cacheEntries,
		CacheTTL:           *cacheTTL,
		RespCacheEntries:   *respCacheEntries,
		Logger:             logger,
		RequestTimeout:     *requestTimeout,
		Retries:            *retries,
		RetryBackoff:       *retryBackoff,
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		FlightRecorderSize: *flightEvents,
		FlightDump:         dumpDst,
	})

	handler := svc.Handler()
	if *pprof {
		// The pprof handlers self-register on http.DefaultServeMux via the
		// net/http/pprof import; expose them next to the API.
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", handler)
		handler = mux
		if logger != nil {
			logger.Info("pprof enabled", "path", "/debug/pprof/")
		}
	}
	return cli.Serve(ctx, cli.Daemon{
		Name:            "numaiod",
		Addr:            *addr,
		Handler:         handler,
		Out:             out,
		Logger:          logger,
		DumpFlight:      svc.DumpFlightRecorder,
		ShutdownTimeout: *drainTimeout,
		Drain:           svc.Drain,
	})
}
