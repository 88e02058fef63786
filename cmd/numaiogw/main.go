// Command numaiogw is the fleet gateway: it terminates the numaiod v1 API
// in front of N replicas, routes each request to the replica owning its
// topology fingerprint on a consistent-hash ring, proxies to ring
// successors when the owner is down, replicates hot models to peers, and
// serves the fleet-wide placement endpoint POST /v1/fleet/place ("best
// node of the best host in the fleet"). See docs/FLEET.md.
//
// Usage:
//
//	numaiogw -config fleet.json [-addr host:port]
//	numaiogw -replicas http://h1:8081,http://h2:8082 [-addr host:port]
//	         [-vnodes n] [-replication n] [-hot-threshold n]
//	         [-health-interval d] [-breaker-threshold n] [-breaker-cooldown d]
//	         [-flight-events n] [-flight-dump]
//
// Like numaiod, the gateway keeps an always-on flight recorder of recent
// forwards and failovers (GET /debug/flightrecorder; -flight-events sizes
// the ring, negative disables). -flight-dump writes it to stderr on 5xx
// responses, and SIGQUIT dumps it on demand without stopping the gateway.
//
// Membership is static: a JSON config file ({"replicas": [{"name", "url"},
// ...], "vnodes", "replication", "hot_threshold"}) or a -replicas URL list
// (named r0, r1, ... in order). Flags override file values when both are
// given. The gateway prints "listening on http://ADDR" once bound and
// shuts down gracefully on SIGINT/SIGTERM.
//
// Exit status: 0 on clean shutdown, 1 on runtime failure, 2 on usage
// errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"numaio/internal/cli"
	"numaio/internal/fleet"
)

func main() {
	os.Exit(cli.Main("numaiogw", run(context.Background(), os.Args[1:], os.Stdout)))
}

// fleetConfig resolves the membership config from -config or -replicas.
func fleetConfig(configPath, replicas string, vnodes, replication, hotThreshold int) (*fleet.Config, error) {
	var cfg *fleet.Config
	switch {
	case configPath != "":
		var err error
		cfg, err = fleet.LoadConfig(configPath)
		if err != nil {
			return nil, err
		}
	case replicas != "":
		cfg = &fleet.Config{}
		for i, url := range strings.Split(replicas, ",") {
			url = strings.TrimSpace(url)
			if url == "" {
				return nil, fmt.Errorf("empty replica URL at position %d", i)
			}
			cfg.Replicas = append(cfg.Replicas, fleet.Replica{
				Name: fmt.Sprintf("r%d", i),
				URL:  strings.TrimRight(url, "/"),
			})
		}
	default:
		return nil, cli.Usagef("one of -config or -replicas is required")
	}
	if vnodes > 0 {
		cfg.VNodes = vnodes
	}
	if replication > 0 {
		cfg.Replication = replication
	}
	if hotThreshold != 0 {
		cfg.HotThreshold = hotThreshold
	}
	return cfg, nil
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("numaiogw", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address (use :0 for an ephemeral port)")
	configPath := fs.String("config", "", "fleet membership config file (JSON)")
	replicas := fs.String("replicas", "", "comma-separated replica base URLs (alternative to -config; named r0, r1, ...)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = config value or default)")
	replication := fs.Int("replication", 0, "total copies of a hot model, owner included (0 = config value; 1 disables)")
	hotThreshold := fs.Int("hot-threshold", 0, "routed requests before a model replicates to peers (0 = config value or default, negative disables)")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "active health-check period")
	breakerThreshold := fs.Int("breaker-threshold", 3, "consecutive failures that pull a replica out of rotation")
	breakerCooldown := fs.Duration("breaker-cooldown", 10*time.Second, "open-breaker cooldown before a replica is retried")
	timeout := fs.Duration("timeout", 30*time.Second, "per-forward HTTP timeout")
	flightEvents := fs.Int("flight-events", 0, "flight recorder ring capacity (0 = 4096, negative disables)")
	flightDump := fs.Bool("flight-dump", false, "dump the flight recorder to stderr on 5xx responses")
	quiet := fs.Bool("quiet", false, "log nothing to stderr")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if *configPath != "" && *replicas != "" {
		return cli.Usagef("-config and -replicas are mutually exclusive")
	}
	if *breakerThreshold < 1 {
		return cli.Usagef("-breaker-threshold must be at least 1, got %d", *breakerThreshold)
	}

	cfg, err := fleetConfig(*configPath, *replicas, *vnodes, *replication, *hotThreshold)
	if err != nil {
		return err
	}

	// nil under -quiet, which then logs nothing, the gateway's own lines
	// included.
	logger := cli.DaemonLogger(os.Stderr, *quiet)

	var dumpDst io.Writer
	if *flightDump {
		dumpDst = os.Stderr
	}
	gw, err := fleet.NewGateway(fleet.GatewayConfig{
		Fleet:              cfg,
		Logger:             logger,
		Client:             &http.Client{Timeout: *timeout},
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		HealthInterval:     *healthInterval,
		FlightRecorderSize: *flightEvents,
		FlightDump:         dumpDst,
	})
	if err != nil {
		return err
	}

	return cli.Serve(ctx, cli.Daemon{
		Name:       "numaiogw",
		Addr:       *addr,
		Handler:    gw.Handler(),
		Out:        out,
		Logger:     logger,
		DumpFlight: gw.DumpFlightRecorder,
		Ready: func() {
			if logger != nil {
				logger.Info("fleet gateway up",
					"replicas", len(cfg.Replicas),
					"vnodes", cfg.VNodes,
					"replication", cfg.Replication)
			}
			go gw.Run(ctx)
		},
		ShutdownTimeout: 10 * time.Second,
	})
}
