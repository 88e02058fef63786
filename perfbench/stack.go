package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"numaio/internal/fleet"
	"numaio/internal/service"
)

// daemonConfig is numaiod's configuration at its flag defaults under
// -quiet. Three of the defaults put work on every request: the 30 s
// request deadline, the retry budget and the circuit breaker.
func daemonConfig() service.Config {
	return service.Config{
		Workers:          4,
		CacheEntries:     modelCacheEntries,
		CacheTTL:         time.Hour,
		RespCacheEntries: respCacheEntries,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		RequestTimeout:   30 * time.Second,
		Retries:          2,
		RetryBackoff:     100 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  30 * time.Second,
	}
}

// fleetConfigJSON is the docs/FLEET.md membership file with the replicas'
// loopback URLs.
func fleetConfigJSON(urls []string) string {
	var reps []string
	for i, u := range urls {
		reps = append(reps, fmt.Sprintf(`{"name": "r%d", "url": %q}`, i, u))
	}
	return `{"replicas": [` + strings.Join(reps, ", ") + `], "vnodes": 128, "replication": 2, "hot_threshold": 8}`
}

// server is one http.Server on a loopback listener.
type server struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once shut down
	}()
	return s, nil
}

func (s *server) url() string { return "http://" + s.ln.Addr().String() }

// close shuts the server down gracefully, forcibly past the deadline, and
// returns once Serve has.
func (s *server) close(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(err, s.srv.Close())
	}
	<-s.done
	return err
}

// replica is one in-process numaiod.
type replica struct {
	svc  *service.Server
	srv  *server
	pull *http.Client
}

// stack is one workload's in-process deployment: numaiod replicas, an
// optional numaiogw gateway with its health loop, and the client
// connections to whichever of them the workload talks to.
type stack struct {
	replicas   []*replica
	gw         *fleet.Gateway
	gwSrv      *server
	gwClient   *http.Client
	stopHealth context.CancelFunc
	healthDone chan struct{}
	clients    []*client
}

// newTransport is a private copy of http.DefaultTransport, so closing a
// stack's idle connections touches nothing else in the process.
func newTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

// newStack builds and serves the workload's daemons and dials the
// clients. With a tracer, every layer boundary records spans. On error it
// tears down whatever it had started.
func newStack(ctx context.Context, wl *workload, tr *tracer) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	n := 1
	if wl.fleet {
		n = 3
	}
	var urls []string
	for i := 0; i < n; i++ {
		cfg := daemonConfig()
		rep := &replica{pull: &http.Client{Timeout: 30 * time.Second, Transport: newTransport()}}
		cfg.PullClient = rep.pull
		if tr != nil {
			cfg.Characterize = tr.characterize
		}
		rep.svc = service.New(cfg)
		st.replicas = append(st.replicas, rep)
		if rep.srv, err = serve(tr.handler(kService, rep.svc.Handler())); err != nil {
			return st, err
		}
		urls = append(urls, rep.srv.url())
	}
	addr := st.replicas[0].srv.ln.Addr().String()
	if wl.fleet {
		cfg, err := fleet.ParseConfig(strings.NewReader(fleetConfigJSON(urls)))
		if err != nil {
			return st, err
		}
		st.gwClient = &http.Client{Timeout: 30 * time.Second, Transport: tr.transport(newTransport())}
		st.gw, err = fleet.NewGateway(fleet.GatewayConfig{
			Fleet:            cfg,
			Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
			Client:           st.gwClient,
			BreakerThreshold: 3,
			BreakerCooldown:  10 * time.Second,
			HealthInterval:   2 * time.Second,
		})
		if err != nil {
			return st, err
		}
		// The first health round runs here, inside set-up; Run repeats it
		// and then probes every HealthInterval until the stack closes.
		st.gw.Membership().CheckNow(ctx)
		if avail, _ := st.gw.Membership().Counts(); avail != n {
			return st, fmt.Errorf("gateway sees %d of %d replicas healthy", avail, n)
		}
		hctx, cancel := context.WithCancel(context.Background())
		st.stopHealth, st.healthDone = cancel, make(chan struct{})
		go func() {
			defer close(st.healthDone)
			st.gw.Run(hctx)
		}()
		if st.gwSrv, err = serve(tr.handler(kGateway, st.gw.Handler())); err != nil {
			return st, err
		}
		addr = st.gwSrv.ln.Addr().String()
	}
	for i := 0; i < nClients; i++ {
		c, err := dial(ctx, addr)
		if err != nil {
			return st, err
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// close stops everything the stack started, in dependency order: the
// clients' connections, the gateway's health loop and server, then each
// replica's server and worker pool, closing idle client connections as it
// goes. It returns once every server goroutine has exited.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, c := range st.clients {
		c.close()
	}
	if st.stopHealth != nil {
		st.stopHealth()
		<-st.healthDone
	}
	if st.gwSrv != nil {
		errs = append(errs, st.gwSrv.close(ctx))
	}
	if st.gwClient != nil {
		st.gwClient.CloseIdleConnections()
	}
	for _, rep := range st.replicas {
		if rep.srv != nil {
			errs = append(errs, rep.srv.close(ctx))
		}
		errs = append(errs, rep.svc.Drain(ctx))
		rep.pull.CloseIdleConnections()
	}
	return errors.Join(errs...)
}
