package cli

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// readHeaderTimeout bounds the time a client may take to send a request's
// headers, so one that trickles them cannot hold a connection and its
// goroutine. net/http starts the clock when it accepts a connection and,
// for each later keep-alive request, at its first byte, so idle pooled
// connections are not cut. Tests shorten it.
var readHeaderTimeout = 10 * time.Second

// Daemon describes one HTTP daemon for Serve: numaiod and numaiogw.
type Daemon struct {
	// Name heads the exit line, "<Name>: drained, bye".
	Name string
	// Addr is the listen address.
	Addr    string
	Handler http.Handler
	// Out receives the "listening on http://ADDR" banner and the exit line.
	Out io.Writer
	// Logger receives the shutdown line; nil logs nothing.
	Logger *slog.Logger
	// DumpFlight writes the flight recorder; SIGQUIT sends it to stderr.
	DumpFlight func(io.Writer) error
	// Ready, when non-nil, runs once the banner is out.
	Ready func()
	// ShutdownTimeout bounds the graceful shutdown, Drain included.
	ShutdownTimeout time.Duration
	// Drain, when non-nil, finishes work begun outside requests, once the
	// HTTP server has shut down.
	Drain func(context.Context) error
}

// Serve runs d until SIGINT, SIGTERM or the end of ctx. It listens on
// d.Addr, prints the banner and serves d.Handler; SIGQUIT dumps the
// flight recorder to stderr without stopping the daemon. It then shuts down
// gracefully within d.ShutdownTimeout: it stops accepting, finishes open
// requests, runs d.Drain and prints the exit line.
func Serve(ctx context.Context, d Daemon) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The dump is rate-limited to one a second by the recorder itself.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	defer func() {
		signal.Stop(quitc)
		close(quitc)
	}()
	go func() {
		for range quitc {
			if err := d.DumpFlight(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}()

	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(d.Out, "listening on http://%s\n", ln.Addr())
	if d.Ready != nil {
		d.Ready()
	}

	srv := &http.Server{Handler: d.Handler, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc: // Serve fails only before Shutdown
		return err
	case <-ctx.Done():
	}

	if d.Logger != nil {
		d.Logger.Info("shutting down", "timeout", d.ShutdownTimeout)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), d.ShutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if d.Drain != nil {
		if err := d.Drain(shutCtx); err != nil {
			return err
		}
	}
	fmt.Fprintf(d.Out, "%s: drained, bye\n", d.Name)
	return nil
}
