// Package cli holds small helpers shared by the command-line tools: machine
// resolution for the -machine flag (also reused by the numaiod and numaiogw
// daemons for request bodies) and the exit-code contract every binary
// follows.
package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"

	"numaio/internal/topology"
)

// Machine resolves the -machine flag: a canned profile name, or a path to
// a machine JSON file (anything ending in .json, see topology.DecodeJSON).
func Machine(nameOrPath string) (*topology.Machine, error) {
	return topology.LoadMachine(nameOrPath, func(p string) (io.ReadCloser, error) {
		return os.Open(p)
	})
}

// ResolveMachine resolves a machine from a JSON value that is either a
// string (profile name or .json path, like the -machine flag) or an inline
// machine object (the topology.EncodeJSON format), and returns it with its
// topology.Fingerprint. It is the resolution the numaiod and numaiogw
// request bodies share with the command-line tools.
//
// A profile name is a pure function of the name, so it is built and
// fingerprinted once per process: every later call returns the same shared
// machine, which callers must treat as read-only (Clone before mutating).
// A .json path, whose file may change, and an inline object are resolved
// and fingerprinted on every call.
func ResolveMachine(raw json.RawMessage) (*topology.Machine, string, error) {
	if len(raw) == 0 {
		return resolveName("")
	}
	var name string
	if err := json.Unmarshal(raw, &name); err == nil {
		return resolveName(name)
	}
	m, err := topology.DecodeJSON(bytes.NewReader(raw))
	if err != nil {
		return nil, "", fmt.Errorf("cli: machine must be a profile name or an inline machine object: %w", err)
	}
	return fingerprinted(m)
}

// resolvedProfile is one memoized profile resolution.
type resolvedProfile struct {
	m  *topology.Machine
	fp string
}

// profiles maps a profile name to its *resolvedProfile. Only successful
// resolutions are stored, so it holds at most one entry per name
// topology.ProfileByName accepts, whatever names clients send.
var profiles sync.Map

// resolveName resolves a -machine style name: a .json path on every call,
// a profile name once per process.
func resolveName(name string) (*topology.Machine, string, error) {
	if strings.HasSuffix(name, ".json") {
		m, err := Machine(name)
		if err != nil {
			return nil, "", err
		}
		return fingerprinted(m)
	}
	if v, ok := profiles.Load(name); ok {
		r := v.(*resolvedProfile)
		return r.m, r.fp, nil
	}
	m, err := topology.ProfileByName(name)
	if err != nil {
		return nil, "", err
	}
	m, fp, err := fingerprinted(m)
	if err != nil {
		return nil, "", err
	}
	// A concurrent first resolution may have won; keep the stored one so
	// every caller shares a single machine.
	v, _ := profiles.LoadOrStore(name, &resolvedProfile{m: m, fp: fp})
	r := v.(*resolvedProfile)
	return r.m, r.fp, nil
}

func fingerprinted(m *topology.Machine) (*topology.Machine, string, error) {
	fp, err := topology.Fingerprint(m)
	if err != nil {
		return nil, "", err
	}
	return m, fp, nil
}

// DaemonLogger returns the structured logger behind a daemon's -quiet
// flag: text lines on w, or nil when quiet. A nil Logger in service.Config
// or fleet.GatewayConfig lets the request pipeline's Enabled check skip
// building each request's log attributes, which a logger on io.Discard
// would build and format only to drop.
func DaemonLogger(w io.Writer, quiet bool) *slog.Logger {
	if quiet {
		return nil
	}
	return slog.New(slog.NewTextHandler(w, nil))
}

// Exit-code contract for the cmd/* binaries:
//
//	0 — success (including -h / -help)
//	1 — runtime failure (bad input data, I/O error, model error)
//	2 — usage error (unparseable flags, missing or contradictory arguments)
//
// run() functions wrap usage problems with Usage/Usagef; main() funnels the
// returned error through Main, which prints to stderr and picks the code.

// usageError marks an error as a command-line usage problem.
type usageError struct{ err error }

func (u *usageError) Error() string { return u.err.Error() }
func (u *usageError) Unwrap() error { return u.err }

// Usage marks err as a usage error (exit code 2). A nil err stays nil.
func Usage(err error) error {
	if err == nil {
		return nil
	}
	return &usageError{err: err}
}

// Usagef builds a usage error (exit code 2) from a format string.
func Usagef(format string, args ...any) error {
	return &usageError{err: fmt.Errorf(format, args...)}
}

// IsUsage reports whether err is marked as a usage error. Flag-parse
// failures count as usage errors even when not explicitly wrapped.
func IsUsage(err error) bool {
	var u *usageError
	return errors.As(err, &u)
}

// ExitCode maps an error returned by a tool's run() to its process exit
// code under the contract above.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case IsUsage(err):
		return 2
	default:
		return 1
	}
}

// Main finalises a tool invocation: prints the error (if any, and unless it
// is the help pseudo-error, which flag already printed) prefixed with the
// tool name to stderr, and returns the exit code for os.Exit.
func Main(tool string, err error) int {
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	}
	return ExitCode(err)
}

// Parse runs fs.Parse and marks any failure as a usage error (-h/-help
// passes through as flag.ErrHelp, which ExitCode maps to 0).
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return Usage(err)
	}
	return nil
}
