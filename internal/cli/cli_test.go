package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numaio/internal/topology"
)

// profileNames is every name topology.ProfileByName accepts.
var profileNames = []string{
	"", "dl585g7", "testbed", "dl585g7-dualport",
	"magny-a", "magny-b", "magny-c", "magny-d",
	"intel-4s4n", "amd-4s8n", "amd-8s8n", "hp-blade32",
}

func quoted(t *testing.T, s string) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func wantFingerprint(t *testing.T, name string) string {
	t.Helper()
	m, err := topology.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := topology.Fingerprint(m)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestResolveMachineProfileOncePerProcess(t *testing.T) {
	for _, name := range profileNames {
		want := wantFingerprint(t, name)
		m1, fp1, err := ResolveMachine(quoted(t, name))
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		m2, fp2, err := ResolveMachine(quoted(t, name))
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if fp1 != want || fp2 != want {
			t.Errorf("%q: fingerprints %s, %s; want %s", name, fp1, fp2, want)
		}
		if m1 != m2 {
			t.Errorf("%q: repeat resolution built a second machine", name)
		}
	}
	// An absent machine field is the default profile, the same shared one.
	m, fp, err := ResolveMachine(nil)
	if err != nil {
		t.Fatal(err)
	}
	named, _, _ := ResolveMachine(quoted(t, ""))
	if fp != wantFingerprint(t, "") || m != named {
		t.Errorf("absent machine: fingerprint %s, shared %v", fp, m == named)
	}
}

func TestResolveMachineUnknownNameNotStored(t *testing.T) {
	const name = "no-such-profile"
	_, wantErr := topology.ProfileByName(name)
	for i := 0; i < 2; i++ {
		m, fp, err := ResolveMachine(quoted(t, name))
		if err == nil || err.Error() != wantErr.Error() || m != nil || fp != "" {
			t.Fatalf("call %d: got (%v, %q, %v), want error %v", i, m, fp, err, wantErr)
		}
	}
	if _, ok := profiles.Load(name); ok {
		t.Error("failed resolution was memoized")
	}
}

func TestResolveMachineJSONPathEveryCall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "host.json")
	write := func(name string) string {
		t.Helper()
		m, err := topology.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return wantFingerprint(t, name)
	}
	for _, name := range []string{"intel-4s4n", "amd-4s8n"} {
		want := write(name)
		_, fp, err := ResolveMachine(quoted(t, path))
		if err != nil {
			t.Fatal(err)
		}
		if fp != want {
			t.Errorf("after writing %s: fingerprint %s, want %s", name, fp, want)
		}
	}
	if _, ok := profiles.Load(path); ok {
		t.Error(".json path was memoized")
	}
}

func TestResolveMachineInlineObject(t *testing.T) {
	for _, name := range []string{"dl585g7", "magny-c"} {
		m, err := topology.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		shared, _, _ := ResolveMachine(quoted(t, name))
		got, fp, err := ResolveMachine(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if want := wantFingerprint(t, name); fp != want {
			t.Errorf("inline %s: fingerprint %s, want %s", name, fp, want)
		}
		if got == shared {
			t.Errorf("inline %s: returned the shared profile machine", name)
		}
	}
	if _, _, err := ResolveMachine(json.RawMessage(`{"nodes": 3}`)); err == nil {
		t.Error("malformed inline machine accepted")
	}
}

func TestResolveMachineMemoizedAllocs(t *testing.T) {
	raw := json.RawMessage(`"dl585g7"`)
	if _, _, err := ResolveMachine(raw); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := ResolveMachine(raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("memoized named resolve: %.0f allocs, want <= 4", allocs)
	}
}

// TestDaemonLogger: -quiet yields no logger at all, so the daemons'
// request pipelines build no log attributes; otherwise lines go to w.
func TestDaemonLogger(t *testing.T) {
	var buf bytes.Buffer
	if l := DaemonLogger(&buf, true); l != nil {
		t.Fatalf("quiet logger = %v, want nil", l)
	}
	DaemonLogger(&buf, false).Info("request", "status", 200)
	if got := buf.String(); !strings.Contains(got, "msg=request status=200") {
		t.Errorf("logged %q, want a text line", got)
	}
}
