package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"numaio/internal/faults"
	"numaio/internal/numa"
	"numaio/internal/resilience"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
)

// These tests pin the what-if reuse contract (Config.Base): a model built
// by copying the samples a machine change cannot reach serializes to the
// same bytes as a fresh sweep of the changed machine.

// reuseProfiles are the distinct machines topology.ProfileByName accepts.
var reuseProfiles = []string{
	"dl585g7", "dl585g7-dualport", "magny-a", "magny-b", "magny-c", "magny-d",
	"intel-4s4n", "amd-4s8n", "amd-8s8n", "hp-blade32",
}

// duplexLinks lists each duplex link of m once, as a vertex pair: node to
// node, node to I/O hub and the PCIe tree below it.
func duplexLinks(m *topology.Machine) [][2]string {
	var out [][2]string
	for _, l := range m.Links() {
		if l.From < l.To && m.FindLink(l.To, l.From) >= 0 {
			out = append(out, [2]string{l.From, l.To})
		}
	}
	return out
}

// characterizeAll runs a whole-host sweep of m under cfg, returning the
// model and the number of measure spans it recorded.
func characterizeAll(t testing.TB, m *topology.Machine, cfg Config) (*MachineModel, int) {
	t.Helper()
	sys, err := numa.NewSystem(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = telemetry.NewTracer()
	c, err := NewCharacterizer(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := c.CharacterizeAll()
	if err != nil {
		t.Fatal(err)
	}
	return mm, countSpans(cfg.Tracer, "measure")
}

func countSpans(tr *telemetry.Tracer, cat string) int {
	n := 0
	for _, e := range tr.Events() {
		if e.Phase == 'X' && e.Cat == cat {
			n++
		}
	}
	return n
}

// checkReuse characterizes mutant fresh and with base as its Base, fails
// unless both serialize identically, and returns the measured cell counts
// of the reusing and the fresh sweep.
func checkReuse(t *testing.T, base *topology.Machine, baseMM *MachineModel, mutant *topology.Machine, cfg Config) (reused, fresh int) {
	t.Helper()
	want, fresh := characterizeAll(t, mutant, cfg)
	cfg.Base = &Base{Machine: base, Model: baseMM}
	got, reused := characterizeAll(t, mutant, cfg)
	if !bytes.Equal(machineJSON(t, got), machineJSON(t, want)) {
		t.Fatalf("model built with Base differs from a fresh sweep")
	}
	return reused, fresh
}

// TestWhatifReuseMatchesFresh is the differential oracle over random
// mutants of every profile: 1–3 duplex links, node-to-node or hub/PCIe,
// scaled by factors in [0.1, 2] (upgrades can reroute), at parallelism 1,
// 2, 3 and 8, with the default and with no measurement noise.
func TestWhatifReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	parallelism := []int{1, 2, 3, 8}
	var measured, cells int
	for _, profile := range reuseProfiles {
		base, err := topology.ProfileByName(profile)
		if err != nil {
			t.Fatal(err)
		}
		links := duplexLinks(base)
		for _, sigma := range []float64{0, -1} {
			cfg := Config{Sigma: sigma}
			if base.NumNodes() > 8 {
				cfg.Repeats = 2
			}
			baseMM, _ := characterizeAll(t, base, cfg)
			for i := 0; i < 3; i++ {
				mutant := base.Clone()
				var desc string
				for n := 1 + rng.Intn(3); n > 0; n-- {
					l := links[rng.Intn(len(links))]
					factor := 0.1 + 1.9*rng.Float64()
					if err := mutant.DegradeLinkBetween(l[0], l[1], factor); err != nil {
						t.Fatal(err)
					}
					desc += fmt.Sprintf(" %s-%s×%.2f", l[0], l[1], factor)
				}
				cfg.Parallelism = parallelism[rng.Intn(len(parallelism))]
				t.Run(fmt.Sprintf("%s/sigma%g/p%d/%s", profile, sigma, cfg.Parallelism, desc[1:]), func(t *testing.T) {
					reused, fresh := checkReuse(t, base, baseMM, mutant, cfg)
					measured += reused
					cells += fresh
				})
			}
		}
	}
	if measured >= cells {
		t.Errorf("reuse measured %d of %d cells: nothing was copied", measured, cells)
	}
	t.Logf("re-measured %d of %d cells (%.1f %%)", measured, cells, 100*float64(measured)/float64(cells))
}

// TestWhatifReuseCount pins how much of the A5 what-if (node0<->node7 at
// 0.35 on dl585g7) is re-measured: 7 ordered copy pairs route over that
// link, so 14 samples of 5 repeats — 70 of 640 cells — at any parallelism.
func TestWhatifReuseCount(t *testing.T) {
	base := topology.DL585G7()
	mutant := base.Clone()
	if err := mutant.DegradeLinkBetween("node0", "node7", 0.35); err != nil {
		t.Fatal(err)
	}
	baseMM, _ := characterizeAll(t, base, Config{})
	for _, p := range []int{1, 4} {
		cfg := Config{Parallelism: p}
		reused, fresh := checkReuse(t, base, baseMM, mutant, cfg)
		if reused != 70 || fresh != 640 {
			t.Errorf("p%d: measured %d of %d cells, want 70 of 640", p, reused, fresh)
		}
	}

	// Each sweep span reports the samples it copied: 128 - 14.
	sys, err := numa.NewSystem(mutant)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer()
	c, err := NewCharacterizer(sys, Config{Tracer: tr, Base: &Base{Machine: base, Model: baseMM}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CharacterizeAll(); err != nil {
		t.Fatal(err)
	}
	copied := 0
	for _, e := range tr.Events() {
		if e.Phase != 'X' || e.Cat != "characterize" {
			continue
		}
		for _, a := range e.Args {
			if a.Key == "reused" {
				var n int
				fmt.Sscan(a.Value, &n)
				copied += n
			}
		}
	}
	if copied != 114 {
		t.Errorf("characterize spans report %d reused samples, want 114", copied)
	}
}

// TestWhatifReuseFallsBack: every change the reuse rule does not cover
// runs the full sweep, and still equals a fresh one — including the
// resilience report under a fault plan.
func TestWhatifReuseFallsBack(t *testing.T) {
	base := topology.DL585G7()
	baseMM, _ := characterizeAll(t, base, Config{})
	degraded := func() *topology.Machine {
		m := base.Clone()
		if err := m.DegradeLinkBetween("node0", "node7", 0.35); err != nil {
			t.Fatal(err)
		}
		return m
	}
	renamed := degraded()
	renamed.Name = "dl585g7-renamed"
	cores := degraded()
	cores.Nodes[3].Cores++
	membw := degraded()
	membw.Nodes[5].MemBandwidth *= 0.9
	other, err := topology.ProfileByName("magny-a")
	if err != nil {
		t.Fatal(err)
	}
	otherMM, _ := characterizeAll(t, other, Config{})

	for _, tc := range []struct {
		name   string
		base   *topology.Machine
		baseMM *MachineModel
		mutant *topology.Machine
	}{
		{"renamed", base, baseMM, renamed},
		{"cores", base, baseMM, cores},
		{"mem-bandwidth", base, baseMM, membw},
		{"other-profile", other, otherMM, degraded()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reused, fresh := checkReuse(t, tc.base, tc.baseMM, tc.mutant, Config{Parallelism: 2})
			if reused != fresh {
				t.Errorf("measured %d of %d cells, want all", reused, fresh)
			}
		})
	}

	t.Run("fault-plan", func(t *testing.T) {
		plan, err := faults.Named("flaky-measurements")
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Parallelism: 2, Faults: &plan, Clock: resilience.NewAutoClock(time.Unix(0, 0))}
		planMM, _ := characterizeAll(t, base, cfg)
		reused, fresh := checkReuse(t, base, planMM, degraded(), cfg)
		if reused != fresh {
			t.Errorf("measured %d of %d cells, want all", reused, fresh)
		}
	})
}

// TestBaseValidation: a Base must carry both the machine and its model.
func TestBaseValidation(t *testing.T) {
	sys := sysFor(t, "dl585g7")
	mm := &MachineModel{}
	for _, b := range []*Base{{Model: mm}, {Machine: sys.Machine()}} {
		if _, err := NewCharacterizer(sys, Config{Base: b}); err == nil {
			t.Errorf("base %+v accepted", *b)
		}
	}
}

// FuzzWhatifReuse explores the reuse rule one sweep at a time: the input
// picks a profile, 1–3 duplex links with factors in [0.1, 2], a target and
// a mode, and Characterize with the profile's Base must equal a fresh run.
//
//	data[0] profile, data[1] target, data[2] mode, data[3] link count
//	(1 + b % 3), then (link, factor) byte pairs; factor = 0.1 + (b % 191) / 100.
func FuzzWhatifReuse(f *testing.F) {
	dl := topology.DL585G7()
	a5 := byte(0)
	for i, l := range duplexLinks(dl) {
		if l == [2]string{"node0", "node7"} {
			a5 = byte(i)
		}
	}
	f.Add([]byte{0, 7, 0, 0, a5, 25})          // A5: node0<->node7 at 0.35
	f.Add([]byte{0, 3, 1, 1, a5, 140, 2, 190}) // upgrades: 1.5x and 2x

	type baseline struct {
		m  *topology.Machine
		mm *MachineModel
	}
	cfg := Config{Repeats: 2}
	bases := make(map[string]baseline)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		profile := reuseProfiles[int(data[0])%len(reuseProfiles)]
		b, ok := bases[profile]
		if !ok {
			m, err := topology.ProfileByName(profile)
			if err != nil {
				t.Fatal(err)
			}
			mm, _ := characterizeAll(t, m, cfg)
			b = baseline{m, mm}
			bases[profile] = b
		}
		nodes := b.m.NodeIDs()
		target := nodes[int(data[1])%len(nodes)]
		mode := Mode(data[2] % 2)
		links := duplexLinks(b.m)
		mutant := b.m.Clone()
		rest := data[4:]
		for n := 1 + int(data[3])%3; n > 0 && len(rest) >= 2; n-- {
			l := links[int(rest[0])%len(links)]
			factor := 0.1 + float64(rest[1]%191)/100
			if err := mutant.DegradeLinkBetween(l[0], l[1], factor); err != nil {
				t.Fatal(err)
			}
			rest = rest[2:]
		}
		sweep := func(c Config) []byte {
			sys, err := numa.NewSystem(mutant)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := NewCharacterizer(sys, c)
			if err != nil {
				t.Fatal(err)
			}
			model, err := ch.Characterize(target, mode)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := model.SaveJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		want := sweep(cfg)
		withBase := cfg
		withBase.Base = &Base{Machine: b.m, Model: b.mm}
		if got := sweep(withBase); !bytes.Equal(got, want) {
			t.Fatalf("%s t%d %v: model with Base differs from a fresh run", profile, int(target), mode)
		}
	})
}
