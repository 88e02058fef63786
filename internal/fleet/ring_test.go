package fleet

import (
	"fmt"
	"testing"
)

// keys returns count synthetic fingerprints.
func keys(count int) []string {
	out := make([]string, count)
	for i := range out {
		out[i] = fmt.Sprintf("sha256:%064d", i)
	}
	return out
}

// TestRingDeterministicOwnership: ownership is a pure function of the
// member set — independent of construction order and stable across ring
// rebuilds (the process-restart property: a restarted gateway must agree
// with its precursor and with every other gateway).
func TestRingDeterministicOwnership(t *testing.T) {
	a, err := NewRing([]string{"r0", "r1", "r2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"r2", "r0", "r1"}, 64) // shuffled input
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(1000) {
		if a.Owners(k, 1)[0] != b.Owners(k, 1)[0] {
			t.Fatalf("key %s: owner %s vs %s under reordered construction", k, a.Owners(k, 1)[0], b.Owners(k, 1)[0])
		}
	}
}

// TestRingOwnershipGolden pins concrete owners so a future hash or
// ring-layout change that silently reshuffles the fleet fails loudly.
// FNV-1a is platform- and process-independent, so these values hold on
// every machine and every restart.
func TestRingOwnershipGolden(t *testing.T) {
	r, err := NewRing([]string{"r0", "r1", "r2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, k := range []string{"alpha", "bravo", "charlie", "delta"} {
		got[k] = r.Owners(k, 1)[0]
	}
	want := map[string]string{"alpha": "r1", "bravo": "r1", "charlie": "r2", "delta": "r1"}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("Owner(%q) = %s, want %s (ring layout changed — this reshuffles live fleets)", k, got[k], w)
		}
	}
}

// TestRingBoundedMovement: removing one of N members moves strictly fewer
// than 2/N of the keys, and only keys the departed member owned — the
// consistent-hashing minimal-movement guarantee that makes membership
// changes cheap.
func TestRingBoundedMovement(t *testing.T) {
	members := []string{"r0", "r1", "r2", "r3", "r4"}
	n := len(members)
	before, err := NewRing(members, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing([]string{"r0", "r1", "r3", "r4"}, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	ks := keys(4000)
	moved := 0
	for _, k := range ks {
		was, is := before.Owners(k, 1)[0], after.Owners(k, 1)[0]
		if was == is {
			continue
		}
		moved++
		if was != "r2" {
			t.Fatalf("key %s moved from surviving member %s to %s — movement is not minimal", k, was, is)
		}
	}
	if limit := 2 * len(ks) / n; moved >= limit {
		t.Errorf("%d of %d keys moved when 1 of %d members left; want < %d (2/N)", moved, len(ks), n, limit)
	}
	if moved == 0 {
		t.Error("no keys moved — the departed member owned nothing, ring is degenerate")
	}
}

// TestRingBalance: virtual nodes spread ownership; no member of five owns
// more than double or less than half its fair share over 4000 keys.
func TestRingBalance(t *testing.T) {
	members := []string{"r0", "r1", "r2", "r3", "r4"}
	r, err := NewRing(members, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	ks := keys(4000)
	for _, k := range ks {
		counts[r.Owners(k, 1)[0]]++
	}
	fair := len(ks) / len(members)
	for _, m := range members {
		if counts[m] < fair/2 || counts[m] > fair*2 {
			t.Errorf("member %s owns %d keys, fair share %d — vnode distribution is skewed", m, counts[m], fair)
		}
	}
}

// TestRingOwners: the replica preference list is distinct, starts at the
// owner, and clamps to the member count.
func TestRingOwners(t *testing.T) {
	r, err := NewRing([]string{"r0", "r1", "r2"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(200) {
		owners := r.Owners(k, 2)
		if len(owners) != 2 || owners[0] != r.Owners(k, 1)[0] || owners[0] == owners[1] {
			t.Fatalf("Owners(%s, 2) = %v (owner %s)", k, owners, r.Owners(k, 1)[0])
		}
		all := r.Owners(k, 99)
		if len(all) != 3 {
			t.Fatalf("Owners(%s, 99) = %v, want all 3 members", k, all)
		}
		seen := map[string]bool{}
		for _, m := range all {
			if seen[m] {
				t.Fatalf("Owners(%s, 99) repeats %s", k, m)
			}
			seen[m] = true
		}
	}
}

// TestRingValidation: empty and duplicate member sets are rejected.
func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 8); err == nil {
		t.Error("empty member set accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 8); err == nil {
		t.Error("duplicate members accepted")
	}
	if _, err := NewRing([]string{""}, 8); err == nil {
		t.Error("empty member name accepted")
	}
}
