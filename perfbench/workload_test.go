package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

func TestSameSeedGivesIdenticalSequence(t *testing.T) {
	for _, wl := range workloads {
		a, err := buildSequence(wl, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildSequence(wl, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.n != b.n {
			t.Fatalf("%s: %d vs %d requests", wl.name, a.n, b.n)
		}
		for i := 0; i < a.n; i++ {
			x, _ := a.at(i)
			y, _ := b.at(i)
			if !bytes.Equal(x, y) {
				t.Fatalf("%s: request %d differs between two builds of seed 42", wl.name, i)
			}
		}
		c, err := buildSequence(wl, 43, 1)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := a.at(a.n - 1)
		y, _ := c.at(c.n - 1)
		if bytes.Equal(x, y) {
			t.Errorf("%s: seeds 42 and 43 end in the same request", wl.name)
		}
		for _, s := range []*sequence{a, b, c} {
			if err := s.close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSeedsKeepUniqueness checks, for seeds other than the usual ones, the
// property each workload relies on: predict-hot's 64 distinct shapes, and
// the miss workloads' never-repeated mixes, factors and place shapes.
func TestSeedsKeepUniqueness(t *testing.T) {
	for _, seed := range []int64{3, 977, -5} {
		for _, wl := range workloads {
			seq, err := buildSequence(wl, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]int{}
			for i := 0; i < seq.n; i++ {
				body, _ := seq.at(i)
				key, err := uniquenessKey(wl.name, body, i)
				if err != nil {
					t.Fatalf("%s seed %d request %d: %v", wl.name, seed, i, err)
				}
				if j, dup := seen[key]; dup {
					t.Fatalf("%s seed %d: requests %d and %d share %s", wl.name, seed, j, i, key)
				}
				seen[key] = i
			}
			if wl.cyclic && len(seen) != 64 {
				t.Errorf("%s seed %d: %d shapes, want 64", wl.name, seed, len(seen))
			}
			if err := seq.close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// uniquenessKey is what must not repeat within a run: the response-cache
// key of a predict, the mutant of a what-if, the shape of a placement.
func uniquenessKey(workload string, body []byte, i int) (string, error) {
	switch workload {
	case "predict-hot", "predict-miss-fleet":
		var b predictBody
		if err := json.Unmarshal(body, &b); err != nil {
			return "", err
		}
		if workload == "predict-miss-fleet" && b.Machine != fleetMachines[i%len(fleetMachines)] {
			return "", fmt.Errorf("machine %s out of rotation", b.Machine)
		}
		sum := 0.0
		for _, f := range b.Mix {
			sum += f
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			return "", fmt.Errorf("mix sums to %v", sum)
		}
		k, err := json.Marshal(b)
		return string(k), err
	case "whatif-sweep":
		var b whatifBody
		if err := json.Unmarshal(body, &b); err != nil {
			return "", err
		}
		if len(b.Degrade) != 1 || b.Degrade[0].Factor <= 0 || b.Degrade[0].Factor >= 1 {
			return "", fmt.Errorf("degrade %+v", b.Degrade)
		}
		return fmt.Sprint("factor ", b.Degrade[0].Factor), nil
	case "place-evaluate":
		var b placeBody
		if err := json.Unmarshal(body, &b); err != nil {
			return "", err
		}
		if !b.Evaluate || b.Tasks < 1 {
			return "", fmt.Errorf("place body %+v", b)
		}
		return fmt.Sprint(b.Target, b.Tasks, b.SizePerTask), nil
	}
	return "", fmt.Errorf("unknown workload %s", workload)
}
