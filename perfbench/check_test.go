package main

import (
	"bytes"
	"context"
	"regexp"
	"testing"
)

// TestTamperedResponseCounted sends one real request per workload kind to
// an in-process daemon, checks that the verifier accepts the response, and
// that the same response with one value altered counts as a failure.
func TestTamperedResponseCounted(t *testing.T) {
	tampers := map[string]*regexp.Regexp{
		"predict-hot":    regexp.MustCompile(`"predicted_bps": [0-9]`),
		"whatif-sweep":   regexp.MustCompile(`"after_bps": [0-9]`),
		"place-evaluate": regexp.MustCompile(`"measured_bps": [0-9]`),
	}
	for name, re := range tampers {
		wl, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := buildSequence(wl, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer seq.close()
		st, err := newStack(context.Background(), wl, nil)
		if err != nil {
			t.Fatal(err)
		}
		req, _ := seq.at(0)
		status, body, err := st.clients[0].do(appendRequest(nil, seq.path, "", req), false)
		body = bytes.Clone(body)
		if cerr := st.close(); cerr != nil {
			t.Error(cerr)
		}
		if err != nil || status != 200 {
			t.Fatalf("%s: status %d, err %v: %s", name, status, err, body)
		}
		chk := newChecker(wl, seq)
		if err := chk.shape(0, status, body); err != nil {
			t.Fatalf("%s: genuine response fails the shape check: %v", name, err)
		}
		if failed, errs := chk.verifyAll([]sample{{index: 0, body: body}}); failed != 0 {
			t.Fatalf("%s: genuine response counted as failed: %v", name, errs)
		}
		loc := re.FindIndex(body)
		if loc == nil {
			t.Fatalf("%s: no value to tamper with in %s", name, body)
		}
		tampered := bytes.Clone(body)
		digit := &tampered[loc[1]-1]
		*digit = '1' + (*digit-'0')%9 // a different nonzero leading digit
		failed, errs := chk.verifyAll([]sample{{index: 0, body: tampered}})
		if failed != 1 {
			t.Errorf("%s: tampered response counted %d failures, want 1", name, failed)
		}
		t.Logf("%s: tampered response rejected: %v", name, errs)
	}
}

// TestHotResponsesMustRepeatVerifiedBytes covers the in-window check of
// predict-hot, which compares bytes instead of decoding.
func TestHotResponsesMustRepeatVerifiedBytes(t *testing.T) {
	wl, err := lookupWorkload("predict-hot")
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker(wl, &sequence{cyclic: true})
	chk.hot = [][]byte{[]byte(`{"predicted_bps": 1}`), []byte(`{"predicted_bps": 2}`)}
	if err := chk.shape(3, 200, []byte(`{"predicted_bps": 2}`)); err != nil {
		t.Errorf("repeated bytes rejected: %v", err)
	}
	if err := chk.shape(3, 200, []byte(`{"predicted_bps": 3}`)); err == nil {
		t.Error("altered bytes accepted")
	}
	if err := chk.shape(2, 503, []byte(`{"predicted_bps": 1}`)); err == nil {
		t.Error("non-200 status accepted")
	}
}
