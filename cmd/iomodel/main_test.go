package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numaio/internal/core"
)

func TestBothModesWithJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	var out bytes.Buffer
	if err := run([]string{"-o", path, "-mode", "write"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "I/O device write model of node 7") {
		t.Errorf("output:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	models, err := core.LoadModelsJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if model := models[0]; len(models) != 1 || model.Mode != core.ModeWrite || model.NumClasses() != 3 {
		t.Errorf("persisted model = %+v", model)
	}
}

func TestReadMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "read"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cost reduction 50%") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestBothDefault(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "write model") || !strings.Contains(s, "read model") {
		t.Errorf("output:\n%s", s)
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "sideways"}, &out); err == nil {
		t.Error("bad mode should fail")
	}
	if err := run([]string{"-machine", "warp"}, &out); err == nil {
		t.Error("unknown machine should fail")
	}
	if err := run([]string{"-target", "42"}, &out); err == nil {
		t.Error("unknown target should fail")
	}
	if err := run([]string{"-o", "/nonexistent-dir/x.json"}, &out); err == nil {
		t.Error("unwritable output should fail")
	}
	if err := run([]string{"-repeats", "-3"}, &out); err == nil {
		t.Error("negative repeats should fail")
	}
}

func TestWholeHostModel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "machine.json")
	var out bytes.Buffer
	if err := run([]string{"-all", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "whole-host cost reduction") {
		t.Errorf("output:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var mm core.MachineModel
	if err := json.NewDecoder(f).Decode(&mm); err != nil {
		t.Fatal(err)
	}
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(mm.Models) != 16 {
		t.Errorf("persisted models = %d, want 16", len(mm.Models))
	}
}

func TestGapThresholdFlag(t *testing.T) {
	var out bytes.Buffer
	// A tiny threshold fragments the remotes into more classes.
	if err := run([]string{"-mode", "read", "-gap", "0.02"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "cost reduction 50%") {
		t.Errorf("tiny gap threshold should change the class count:\n%s", out.String())
	}
	if err := run([]string{"-gap", "7"}, &out); err == nil {
		t.Error("out-of-range gap should fail")
	}
}
