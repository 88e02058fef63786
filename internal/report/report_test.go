package report

import (
	"strings"
	"testing"

	"numaio/internal/units"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "Node", "BW")
	tb.AddRow("0", "23.3")
	tb.AddRow("1") // short row padded
	out := tb.Render()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "Node") ||
		!strings.Contains(out, "23.3") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("render has %d lines:\n%s", len(lines), out)
	}
	// Columns aligned: header and row share the separator width.
	if !strings.Contains(lines[2], "----") {
		t.Errorf("separator missing: %q", lines[2])
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("T", "A", "B")
	tb.AddRow("1", "2")
	md := tb.Markdown()
	for _, want := range []string{"**T**", "| A | B |", "| --- | --- |", "| 1 | 2 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("plain", `with,comma and "quote"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"with,comma and ""quote"""`) {
		t.Errorf("CSV quoting broken:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "A,B\n") {
		t.Errorf("CSV header broken:\n%s", csv)
	}
}

func TestFormatters(t *testing.T) {
	if Gbps(23.34*units.Gbps) != "23.3" {
		t.Error("Gbps")
	}
	if Gbps2(23.345*units.Gbps) != "23.35" && Gbps2(23.345*units.Gbps) != "23.34" {
		t.Errorf("Gbps2 = %q", Gbps2(23.345*units.Gbps))
	}
	if Range(26*units.Gbps, 27.3*units.Gbps) != "26.0 – 27.3" {
		t.Errorf("Range = %q", Range(26*units.Gbps, 27.3*units.Gbps))
	}
}

func TestSeriesTable(t *testing.T) {
	s1 := Series{Name: "node6", Labels: []string{"1", "2"}, Values: []units.Bandwidth{5 * units.Gbps, 10 * units.Gbps}}
	s2 := Series{Name: "node7", Labels: []string{"1", "2"}, Values: []units.Bandwidth{4 * units.Gbps, 9 * units.Gbps}}
	tb, err := SeriesTable("Fig", "streams", s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	for _, want := range []string{"streams", "node6", "node7", "10.00", "9.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("series table missing %q:\n%s", want, out)
		}
	}
	if _, err := SeriesTable("x", "l"); err == nil {
		t.Error("no series should fail")
	}
	bad := Series{Name: "bad", Labels: []string{"1"}, Values: nil}
	if _, err := SeriesTable("x", "l", s1, bad); err == nil {
		t.Error("inconsistent series should fail")
	}
}

func TestBarChart(t *testing.T) {
	var c BarChart
	c.Add("node7", 53*units.Gbps)
	c.Add("node2", 26.5*units.Gbps)
	c.Add("tiny", 0.01*units.Gbps)
	out, err := c.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "53.00") {
		t.Errorf("chart missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Largest value fills the bar; the smaller one is shorter but nonzero.
	full := strings.Count(lines[0], "#")
	half := strings.Count(lines[1], "#")
	tiny := strings.Count(lines[2], "#")
	if full != 40 {
		t.Errorf("max bar = %d chars, want 40", full)
	}
	if half >= full || half < 15 {
		t.Errorf("half bar = %d chars", half)
	}
	if tiny != 1 {
		t.Errorf("tiny bar = %d chars, want 1 (visibility floor)", tiny)
	}

	bad := BarChart{Labels: []string{"a"}}
	if _, err := bad.Render(); err == nil {
		t.Error("mismatched chart should fail")
	}
	empty := BarChart{}
	if _, err := empty.Render(); err == nil {
		t.Error("empty chart should fail")
	}
	neg := BarChart{Labels: []string{"a"}, Values: []units.Bandwidth{-1}}
	if _, err := neg.Render(); err == nil {
		t.Error("negative value should fail")
	}
	zero := BarChart{Labels: []string{"a"}, Values: []units.Bandwidth{0}}
	out, err = zero.Render()
	if err != nil || strings.Count(out, "#") != 0 {
		t.Errorf("all-zero chart should render empty bars: %q, %v", out, err)
	}
}
