package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBandwidthConversions(t *testing.T) {
	b := 40 * Gbps
	if got := b.Gbps(); got != 40 {
		t.Errorf("Gbps() = %v, want 40", got)
	}
}

func TestBandwidthString(t *testing.T) {
	cases := []struct {
		in   Bandwidth
		want string
	}{
		{0, "0.00b/s"},
		{512, "512.00b/s"},
		{2 * Kbps, "2.00Kb/s"},
		{25 * Mbps, "25.00Mb/s"},
		{23.3 * Gbps, "23.30Gb/s"},
		{1.5 * Tbps, "1.50Tb/s"},
		{-2 * Gbps, "-2.00Gb/s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestParseBandwidth(t *testing.T) {
	cases := []struct {
		in   string
		want Bandwidth
	}{
		{"40Gbps", 40 * Gbps},
		{"40 Gb/s", 40 * Gbps},
		{"25gbps", 25 * Gbps},
		{"128Mbps", 128 * Mbps},
		{"9.6 Kb/s", 9.6 * Kbps},
		{"1e9", Gbps},
		{"17bps", 17},
	}
	for _, c := range cases {
		got, err := ParseBandwidth(c.in)
		if err != nil {
			t.Errorf("ParseBandwidth(%q): %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-6*float64(c.want)+1e-9 {
			t.Errorf("ParseBandwidth(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseBandwidthErrors(t *testing.T) {
	for _, in := range []string{"", "fast", "-3Gbps", "Gbps"} {
		if _, err := ParseBandwidth(in); err == nil {
			t.Errorf("ParseBandwidth(%q): expected error", in)
		}
	}
}

func TestSizeConversions(t *testing.T) {
	s := 128 * KiB
	if got := s.Bits(); got != 1048576 {
		t.Errorf("Bits() = %v, want 1048576", got)
	}
}

func TestSizeString(t *testing.T) {
	cases := []struct {
		in   Size
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{128 * KiB, "128.00KiB"},
		{20 * MiB, "20.00MiB"},
		{400 * GiB, "400.00GiB"},
		{2 * TiB, "2.00TiB"},
		{-KiB, "-1.00KiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want Size
	}{
		{"128KiB", 128 * KiB},
		{"128k", 128 * KiB},
		{"400GB", 400 * GiB},
		{"20MB", 20 * MiB},
		{"4096", 4096},
		{"1.5m", Size(1.5 * float64(MiB))},
		{"9000b", 9000},
		{"2TiB", 2 * TiB},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseSizeErrors(t *testing.T) {
	for _, in := range []string{"", "big", "-1k", "KiB"} {
		if _, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q): expected error", in)
		}
	}
}

func TestRate(t *testing.T) {
	bw := Rate(GiB, Duration(1))
	if got := bw.Gbps(); math.Abs(got-float64(GiB)*8/1e9) > 1e-9 {
		t.Errorf("Rate = %v Gbps", got)
	}
	if Rate(0, 0) != 0 {
		t.Error("Rate(0,0) should be 0")
	}
	if !math.IsInf(float64(Rate(GiB, 0)), 1) {
		t.Error("Rate with zero duration should be +Inf")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		in   Duration
		want string
	}{
		{0, "0s"},
		{1.5, "1.500s"},
		{5e-3, "5.000ms"},
		{5e-6, "5.000us"},
		{5e-9, "5.000ns"},
		{-2, "-2.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

// Property: Rate inverts the transfer time size.Bits()/bw for positive
// inputs.
func TestTransferRateRoundTrip(t *testing.T) {
	f := func(sz uint32, bwMbps uint16) bool {
		size := Size(int64(sz) + 1)
		bw := Bandwidth(float64(bwMbps)+1) * Mbps
		d := Duration(size.Bits() / float64(bw))
		back := Rate(size, d)
		return math.Abs(float64(back-bw)) < 1e-6*float64(bw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String/Parse round-trips for bandwidth at Gb/s granularity.
func TestBandwidthStringParseRoundTrip(t *testing.T) {
	f := func(g uint16) bool {
		bw := Bandwidth(g) * Gbps
		parsed, err := ParseBandwidth(bw.String())
		if err != nil {
			return false
		}
		return math.Abs(float64(parsed-bw)) <= 0.005*float64(bw)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
