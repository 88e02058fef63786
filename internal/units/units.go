// Package units provides the value types used throughout numaio for
// bandwidth, data size and duration, together with parsing and formatting
// helpers. All bandwidths in the library are carried as Bandwidth (bits per
// second) and all sizes as Size (bytes), so conversions happen exactly once
// at the API boundary.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Bandwidth is a data rate in bits per second.
type Bandwidth float64

// Common bandwidth units.
const (
	BitPerSecond Bandwidth = 1
	Kbps                   = 1e3 * BitPerSecond
	Mbps                   = 1e6 * BitPerSecond
	Gbps                   = 1e9 * BitPerSecond
	Tbps                   = 1e12 * BitPerSecond
)

// Gbps reports the bandwidth in gigabits per second.
func (b Bandwidth) Gbps() float64 { return float64(b) / 1e9 }

// String formats the bandwidth with an auto-selected unit, e.g. "23.30Gb/s".
func (b Bandwidth) String() string {
	v := float64(b)
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%s%.2fTb/s", neg, v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%s%.2fGb/s", neg, v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%s%.2fMb/s", neg, v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%s%.2fKb/s", neg, v/1e3)
	default:
		return fmt.Sprintf("%s%.2fb/s", neg, v)
	}
}

// ParseBandwidth parses strings such as "40Gbps", "25 Gb/s", "128Mb/s",
// "1.5e9" (bare numbers are bits per second).
func ParseBandwidth(s string) (Bandwidth, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty bandwidth")
	}
	lower := strings.ToLower(strings.ReplaceAll(t, " ", ""))
	mult := 1.0
	for _, suf := range []struct {
		name string
		mult float64
	}{
		{"tbps", 1e12}, {"tb/s", 1e12},
		{"gbps", 1e9}, {"gb/s", 1e9},
		{"mbps", 1e6}, {"mb/s", 1e6},
		{"kbps", 1e3}, {"kb/s", 1e3},
		{"bps", 1}, {"b/s", 1},
	} {
		if strings.HasSuffix(lower, suf.name) {
			lower = strings.TrimSuffix(lower, suf.name)
			mult = suf.mult
			break
		}
	}
	v, err := strconv.ParseFloat(lower, 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse bandwidth %q: %v", s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("units: non-finite bandwidth %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative bandwidth %q", s)
	}
	return Bandwidth(v * mult), nil
}

// Size is a data size in bytes.
type Size int64

// Common size units (binary).
const (
	Byte Size = 1
	KiB       = 1024 * Byte
	MiB       = 1024 * KiB
	GiB       = 1024 * MiB
	TiB       = 1024 * GiB
)

// Bits reports the size in bits.
func (s Size) Bits() float64 { return float64(s) * 8 }

// String formats the size with an auto-selected binary unit, e.g. "128KiB".
func (s Size) String() string {
	v := float64(s)
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= float64(TiB):
		return fmt.Sprintf("%s%.2fTiB", neg, v/float64(TiB))
	case v >= float64(GiB):
		return fmt.Sprintf("%s%.2fGiB", neg, v/float64(GiB))
	case v >= float64(MiB):
		return fmt.Sprintf("%s%.2fMiB", neg, v/float64(MiB))
	case v >= float64(KiB):
		return fmt.Sprintf("%s%.2fKiB", neg, v/float64(KiB))
	default:
		return fmt.Sprintf("%s%.0fB", neg, v)
	}
}

// ParseSize parses strings such as "128KiB", "400GB", "20MB", "4096".
// Decimal suffixes (KB/MB/GB/TB) are treated as their binary counterparts,
// matching the conventions of fio job files.
func ParseSize(s string) (Size, error) {
	t := strings.ToLower(strings.ReplaceAll(strings.TrimSpace(s), " ", ""))
	if t == "" {
		return 0, fmt.Errorf("units: empty size")
	}
	mult := int64(1)
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"tib", int64(TiB)}, {"tb", int64(TiB)}, {"t", int64(TiB)},
		{"gib", int64(GiB)}, {"gb", int64(GiB)}, {"g", int64(GiB)},
		{"mib", int64(MiB)}, {"mb", int64(MiB)}, {"m", int64(MiB)},
		{"kib", int64(KiB)}, {"kb", int64(KiB)}, {"k", int64(KiB)},
		{"b", 1},
	} {
		if strings.HasSuffix(t, suf.name) {
			t = strings.TrimSuffix(t, suf.name)
			mult = suf.mult
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse size %q: %v", s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("units: non-finite size %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative size %q", s)
	}
	return Size(math.Round(v * float64(mult))), nil
}

// Duration is simulated time in seconds. The simulator is analytic, so a
// plain float64 second count is simpler and faster than time.Duration and
// avoids overflow for the paper's 400 GB transfers at low rates.
type Duration float64

// Seconds reports the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// String formats the duration with an auto-selected unit.
func (d Duration) String() string {
	v := float64(d)
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= 1:
		return fmt.Sprintf("%s%.3fs", neg, v)
	case v >= 1e-3:
		return fmt.Sprintf("%s%.3fms", neg, v*1e3)
	case v >= 1e-6:
		return fmt.Sprintf("%s%.3fus", neg, v*1e6)
	case v == 0:
		return "0s"
	default:
		return fmt.Sprintf("%s%.3fns", neg, v*1e9)
	}
}

// Rate reports the bandwidth achieved moving size in d.
// A non-positive duration yields +Inf bandwidth for a positive size.
func Rate(size Size, d Duration) Bandwidth {
	if d <= 0 {
		if size <= 0 {
			return 0
		}
		return Bandwidth(math.Inf(1))
	}
	return Bandwidth(size.Bits() / float64(d))
}
