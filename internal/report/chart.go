package report

import (
	"fmt"
	"strings"

	"numaio/internal/units"
)

// BarChart renders a horizontal ASCII bar chart — the terminal stand-in for
// the paper's bar figures (Figs. 4, 10). Bars scale to the largest value;
// each row shows the label, the bar and the numeric value in Gb/s.
type BarChart struct {
	Labels []string
	Values []units.Bandwidth
}

// Add appends one bar.
func (b *BarChart) Add(label string, v units.Bandwidth) {
	b.Labels = append(b.Labels, label)
	b.Values = append(b.Values, v)
}

// Render draws the chart.
func (b *BarChart) Render() (string, error) {
	if len(b.Labels) != len(b.Values) {
		return "", fmt.Errorf("report: chart has %d labels for %d values",
			len(b.Labels), len(b.Values))
	}
	if len(b.Values) == 0 {
		return "", fmt.Errorf("report: empty chart")
	}
	const width = 40 // bar width in characters
	var max units.Bandwidth
	labelW := 0
	for i, v := range b.Values {
		if v < 0 {
			return "", fmt.Errorf("report: negative value %v", v)
		}
		if v > max {
			max = v
		}
		if len(b.Labels[i]) > labelW {
			labelW = len(b.Labels[i])
		}
	}
	var out strings.Builder
	for i, v := range b.Values {
		n := 0
		if max > 0 {
			n = int(float64(v) / float64(max) * float64(width))
		}
		if v > 0 && n == 0 {
			n = 1 // keep tiny values visible
		}
		fmt.Fprintf(&out, "%-*s |%s%s %6.2f\n",
			labelW, b.Labels[i],
			strings.Repeat("#", n), strings.Repeat(" ", width-n),
			v.Gbps())
	}
	return out.String(), nil
}
