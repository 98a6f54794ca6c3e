package harness

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Bar renders a proportional ASCII bar of value against max, width chars
// wide. Experiments use it to make histograms and comparisons readable in
// a terminal without plotting dependencies.
func Bar(value, max float64, width int) string {
	if width <= 0 || max <= 0 || value <= 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	if n == 0 {
		n = 1 // visible trace for any positive value
	}
	return strings.Repeat("#", n)
}

// barWidth is the length of a full-scale bar in BarRow.
const barWidth = 40

// BarRow writes one labelled bar line: "label value |#####".
func BarRow(w io.Writer, label string, value, max float64, unit string) {
	fmt.Fprintf(w, "  %-16s %9.2f %-3s |%s\n", label, value, unit, Bar(value, max, barWidth))
}

// Sparkline compresses a series into one line of block characters, used
// for the Fig. 10 latency timeline.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(levels)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// RenderBars prints a labelled bar chart for a set of (label, value)
// pairs, scaled to the maximum value.
func RenderBars(w io.Writer, title, unit string, labels []string, values []float64) {
	if len(labels) != len(values) {
		panic("harness: RenderBars label/value mismatch")
	}
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	fmt.Fprintf(w, "%s\n", title)
	for i := range labels {
		BarRow(w, labels[i], values[i], max, unit)
	}
}

// ExportCSV writes the raw per-query outcomes of a comparison to one CSV
// file per (trace, policy) pair under dir, for external plotting:
// query_id, arrival_ms, latency_ms, p_at_k, active_isns, docs_searched,
// dropped_isns, budget_ms.
func ExportCSV(dir string, c *Comparison) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for ti, kind := range c.Traces {
		for pi, policy := range c.Policies {
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.csv", kind, policy))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			w := bufio.NewWriter(f)
			fmt.Fprintln(w, "query_id,arrival_ms,latency_ms,p_at_k,active_isns,docs_searched,dropped_isns,budget_ms")
			for _, o := range c.Results[ti][pi].Outcomes {
				budget := o.BudgetMS
				if math.IsInf(budget, 1) {
					budget = -1 // sentinel: unbudgeted
				}
				fmt.Fprintf(w, "%d,%.4f,%.4f,%.3f,%d,%d,%d,%.4f\n",
					o.QueryID, o.ArrivalMS, o.LatencyMS, o.PAtK,
					o.ActiveISNs, o.DocsSearched, o.DroppedISNs, budget)
			}
			if err := w.Flush(); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
