// Package experiment regenerates every figure of the paper's evaluation
// (Figs. 3–9) and the ablations behind DESIGN.md's choices. The registry is
// the package's only entry point: each experiment is a pure function of its
// scale (full or Quick) and its seed, and returns a Result carrying the same
// series the paper plots, renderable as an ASCII table or CSV.
//
// Absolute numbers depend on the machine (Fig. 9) and on stochastic detail
// the paper does not pin down; the reproduced artefact is the *shape* of
// each figure: which scheme wins, how cost scales with preparation size,
// where detection decays.
package experiment

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"honestplayer/internal/stats"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one named line of a figure.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Result is a regenerated figure.
type Result struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"xLabel"`
	YLabel string   `json:"yLabel"`
	Series []Series `json:"series"`
	Notes  []string `json:"notes,omitempty"`
}

// Table renders the result as a fixed-width ASCII table with one row per x
// value and one column per series, matching the paper's figure layout.
func (r *Result) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", strings.ToUpper(r.ID), r.Title)
	fmt.Fprintf(&sb, "x = %s, y = %s\n", r.XLabel, r.YLabel)

	xs := r.xValues()
	cols := make([]string, 0, len(r.Series)+1)
	cols = append(cols, r.XLabel)
	for _, s := range r.Series {
		cols = append(cols, s.Name)
	}
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
		if widths[i] < 12 {
			widths[i] = 12
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		sb.WriteString("\n")
	}
	writeRow(cols)
	for _, x := range xs {
		cells := []string{formatFloat(x)}
		for _, s := range r.Series {
			y, ok := s.at(x)
			if ok {
				cells = append(cells, formatFloat(y))
			} else {
				cells = append(cells, "-")
			}
		}
		writeRow(cells)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the result as comma-separated values with a header row.
func (r *Result) CSV() string {
	var sb strings.Builder
	sb.WriteString("x")
	for _, s := range r.Series {
		sb.WriteString(",")
		sb.WriteString(strings.ReplaceAll(s.Name, ",", ";"))
	}
	sb.WriteString("\n")
	for _, x := range r.xValues() {
		sb.WriteString(formatFloat(x))
		for _, s := range r.Series {
			sb.WriteString(",")
			if y, ok := s.at(x); ok {
				sb.WriteString(formatFloat(y))
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func (s Series) at(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

func (r *Result) xValues() []float64 {
	seen := make(map[float64]struct{})
	var xs []float64
	for _, s := range r.Series {
		for _, p := range s.Points {
			if _, ok := seen[p.X]; !ok {
				seen[p.X] = struct{}{}
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 5, 64)
}

// Shared experiment constants, straight from §5.
const (
	trustThreshold = 0.9  // the clients' trust threshold
	prepTrust      = 0.95 // the attacker's trustworthiness during preparation
	windowSize     = 10   // the transaction window m
	weightedLambda = 0.5  // the weighted trust function's λ
)

// newCalibrator builds the shared threshold calibrator used by an
// experiment run.
func newCalibrator(seed uint64, replicates int) *stats.Calibrator {
	return stats.NewCalibrator(stats.CalibrationConfig{Seed: seed, Replicates: replicates}, 0)
}
