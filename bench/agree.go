package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long the timed streams of one run add up to.
const runSeconds = 10

// manifestFromTables renders the workload and metric tables as the
// manifest the driver reads.
func manifestFromTables() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

func writeManifest(w io.Writer) error {
	b, err := json.MarshalIndent(manifestFromTables(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// quartiles returns the three cut points of sorted data as Python's
// statistics.quantiles(data, n=4) computes them (the exclusive method), so
// the spreads printed here are the ones the driver computes.
func quartiles(data []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// loadSet reads the end-to-end run documents of a directory into
// workload → metric → values.
func loadSet(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "run_*_e2e_*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end run documents (run_*_e2e_*.json)", dir)
	}
	set := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var doc runDoc
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !doc.Correct {
			return nil, fmt.Errorf("%s: run was not correct: %s", f, doc.Error)
		}
		if set[doc.Workload] == nil {
			set[doc.Workload] = map[string][]float64{}
		}
		for name, v := range doc.Metrics {
			set[doc.Workload][name] = append(set[doc.Workload][name], v.Value)
		}
	}
	return set, nil
}

// runAgree prints, per workload and end-to-end metric, the two sets'
// medians and quartile spreads and whether the medians lie within the
// manifest's bound of each other. A metric whose spread in either set is
// wider than its bound is unresolved: the bound cannot tell a change from
// the noise there, so it is not reported as agreeing. setup_s is held to the
// shift alone, as the driver holds it. It reports whether every metric
// agrees.
func runAgree(w io.Writer, manifestPath, dirA, dirB string) (bool, error) {
	m, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	all := true
	fmt.Fprintf(w, "| workload | metric | runs A/B | median A | spread A | median B | spread B | shift | bound | agree |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range m.Workloads {
		for _, d := range m.EndToEnd {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "| %s | %s | %d/%d | | | | | | %.2f | missing |\n", wl.Name, d.Name, len(va), len(vb), d.Bound)
				all = false
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			shift := math.Abs(b2-a2) / a2
			verdict := "yes"
			switch {
			case !(shift < d.Bound):
				verdict, all = "NO", false
			case d.Name != "setup_s" && ((a3-a1)/a2 > d.Bound || (b3-b1)/b2 > d.Bound):
				verdict, all = "unresolved", false
			}
			fmt.Fprintf(w, "| %s | %s | %d/%d | %.4g %s | %.1f%% | %.4g %s | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				wl.Name, d.Name, len(va), len(vb), a2, d.Unit, 100*(a3-a1)/a2, b2, d.Unit, 100*(b3-b1)/b2, 100*shift, 100*d.Bound, verdict)
		}
	}
	return all, nil
}
