// Command reprobench regenerates the figures of the paper's evaluation
// (Figs. 3–9) and prints them as ASCII tables, optionally writing CSV files.
//
// Usage:
//
//	reprobench -fig all            # every figure, full workloads
//	reprobench -fig 3 -quick      # one figure, reduced workload
//	reprobench -fig all -csv out/  # also write out/fig3.csv …
//
// Serving-path performance is measured by bench/ (see BENCHMARK.json), not
// here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"honestplayer/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reprobench:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("reprobench", flag.ContinueOnError)
	var (
		fig    = fs.String("fig", "all", `experiment: 3..9, "fig3".."fig9", an ablation id, "all" (figures), "ablations", or "everything"`)
		quick  = fs.Bool("quick", false, "shrink workloads for a fast smoke run")
		seed   = fs.Uint64("seed", 42, "random seed")
		csvDir = fs.String("csv", "", "directory to write <fig>.csv files into (optional)")
		plot   = fs.Bool("plot", false, "also render an ASCII plot of each figure")
		asJSON = fs.Bool("json", false, "emit JSON instead of tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ids, err := selectFigures(*fig)
	if err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("create csv dir: %w", err)
		}
	}
	opts := experiment.Options{Seed: *seed, Quick: *quick}
	for _, id := range ids {
		start := time.Now()
		res, err := experiment.Run(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				return fmt.Errorf("%s: encode: %w", id, err)
			}
		} else {
			fmt.Fprintln(out, res.Table())
			if *plot {
				fmt.Fprintln(out, res.Plot())
			}
		}
		fmt.Fprintf(out, "(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
			fmt.Fprintf(out, "wrote %s\n\n", path)
		}
	}
	return nil
}

func selectFigures(arg string) ([]string, error) {
	switch arg {
	case "all":
		return experiment.FigureIDs(), nil
	case "ablations":
		return experiment.AblationIDs(), nil
	case "everything":
		return experiment.IDs(), nil
	}
	id := arg
	if !strings.HasPrefix(id, "fig") && !strings.HasPrefix(id, "ablation") {
		id = "fig" + id
	}
	for _, known := range experiment.IDs() {
		if known == id {
			return []string{id}, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (have %v)", arg, experiment.IDs())
}
