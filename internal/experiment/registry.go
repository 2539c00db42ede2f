package experiment

import (
	"fmt"
	"sort"
)

// Options selects a registry run: experiments scale their workloads down in
// Quick mode so the whole suite finishes in seconds instead of minutes.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks trial counts and history sizes for smoke runs.
	Quick bool
}

// Runner regenerates one figure.
type Runner func(Options) (*Result, error)

// Registry maps figure IDs to their runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig3":                runner(costScale, runFig3),
		"fig4":                runner(costScale, runFig4),
		"fig5":                runner(costScale, runFig5),
		"fig6":                runner(costScale, runFig6),
		"fig7":                runner(detectionScale, runFig7),
		"fig8":                runner(thresholdScale, runFig8),
		"fig9":                runner(perfScale, runFig9),
		"ablation-window":     runner(windowScale, runAblationWindow),
		"ablation-correction": runner(correctionScale, runAblationCorrection),
		"ablation-cusum":      runner(cusumScale, runAblationCUSUM),
		"ablation-lambda":     runner(lambdaScale, runAblationLambda),
		"ablation-replicates": runner(replicatesScale, runAblationReplicates),
	}
}

// runner binds an experiment to the registry: scale gives its parameters at
// full or Quick size, and run takes them with the run's seed.
func runner[P any](scale func(quick bool) P, run func(P, uint64) (*Result, error)) Runner {
	return func(o Options) (*Result, error) { return run(scale(o.Quick), o.Seed) }
}

// IDs returns every registered experiment ID, sorted: the ablations first,
// then the paper figures.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// FigureIDs returns the paper-figure experiments (fig3 … fig9) in order.
func FigureIDs() []string {
	return []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
}

// AblationIDs returns the ablation experiments in order.
func AblationIDs() []string {
	return []string{
		"ablation-correction", "ablation-cusum", "ablation-lambda",
		"ablation-replicates", "ablation-window",
	}
}

// Run regenerates one figure by ID.
func Run(id string, opts Options) (*Result, error) {
	r, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown figure %q (have %v)", id, IDs())
	}
	return r(opts)
}
