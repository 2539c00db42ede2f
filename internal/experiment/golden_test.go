package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-seed1 from this build instead of comparing")

// TestQuickSeed1Goldens is the paper-fidelity gate: Figs. 3–8 and every
// ablation at `reprobench -quick -seed 1 -csv` scale must come out
// byte for byte as committed (reprobench writes exactly Result.CSV()). The
// figures are pure functions of the seed — through every calibrated ε, so
// through the calibration stream ADR 0007 fixes — and a refactor or a cheaper
// kernel that moves one cell fails here rather than drifting into results/.
// Fig. 9 is wall-clock and has no golden. After a change that is meant to
// move the figures: go test ./internal/experiment -run QuickSeed1Goldens
// -update.
func TestQuickSeed1Goldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// math.Exp and math.Log are assembly on some architectures and
		// FMA-contracted on others; the last bit may differ.
		t.Skipf("goldens were recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, id := range append(FigureIDs(), AblationIDs()...) {
		if id == "fig9" {
			continue
		}
		res, err := Run(id, Options{Seed: 1, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := res.CSV()
		path := filepath.Join("testdata", "quick-seed1", id+".csv")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from %s\n--- got\n%s--- want\n%s", id, path, got, want)
		}
	}
}
