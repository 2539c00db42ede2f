package experiment

import (
	"strings"
	"testing"
)

func TestResultTableAndCSV(t *testing.T) {
	r := &Result{
		ID:     "figX",
		Title:  "demo",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 1, Y: 2}, {X: 2, Y: 3.5}}},
			{Name: "b", Points: []Point{{X: 1, Y: 4}}},
		},
		Notes: []string{"hello"},
	}
	table := r.Table()
	for _, want := range []string{"FIGX", "demo", "a", "b", "3.5", "note: hello"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := r.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "x,a,b" {
		t.Errorf("csv header = %q", lines[0])
	}
	if lines[1] != "1,2,4" {
		t.Errorf("csv row 1 = %q", lines[1])
	}
	// Series b has no point at x=2: empty cell.
	if lines[2] != "2,3.5," {
		t.Errorf("csv row 2 = %q", lines[2])
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1, "1"}, {800, "800"}, {0.95, "0.95"}, {3.5, "3.5"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.in); got != tt.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestRegistryIDs(t *testing.T) {
	ids := IDs()
	want := append(AblationIDs(), FigureIDs()...)
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	// Every ID resolves to a runner.
	reg := Registry()
	for _, id := range ids {
		if reg[id] == nil {
			t.Fatalf("no runner for %s", id)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("fig99", Options{}); err == nil {
		t.Fatal("unknown figure must fail")
	}
}

func TestRunFig8Shape(t *testing.T) {
	res, err := runFig8(thresholdParams{
		historySizes: []int{100, 400, 1600},
		pHats:        []float64{0.9},
		replicates:   300,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 3 {
		t.Fatalf("series shape: %+v", res.Series)
	}
	pts := res.Series[0].Points
	// Paper shape: epsilon converges (decreases) as history grows.
	if !(pts[0].Y > pts[1].Y && pts[1].Y > pts[2].Y) {
		t.Fatalf("epsilon not decreasing: %+v", pts)
	}
	if pts[2].Y <= 0 || pts[0].Y >= 2 {
		t.Fatalf("epsilon out of range: %+v", pts)
	}
}

func TestRunFig7Shape(t *testing.T) {
	res, err := runFig7(detectionParams{
		windowSizes: []int{10, 80},
		trials:      60,
		replicates:  300,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s points = %d", s.Name, len(s.Points))
		}
		at10, at80 := s.Points[0].Y, s.Points[1].Y
		// Paper shape: detection decays with window size; at N=10 the
		// pattern is far from binomial and detection is high.
		if at10 < 0.5 {
			t.Errorf("%s: detection at N=10 = %v, want high", s.Name, at10)
		}
		if at80 >= at10 {
			t.Errorf("%s: detection did not decay: N=10 %v vs N=80 %v", s.Name, at10, at80)
		}
	}
}

func TestRunFig3QuickShape(t *testing.T) {
	res, err := runFig3(costParams{
		prepSizes:  []int{100, 600},
		goalBad:    10,
		trials:     1,
		replicates: 200,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	get := func(name string, x float64) float64 {
		for _, s := range res.Series {
			if s.Name == name {
				y, ok := s.at(x)
				if !ok {
					t.Fatalf("%s missing x=%v", name, x)
				}
				return y
			}
		}
		t.Fatalf("missing series %s", name)
		return 0
	}
	// Bare average collapses to ~0 at large prep (hibernating attack).
	if got := get("average", 600); got > 3 {
		t.Errorf("average cost at prep 600 = %v, want ~0", got)
	}
	// Multi-testing keeps the cost strictly positive at large prep.
	if got := get("scheme2+average", 600); got <= 3 {
		t.Errorf("scheme2 cost at prep 600 = %v, want substantial", got)
	}
}

func TestRunFig5QuickShape(t *testing.T) {
	res, err := runFig5(costParams{
		prepSizes:  []int{300},
		goalBad:    10,
		trials:     1,
		replicates: 200,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, s := range res.Series {
			if s.Name == name {
				return s.Points[0].Y
			}
		}
		t.Fatalf("missing series %s", name)
		return 0
	}
	// Without testing, colluders make the attack free.
	if got := get("average"); got != 0 {
		t.Errorf("bare average collusion cost = %v, want 0", got)
	}
	// Collusion-resilient multi-testing forces real services.
	if got := get("scheme2+average"); got == 0 {
		t.Errorf("scheme2 collusion cost = %v, want > 0", got)
	}
}

func TestRunFig9Small(t *testing.T) {
	res, err := runFig9(perfParams{
		historySizes: []int{20000, 40000},
		naiveSizes:   []int{2000, 4000},
		repeats:      1,
		replicates:   100,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Errorf("%s: negative time %v", s.Name, p.Y)
			}
		}
	}
}

func TestRunAblationCorrectionShape(t *testing.T) {
	res, err := runAblationCorrection(correctionParams{
		historySizes: []int{200, 1200},
		trials:       40,
		replicates:   1000,
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string, i int) float64 {
		for _, s := range res.Series {
			if s.Name == name {
				return s.Points[i].Y
			}
		}
		t.Fatalf("missing series %q", name)
		return 0
	}
	// Uncorrected pass rate collapses on long histories; corrected stays
	// reasonably high.
	uncorrLong := get("uncorrected (paper)", 1)
	corrLong := get("bonferroni-corrected", 1)
	if corrLong <= uncorrLong {
		t.Fatalf("correction did not help: corrected=%v uncorrected=%v", corrLong, uncorrLong)
	}
	if corrLong < 0.7 {
		t.Fatalf("corrected pass rate = %v, want >= 0.7", corrLong)
	}
}

func TestRunAblationReplicatesShape(t *testing.T) {
	res, err := runAblationReplicates(replicatesParams{
		replicateCounts: []int{50, 1000},
		resamples:       10,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	var spread Series
	for _, s := range res.Series {
		if s.Name == "epsilon spread (P95-P05)" {
			spread = s
		}
	}
	if len(spread.Points) != 2 {
		t.Fatalf("spread points = %d", len(spread.Points))
	}
	// More replicates -> tighter estimate.
	if spread.Points[1].Y >= spread.Points[0].Y {
		t.Fatalf("spread did not shrink: %v -> %v", spread.Points[0].Y, spread.Points[1].Y)
	}
}

func TestRunAblationWindowShape(t *testing.T) {
	res, err := runAblationWindow(windowParams{
		windowSizes: []int{10, 50},
		trials:      30,
		replicates:  200,
	}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 1 {
				t.Fatalf("%s rate %v out of [0,1]", s.Name, p.Y)
			}
		}
	}
}

func TestPlot(t *testing.T) {
	r := &Result{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "up", Points: []Point{{X: 0, Y: 0}, {X: 50, Y: 50}, {X: 100, Y: 100}}},
			{Name: "down", Points: []Point{{X: 0, Y: 100}, {X: 50, Y: 50}, {X: 100, Y: 0}}},
		},
	}
	p := r.Plot()
	for _, want := range []string{"FIGX", "up", "down", "*", "o", "x: x, y: y"} {
		if !strings.Contains(p, want) {
			t.Errorf("plot missing %q:\n%s", want, p)
		}
	}
	// Overlap at the midpoint is marked.
	if !strings.Contains(p, "&") {
		t.Errorf("plot missing overlap marker:\n%s", p)
	}
	if got := (&Result{}).Plot(); !strings.Contains(got, "no data") {
		t.Errorf("empty plot = %q", got)
	}
	// Flat series must not divide by zero.
	flat := &Result{ID: "f", Series: []Series{{Name: "c", Points: []Point{{X: 1, Y: 5}, {X: 2, Y: 5}}}}}
	if out := flat.Plot(); out == "" {
		t.Error("flat plot empty")
	}
}

func TestRunAblationCUSUMShape(t *testing.T) {
	res, err := runAblationCUSUM(cusumParams{
		postQualities: []float64{0},
		trials:        15,
		replicates:    200,
	}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		// A turn to all-bad must be detected quickly by both detectors.
		if s.Points[0].Y > 60 {
			t.Errorf("%s: delay %v at q=0, want quick detection", s.Name, s.Points[0].Y)
		}
	}
}

func TestRunAblationLambdaShape(t *testing.T) {
	res, err := runAblationLambda(lambdaParams{
		lambdas:    []float64{0.5},
		goalBad:    5,
		trials:     1,
		replicates: 200,
	}, 19)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, s := range res.Series {
			if s.Name == name {
				return s.Points[0].Y
			}
		}
		t.Fatalf("missing %q", name)
		return 0
	}
	if get("scheme2+weighted") < get("weighted") {
		t.Fatalf("testing lowered cost: %v < %v", get("scheme2+weighted"), get("weighted"))
	}
}

func TestRunFig4QuickShape(t *testing.T) {
	res, err := runFig4(costParams{
		prepSizes:  []int{200},
		goalBad:    5,
		trials:     1,
		replicates: 200,
	}, 21)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, s := range res.Series {
			if s.Name == name {
				return s.Points[0].Y
			}
		}
		t.Fatalf("missing %q", name)
		return 0
	}
	// The weighted baseline costs ~2-3 good per bad.
	bare := get("weighted(λ=0.5)")
	if bare < 5 || bare > 25 {
		t.Errorf("weighted baseline cost = %v for 5 attacks, want ~10-15", bare)
	}
	if get("scheme2+weighted(λ=0.5)") < bare {
		t.Errorf("scheme2 below bare weighted")
	}
}

func TestRunFig6QuickShape(t *testing.T) {
	res, err := runFig6(costParams{
		prepSizes:  []int{200},
		goalBad:    5,
		trials:     1,
		replicates: 200,
	}, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Name == "weighted(λ=0.5)" && s.Points[0].Y != 0 {
			t.Errorf("bare weighted collusion cost = %v, want 0", s.Points[0].Y)
		}
	}
}
