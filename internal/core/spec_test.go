package core

import (
	"testing"

	"honestplayer/internal/behavior"
)

// TestSpecBuild: every scheme and trust function the tools accept builds,
// under the name the assessor reports; unknown names and bad parameters fail.
func TestSpecBuild(t *testing.T) {
	for _, scheme := range []string{"none", "single", "multi", "collusion", "collusion-multi"} {
		for trustName, fnName := range map[string]string{"average": "average", "weighted": "weighted(λ=0.3)", "beta": "beta"} {
			tp, err := Spec{Scheme: scheme, Trust: trustName, Lambda: 0.3, Seed: 1}.Build()
			want := scheme + "+" + fnName
			if scheme == "none" {
				want = fnName
			}
			if err != nil || tp.Name() != want {
				t.Errorf("Build(%s, %s) = %v, %v; want %s", scheme, trustName, tp, err, want)
			}
		}
	}
	if tp, err := DefaultSpec.Build(); err != nil || tp.Name() != "multi+average" || tp.Tester().(*behavior.Multi).Config().WindowSize != 10 {
		t.Errorf("DefaultSpec builds %v, %v; want multi+average at m = 10", tp, err)
	}
	for _, bad := range []Spec{
		{Scheme: "multi", Trust: "nope"},
		{Scheme: "bogus", Trust: "average"},
		{Scheme: "multi", Trust: "weighted", Lambda: 2},
		{Scheme: "single", Trust: "average", Window: -1},
	} {
		if _, err := bad.Build(); err == nil {
			t.Errorf("Build(%+v) succeeded", bad)
		}
	}
}
