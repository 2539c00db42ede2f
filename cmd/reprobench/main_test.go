package main

import "testing"

func TestSelectFigures(t *testing.T) {
	all, err := selectFigures("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 7 {
		t.Fatalf("all = %v", all)
	}
	abl, err := selectFigures("ablations")
	if err != nil {
		t.Fatal(err)
	}
	if len(abl) != 5 {
		t.Fatalf("ablations = %v", abl)
	}
	every, err := selectFigures("everything")
	if err != nil {
		t.Fatal(err)
	}
	if len(every) != 12 {
		t.Fatalf("everything = %v", every)
	}
	if got, err := selectFigures("ablation-window"); err != nil || len(got) != 1 {
		t.Fatalf("ablation-window -> %v, %v", got, err)
	}
	for _, in := range []string{"3", "fig3", "9", "fig9"} {
		got, err := selectFigures(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if len(got) != 1 {
			t.Fatalf("%q -> %v", in, got)
		}
	}
	if _, err := selectFigures("42"); err == nil {
		t.Fatal("unknown figure must fail")
	}
	if _, err := selectFigures("nonsense"); err == nil {
		t.Fatal("garbage must fail")
	}
}
