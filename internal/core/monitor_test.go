package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

func monitorAssessor(t *testing.T) *TwoPhase {
	t.Helper()
	tester, err := behavior.NewMulti(behavior.Config{
		Calibrator: stats.NewCalibrator(
			stats.CalibrationConfig{Seed: 2, Replicates: 1500}, 0),
		FamilywiseCorrection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTwoPhase(tester, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestNewMonitorValidation(t *testing.T) {
	tp := monitorAssessor(t)
	if _, err := NewMonitor(nil, "s", 1); err == nil {
		t.Error("nil assessor must fail")
	}
	if _, err := NewMonitor(tp, "s", 0); err == nil {
		t.Error("interval 0 must fail")
	}
	plain, err := NewTwoPhase(nil, plainFunc{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMonitor(plain, "s", 1); err == nil {
		t.Error("an assessor without an incremental form must fail")
	}
}

// TestMonitorMatchesBatchAssess is the monitor's engine check: at interval 1
// every assessment it returns, through the short history, the honest phase,
// a burst and the recovery, DeepEquals TwoPhase.Assess over that prefix.
func TestMonitorMatchesBatchAssess(t *testing.T) {
	tp := monitorAssessor(t)
	m, err := NewMonitor(tp, "s", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(11)
	flagged := false
	for i := 0; i < 600; i++ {
		good := rng.Bernoulli(0.93)
		if i >= 300 && i < 330 {
			good = false // burst
		}
		client := feedback.EntityID(fmt.Sprintf("c%d", rng.Intn(20)))
		got, err := m.Record(client, good, time.Unix(int64(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		want, err := tp.Assess(m.History())
		if err != nil {
			t.Fatal(err)
		}
		if got == nil || !reflect.DeepEqual(*got, want) {
			t.Fatalf("record %d: monitor %+v, batch %+v", i+1, got, want)
		}
		flagged = flagged || got.Suspicious && !got.ShortHistory
	}
	if !flagged {
		t.Fatal("the burst was never flagged")
	}
}

func TestMonitorIntervalGates(t *testing.T) {
	m, err := NewMonitor(monitorAssessor(t), "s", 10)
	if err != nil {
		t.Fatal(err)
	}
	assessments := 0
	for i := 0; i < 95; i++ {
		a, err := m.Record("c", true, time.Unix(int64(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		if a != nil {
			assessments++
		}
	}
	if assessments != 9 {
		t.Fatalf("assessments = %d, want 9 (every 10th of 95)", assessments)
	}
	if m.History().Len() != 95 {
		t.Fatalf("history len = %d", m.History().Len())
	}
}

func TestMonitorFlagsHibernatorAndRecords(t *testing.T) {
	m, err := NewMonitor(monitorAssessor(t), "s", 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	// Honest phase.
	for i := 0; i < 400; i++ {
		if _, err := m.Record("c", rng.Bernoulli(0.95), time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Suspicious() {
		t.Fatalf("flagged during honest phase: %+v", m.Alerts())
	}
	// Attack burst.
	turned := -1
	for i := 400; i < 460; i++ {
		if _, err := m.Record("v", false, time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
		if m.Suspicious() && turned < 0 {
			turned = i
		}
	}
	if turned < 0 {
		t.Fatal("hibernating burst never flagged")
	}
	if turned > 430 {
		t.Fatalf("flagged only at transaction %d; expected within ~3 windows of the turn", turned)
	}
	alerts := m.Alerts()
	if len(alerts) == 0 {
		t.Fatal("no alerts recorded")
	}
	last := alerts[len(alerts)-1]
	if !last.Suspicious {
		t.Fatalf("last alert = %+v", last)
	}
}

func TestMonitorShortHistoryNoAlert(t *testing.T) {
	m, err := NewMonitor(monitorAssessor(t), "s", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a, err := m.Record("c", true, time.Unix(int64(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			t.Fatal("interval 1 must assess every transaction")
		}
		if !a.ShortHistory {
			t.Fatalf("20-transaction history unexpectedly testable: %+v", a)
		}
	}
	if len(m.Alerts()) != 0 {
		t.Fatalf("short-history alerts: %+v", m.Alerts())
	}
}
