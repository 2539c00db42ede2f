package core

import (
	"errors"
	"fmt"
	"time"

	"honestplayer/internal/feedback"
)

// Alert records a change in a monitored server's assessment status.
type Alert struct {
	// Transaction is the 1-based index of the transaction that triggered
	// the re-assessment.
	Transaction int `json:"transaction"`
	// Suspicious is the new status.
	Suspicious bool `json:"suspicious"`
	// Assessment is the full assessment that raised the alert.
	Assessment Assessment `json:"assessment"`
}

// Monitor watches one server's transaction stream, re-assessing it every
// Interval transactions and recording an Alert whenever the suspicious
// status flips. It is the continuous-deployment shape of the paper's
// mechanism: an online marketplace does not assess once, it re-assesses as
// feedback arrives. Like a serving node, it keeps the history and answers
// each re-assessment with TwoPhase.Assess over it (ADR 0016).
//
// Use a tester with FamilywiseCorrection enabled for monitoring — the
// uncorrected multi test's per-suffix false positives compound over
// repeated assessment (see the ablation-correction experiment).
//
// Monitor is not safe for concurrent use.
type Monitor struct {
	assessor *TwoPhase
	history  *feedback.History
	interval int

	sinceAssess int
	suspicious  bool
	assessed    bool
	alerts      []Alert
}

// NewMonitor creates a monitor for one server. interval is how many
// transactions pass between re-assessments (1 = every transaction).
func NewMonitor(assessor *TwoPhase, server feedback.EntityID, interval int) (*Monitor, error) {
	if assessor == nil {
		return nil, errors.New("core: nil assessor")
	}
	if interval < 1 {
		return nil, fmt.Errorf("core: monitor interval %d", interval)
	}
	return &Monitor{assessor: assessor, history: feedback.NewHistory(server), interval: interval}, nil
}

// History exposes the accumulated history (read-only use).
func (m *Monitor) History() *feedback.History { return m.history }

// Suspicious reports the latest assessment status (false before the first
// assessment).
func (m *Monitor) Suspicious() bool { return m.suspicious }

// Alerts returns a copy of all status-change alerts so far.
func (m *Monitor) Alerts() []Alert {
	out := make([]Alert, len(m.alerts))
	copy(out, m.alerts)
	return out
}

// Record appends one transaction outcome. When the re-assessment interval
// elapses it returns the assessment of the history so far (nil otherwise).
// Histories too short to behaviour-test do not raise alerts — a brand-new
// server is handled by the short-history policy at transaction time, not by
// the monitor.
func (m *Monitor) Record(client feedback.EntityID, good bool, at time.Time) (*Assessment, error) {
	if err := m.history.AppendOutcome(client, good, at); err != nil {
		return nil, err
	}
	m.sinceAssess++
	if m.sinceAssess < m.interval {
		return nil, nil
	}
	m.sinceAssess = 0
	a, err := m.assessor.Assess(m.history)
	if err != nil {
		return nil, err
	}
	if a.ShortHistory {
		return &a, nil
	}
	if !m.assessed || a.Suspicious != m.suspicious {
		m.alerts = append(m.alerts, Alert{
			Transaction: m.history.Len(),
			Suspicious:  a.Suspicious,
			Assessment:  a,
		})
	}
	m.assessed = true
	m.suspicious = a.Suspicious
	return &a, nil
}
