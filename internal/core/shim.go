package core

import (
	"fmt"

	"honestplayer/internal/feedback"
)

// This file holds the names the benchmark module still compiles against
// after the incremental engine's deletion (ADR 0016's fourth amendment):
// each is a thin wrapper over a feedback.History and TwoPhase.Accept, and
// nothing else in the module names them.

// ServerAccumulator keeps one server's records and answers from them
// through TwoPhase.Accept.
//
// Deprecated: keep a feedback.History and ask TwoPhase.Accept; the
// incremental engine this stood for is gone (ADR 0016's fourth amendment).
type ServerAccumulator struct {
	tp *TwoPhase
	h  *feedback.History
}

// NewServerAccumulator returns an empty ServerAccumulator for server. It
// never fails.
//
// Deprecated: use feedback.NewHistory and TwoPhase.Accept.
func (tp *TwoPhase) NewServerAccumulator(server feedback.EntityID) (*ServerAccumulator, error) {
	return &ServerAccumulator{tp: tp, h: feedback.NewHistory(server)}, nil
}

// Append adds f to the records; a record the history refuses
// (History.Append) is dropped.
//
// Deprecated: use History.Append.
func (sa *ServerAccumulator) Append(f feedback.Feedback) { _ = sa.h.Append(f) }

// Accept is TwoPhase.Accept over the records appended so far.
//
// Deprecated: use TwoPhase.Accept.
func (sa *ServerAccumulator) Accept(threshold float64) (bool, Assessment, error) {
	return sa.tp.Accept(sa.h, threshold)
}

// SizeBytes returns the approximate resident heap footprint of the records.
//
// Deprecated: use History.SizeBytes.
func (sa *ServerAccumulator) SizeBytes() int {
	const saStruct = 16 // two pointers
	return saStruct + sa.h.SizeBytes()
}

// AppendState returns buf unchanged and false: an accumulator is a pure
// function of the records it consumed, so nothing serializes it.
//
// Deprecated: a snapshot holds records only (ADR 0017); to recover an
// accumulator, replay its history into NewServerAccumulator's.
func (sa *ServerAccumulator) AppendState(buf []byte) ([]byte, bool) { return buf, false }

// RestoreServerAccumulator always fails: there is no accumulator state to
// restore.
//
// Deprecated: a snapshot holds records only (ADR 0017); to recover an
// accumulator, replay its history into NewServerAccumulator's.
func (tp *TwoPhase) RestoreServerAccumulator(server feedback.EntityID, state []byte) (*ServerAccumulator, int, error) {
	return nil, 0, fmt.Errorf("core: no accumulator state to restore for %q: replay its history", server)
}
