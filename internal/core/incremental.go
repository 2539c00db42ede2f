package core

import (
	"fmt"

	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/trust"
)

// ServerAccumulator is the incremental counterpart of TwoPhase for a single
// server: it consumes the server's feedback stream in amortised O(1) per
// record and can produce at any point the Assessment that TwoPhase.Assess
// would compute over the history consumed so far — the same Honest flag,
// p̂ values, distances, trust value, Wilson bounds, and errors, bit for bit.
//
// Its users are the reproduction's what-if clones (internal/attack),
// sim.Run and Monitor; a serving node keeps none and recomputes every
// verdict (ADR 0016's amendment). The caller must guarantee that Append
// never runs concurrently with anything else (concurrent Assess/Accept
// calls are safe with each other).
type ServerAccumulator struct {
	tp     *TwoPhase
	server feedback.EntityID
	beh    *behavior.Accumulator // nil when phase 1 is disabled
	tr     *trust.Accumulator
}

// SupportsIncremental reports whether NewServerAccumulator can mirror this
// assessor: the trust function must provide a tracker and the tester (when
// set) an incremental accumulator. All built-in combinations qualify.
func (tp *TwoPhase) SupportsIncremental() bool {
	if _, ok := tp.fn.(trust.TrackerFunc); !ok {
		return false
	}
	return tp.tester == nil || behavior.SupportsAccumulator(tp.tester)
}

// NewServerAccumulator mints an empty incremental assessment state for one
// server. It fails when the assessor's components have no incremental form;
// use SupportsIncremental to check up front.
func (tp *TwoPhase) NewServerAccumulator(server feedback.EntityID) (*ServerAccumulator, error) {
	tr, ok := trust.NewAccumulator(tp.fn)
	if !ok {
		return nil, fmt.Errorf("core: trust function %s has no incremental tracker", tp.fn.Name())
	}
	sa := &ServerAccumulator{tp: tp, server: server, tr: tr}
	if tp.tester != nil {
		beh, ok := behavior.NewAccumulatorFor(tp.tester)
		if !ok {
			return nil, fmt.Errorf("core: tester %s has no incremental accumulator", tp.tester.Name())
		}
		sa.beh = beh
	}
	return sa, nil
}

// Clone returns an independent copy: appending to either leaves the other's
// verdicts as they were, so a clone answers "what if these records were
// appended" (ADR 0016). The assessor and its calibrator stay shared.
func (sa *ServerAccumulator) Clone() *ServerAccumulator {
	c := *sa
	c.tr = sa.tr.Clone()
	if sa.beh != nil {
		c.beh = sa.beh.Clone()
	}
	return &c
}

// Server returns the server this accumulator assesses.
func (sa *ServerAccumulator) Server() feedback.EntityID { return sa.server }

// Len returns the number of feedback records consumed.
func (sa *ServerAccumulator) Len() int {
	n, _ := sa.tr.Counts()
	return n
}

// SizeBytes returns the approximate resident heap footprint of the
// accumulator's state: the wrapper plus its trust tracker and (when phase 1
// is enabled) the behaviour accumulator's counters.
func (sa *ServerAccumulator) SizeBytes() int {
	const saStruct = 48 // ServerAccumulator struct: 3 pointers + string header
	size := saStruct + sa.tr.SizeBytes()
	if sa.beh != nil {
		size += sa.beh.SizeBytes()
	}
	return size
}

// Append consumes the server's next feedback record in amortised O(1).
// Records must arrive in history (time) order.
func (sa *ServerAccumulator) Append(f feedback.Feedback) {
	if sa.beh != nil {
		sa.beh.Append(f)
	}
	sa.tr.Update(f.Good())
}

// Assess produces the two-phase assessment over the records consumed so
// far. It mirrors TwoPhase.Assess on the equivalent history exactly,
// including the short-history policy and error wrapping: both build it with
// the same TwoPhase.assess.
func (sa *ServerAccumulator) Assess() (Assessment, error) {
	n, good := sa.tr.Counts()
	return sa.tp.assess(sa.server, n, good, sa.beh.Test, sa.tr.Value)
}

// Accept is the incremental counterpart of TwoPhase.Accept: Assess plus the
// client's trust-threshold decision.
func (sa *ServerAccumulator) Accept(threshold float64) (bool, Assessment, error) {
	a, err := sa.Assess()
	return accept(a, err, threshold)
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
