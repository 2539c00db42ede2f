package core

// Snapshot serialization for per-server incremental assessment state. A
// ServerAccumulator freezes into a self-describing blob — trust-function and
// tester names plus the trust and behaviour accumulator states — and a
// TwoPhase assessor with the same configuration restores it exactly, so a
// rebooting -incremental node resumes assessments without re-feeding the
// server's history.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"honestplayer/internal/feedback"
)

// ErrBadState reports a serialized accumulator blob that does not decode, or
// that was produced under a different assessor configuration.
var ErrBadState = errors.New("core: bad accumulator state")

// saStateVersion tags the blob layout; bump on incompatible change.
const saStateVersion = 1

// AppendState appends the accumulator's serialized state to buf. It reports
// false when the state cannot be serialized (a trust tracker without state
// support); the caller then falls back to replaying history.
// The caller must ensure Append is not running concurrently.
func (sa *ServerAccumulator) AppendState(buf []byte) ([]byte, bool) {
	start := len(buf)
	buf = append(buf, saStateVersion)
	buf = appendString(buf, string(sa.tp.fn.Name()))
	testerName := ""
	if sa.beh != nil {
		testerName = sa.beh.Name()
	}
	buf = appendString(buf, testerName)
	buf, ok := sa.tr.AppendState(buf)
	if !ok {
		return buf[:start], false
	}
	if sa.beh != nil {
		blob := sa.beh.AppendState(nil)
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	return buf, true
}

// RestoreServerAccumulator mints a ServerAccumulator for server and restores
// state into it. The assessor must be configured with the same trust function
// and tester (same names and parameters) that produced the blob. It returns
// the accumulator and the number of feedback records its state covers.
func (tp *TwoPhase) RestoreServerAccumulator(server feedback.EntityID, state []byte) (*ServerAccumulator, int, error) {
	if len(state) < 1 {
		return nil, 0, fmt.Errorf("%w: empty blob", ErrBadState)
	}
	if state[0] != saStateVersion {
		return nil, 0, fmt.Errorf("%w: state version %d, want %d", ErrBadState, state[0], saStateVersion)
	}
	state = state[1:]
	fnName, state, err := readString(state)
	if err != nil {
		return nil, 0, err
	}
	if fnName != tp.fn.Name() {
		return nil, 0, fmt.Errorf("%w: state for trust function %q, assessor uses %q", ErrBadState, fnName, tp.fn.Name())
	}
	testerName, state, err := readString(state)
	if err != nil {
		return nil, 0, err
	}
	wantTester := ""
	if tp.tester != nil {
		wantTester = tp.tester.Name()
	}
	if testerName != wantTester {
		return nil, 0, fmt.Errorf("%w: state for tester %q, assessor uses %q", ErrBadState, testerName, wantTester)
	}
	sa, err := tp.NewServerAccumulator(server)
	if err != nil {
		return nil, 0, err
	}
	state, err = sa.tr.RestoreState(state)
	if err != nil {
		return nil, 0, err
	}
	n, _ := sa.tr.Counts()
	if sa.beh != nil {
		blobLen, rest, err := readUvarint(state)
		if err != nil {
			return nil, 0, err
		}
		if uint64(len(rest)) < blobLen {
			return nil, 0, fmt.Errorf("%w: behaviour blob truncated", ErrBadState)
		}
		if err := sa.beh.RestoreState(rest[:blobLen]); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadState, err)
		}
		state = rest[blobLen:]
		if sa.beh.Len() != n {
			return nil, 0, fmt.Errorf("%w: behaviour state covers %d records, trust state %d", ErrBadState, sa.beh.Len(), n)
		}
	}
	if len(state) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrBadState, len(state))
	}
	return sa, n, nil
}

// SupportsIncrementalState reports whether this assessor's accumulators can
// round-trip through AppendState/RestoreServerAccumulator.
func (tp *TwoPhase) SupportsIncrementalState() bool {
	if !tp.SupportsIncremental() {
		return false
	}
	sa, err := tp.NewServerAccumulator("probe")
	if err != nil {
		return false
	}
	_, ok := sa.AppendState(nil)
	return ok
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	if n > 1024 || uint64(len(buf)) < n {
		return "", nil, fmt.Errorf("%w: bad string length %d", ErrBadState, n)
	}
	return string(buf[:n]), buf[n:], nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: short uvarint", ErrBadState)
	}
	return v, buf[n:], nil
}
