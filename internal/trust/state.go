package trust

// Incremental-state serialization: every built-in tracker can freeze its
// internal state into a compact binary blob and restore it exactly, so a
// node snapshot can persist per-server trust accumulators and a rebooting
// node can resume them without re-feeding the whole transaction history.
//
// The encoding is exact — integers as uvarints, floats as their IEEE-754
// bit patterns — so a restored tracker's Value() is bit-identical to the
// original's. Function parameters (λ, decay, window length) are NOT part of
// the state: they come from configuration, and the restoring side must mint
// the tracker from the same Func. Only the history-dependent counters are
// serialized.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrBadState reports a state blob that does not decode against the tracker
// it is being restored into.
var ErrBadState = errors.New("trust: bad tracker state")

// StateTracker is a Tracker whose internal state can be serialized and
// restored exactly. All built-in trackers implement it.
type StateTracker interface {
	Tracker
	// AppendState appends the tracker's serialized state to buf.
	AppendState(buf []byte) []byte
	// RestoreState replaces the tracker's state with the decoded prefix of
	// buf, returning the remaining bytes. The tracker must have been minted
	// by the same Func (with equal parameters) that produced the state.
	RestoreState(buf []byte) ([]byte, error)
}

var (
	_ StateTracker = (*averageTracker)(nil)
	_ StateTracker = (*ewmaTracker)(nil)
	_ StateTracker = (*betaTracker)(nil)
	_ StateTracker = (*decayTracker)(nil)
	_ StateTracker = (*windowTracker)(nil)
)

// uvarint decoding helper shared by the tracker restores.
func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: short uvarint", ErrBadState)
	}
	return v, buf[n:], nil
}

func readFloat(buf []byte) (float64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("%w: short float", ErrBadState)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), buf[8:], nil
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func (t *averageTracker) AppendState(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(t.n))
	return binary.AppendUvarint(buf, uint64(t.good))
}

func (t *averageTracker) RestoreState(buf []byte) ([]byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	good, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if good > n {
		return nil, fmt.Errorf("%w: good %d > n %d", ErrBadState, good, n)
	}
	t.n, t.good = int(n), int(good)
	return buf, nil
}

func (t *betaTracker) AppendState(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(t.n))
	return binary.AppendUvarint(buf, uint64(t.good))
}

func (t *betaTracker) RestoreState(buf []byte) ([]byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	good, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if good > n {
		return nil, fmt.Errorf("%w: good %d > n %d", ErrBadState, good, n)
	}
	t.n, t.good = int(n), int(good)
	return buf, nil
}

func (t *ewmaTracker) AppendState(buf []byte) []byte {
	updated := byte(0)
	if t.updated {
		updated = 1
	}
	buf = append(buf, updated)
	return appendFloat(buf, t.value)
}

func (t *ewmaTracker) RestoreState(buf []byte) ([]byte, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("%w: short ewma state", ErrBadState)
	}
	updated := buf[0]
	if updated > 1 {
		return nil, fmt.Errorf("%w: ewma updated flag %d", ErrBadState, updated)
	}
	value, rest, err := readFloat(buf[1:])
	if err != nil {
		return nil, err
	}
	t.updated = updated == 1
	t.value = value
	if !t.updated {
		t.value = t.initial
	}
	return rest, nil
}

func (t *decayTracker) AppendState(buf []byte) []byte {
	buf = appendFloat(buf, t.num)
	return appendFloat(buf, t.den)
}

func (t *decayTracker) RestoreState(buf []byte) ([]byte, error) {
	num, buf, err := readFloat(buf)
	if err != nil {
		return nil, err
	}
	den, buf, err := readFloat(buf)
	if err != nil {
		return nil, err
	}
	t.num, t.den = num, den
	return buf, nil
}

func (t *windowTracker) AppendState(buf []byte) []byte {
	// Canonical form: the retained outcomes oldest-to-newest as a bitset.
	// The ring phase (head) is not state — a restored tracker lays the same
	// outcomes out from head 0 and behaves identically from then on.
	buf = binary.AppendUvarint(buf, uint64(t.n))
	var cur byte
	for i := 0; i < t.n; i++ {
		pos := i
		if t.n == t.w {
			pos = (t.head + i) % t.w
		}
		if t.buf[pos] {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			buf = append(buf, cur)
			cur = 0
		}
	}
	if t.n%8 != 0 {
		buf = append(buf, cur)
	}
	return buf
}

func (t *windowTracker) RestoreState(buf []byte) ([]byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if n > uint64(t.w) {
		return nil, fmt.Errorf("%w: window state holds %d outcomes, window is %d", ErrBadState, n, t.w)
	}
	nBytes := (int(n) + 7) / 8
	if len(buf) < nBytes {
		return nil, fmt.Errorf("%w: short window bitset", ErrBadState)
	}
	t.buf = t.buf[:0]
	t.head, t.n, t.good = 0, 0, 0
	for i := 0; i < int(n); i++ {
		good := buf[i/8]&(1<<(i%8)) != 0
		t.buf = append(t.buf, good)
		t.n++
		if good {
			t.good++
		}
	}
	return buf[nBytes:], nil
}

// AppendState appends the accumulator's serialized state — the outcome
// counts plus the wrapped tracker's state — to buf. It reports false when
// the tracker cannot be serialized (a Tracker that is not a StateTracker);
// the caller then falls back to replaying history.
func (a *Accumulator) AppendState(buf []byte) ([]byte, bool) {
	st, ok := a.tracker.(StateTracker)
	if !ok {
		return buf, false
	}
	buf = binary.AppendUvarint(buf, uint64(a.n))
	buf = binary.AppendUvarint(buf, uint64(a.good))
	return st.AppendState(buf), true
}

// RestoreState restores the accumulator from the decoded prefix of buf,
// returning the remaining bytes. The accumulator must have been minted by
// NewAccumulator from the same trust function that produced the state.
func (a *Accumulator) RestoreState(buf []byte) ([]byte, error) {
	st, ok := a.tracker.(StateTracker)
	if !ok {
		return nil, fmt.Errorf("%w: tracker for %s is not serializable", ErrBadState, a.fn.Name())
	}
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	good, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if good > n {
		return nil, fmt.Errorf("%w: good %d > n %d", ErrBadState, good, n)
	}
	buf, err = st.RestoreState(buf)
	if err != nil {
		return nil, err
	}
	a.n, a.good = int(n), int(good)
	return buf, nil
}
