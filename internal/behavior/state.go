package behavior

// Incremental-state serialization for the assessment accumulator: the
// history-dependent counters — phase window histograms and sums, the window
// string, the good-count prefix ring, and the per-issuer series of the
// collusion modes — freeze into a compact blob and restore exactly. That is
// all an accumulator holds: the PMF memo lives in the tester and the
// threshold grid in the calibrator, so a restored accumulator reads through
// the same memo state as one fed record by record.
//
// Layout (version 2; uvarints unless noted):
//
//	byte version, byte mode, m, stride, minWindows, n, goodTotal
//	single/multi modes:
//	  m+1 prefix-ring entries
//	  per phase φ = 0..m−1: sum, m+1 histogram buckets
//	  window string: max(0, n−m+1) entries of winWidth(m) raw bytes
//	collusion modes:
//	  client count, then per client (ascending ID): ID length, ID bytes,
//	  record count, index deltas, good bitset
//
// The histograms and sums are redundant with the window string; restore
// re-derives them from it and rejects a blob where they disagree. Version 1
// (stride checkpoints instead of the window string) is rejected like any
// unknown version; the ledger answers that by re-deriving from records.
//
// A node snapshot persists one blob per server so a rebooting -incremental
// node resumes assessment state directly instead of re-feeding millions of
// historical records through Append.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"honestplayer/internal/feedback"
)

// ErrBadState reports an accumulator state blob that does not decode, or
// that was produced under a different tester configuration.
var ErrBadState = errors.New("behavior: bad accumulator state")

// accStateVersion tags the blob layout; bump on incompatible change.
const accStateVersion = 2

// AppendState appends the accumulator's serialized essential state to buf.
// The caller must ensure Append is not running concurrently (the store's
// shard write lock provides this); concurrent Tests are safe because Test
// never mutates the serialized fields.
func (a *Accumulator) AppendState(buf []byte) []byte {
	buf = append(buf, accStateVersion, byte(a.mode))
	buf = binary.AppendUvarint(buf, uint64(a.cfg.WindowSize))
	buf = binary.AppendUvarint(buf, uint64(a.cfg.Stride))
	buf = binary.AppendUvarint(buf, uint64(a.cfg.MinWindows))
	buf = binary.AppendUvarint(buf, uint64(a.n))
	buf = binary.AppendUvarint(buf, uint64(a.goodTotal))
	if a.clients != nil {
		return a.appendClientState(buf)
	}
	return a.appendPhaseState(buf)
}

func (a *Accumulator) appendPhaseState(buf []byte) []byte {
	for _, v := range a.prefRing {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	for phi, sum := range a.sums {
		buf = binary.AppendUvarint(buf, uint64(sum))
		for _, c := range a.phase(phi) {
			buf = binary.AppendUvarint(buf, uint64(c))
		}
	}
	return append(buf, a.wins...)
}

func (a *Accumulator) appendClientState(buf []byte) []byte {
	// Deterministic order so equal states encode byte-identically.
	ids := make([]feedback.EntityID, 0, len(a.clients))
	for id := range a.clients {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		cs := a.clients[id]
		buf = binary.AppendUvarint(buf, uint64(len(id)))
		buf = append(buf, id...)
		buf = binary.AppendUvarint(buf, uint64(len(cs.idx)))
		prev := 0
		for _, v := range cs.idx {
			buf = binary.AppendUvarint(buf, uint64(v-prev))
			prev = v
		}
		// The good prefix steps by 0 or 1 per record: a bitset reproduces it.
		var cur byte
		for i := 1; i < len(cs.good); i++ {
			if cs.good[i] > cs.good[i-1] {
				cur |= 1 << ((i - 1) % 8)
			}
			if (i-1)%8 == 7 {
				buf = append(buf, cur)
				cur = 0
			}
		}
		if len(cs.idx)%8 != 0 {
			buf = append(buf, cur)
		}
	}
	return buf
}

// RestoreState replaces the accumulator's state with the blob's. The
// accumulator must be freshly minted by NewAccumulatorFor from a tester
// with the same configuration (window size, stride, minimum windows, mode)
// that produced the blob; mismatches are detected and rejected.
func (a *Accumulator) RestoreState(data []byte) error {
	if a.n != 0 {
		return fmt.Errorf("%w: restore into a non-empty accumulator (%d records)", ErrBadState, a.n)
	}
	if len(data) < 2 {
		return fmt.Errorf("%w: short header", ErrBadState)
	}
	if data[0] != accStateVersion {
		return fmt.Errorf("%w: state version %d, want %d", ErrBadState, data[0], accStateVersion)
	}
	if accMode(data[1]) != a.mode {
		return fmt.Errorf("%w: state mode %d, accumulator mode %d", ErrBadState, data[1], a.mode)
	}
	data = data[2:]
	var fields [5]uint64
	var err error
	for i := range fields {
		if fields[i], data, err = readUvarint(data); err != nil {
			return err
		}
	}
	if int(fields[0]) != a.cfg.WindowSize || int(fields[1]) != a.cfg.Stride || int(fields[2]) != a.cfg.MinWindows {
		return fmt.Errorf("%w: state for m=%d stride=%d minWindows=%d, accumulator has m=%d stride=%d minWindows=%d",
			ErrBadState, fields[0], fields[1], fields[2], a.cfg.WindowSize, a.cfg.Stride, a.cfg.MinWindows)
	}
	// Every record costs the blob at least a bit, which bounds n (and with it
	// every allocation below) by the blob's length.
	if fields[4] > fields[3] || fields[3] > uint64(a.cfg.WindowSize)+8*uint64(len(data)) {
		return fmt.Errorf("%w: %d good of %d records in %d bytes", ErrBadState, fields[4], fields[3], len(data))
	}
	n, goodTotal := int(fields[3]), int(fields[4])
	if a.clients != nil {
		if err := a.restoreClientState(data, n, goodTotal); err != nil {
			return err
		}
	} else if err := a.restorePhaseState(data, n, goodTotal); err != nil {
		return err
	}
	a.n, a.goodTotal = n, goodTotal
	return nil
}

func (a *Accumulator) restorePhaseState(data []byte, n, goodTotal int) error {
	m := a.cfg.WindowSize
	var err error
	var v uint64
	prefRing := make([]int, m+1)
	for i := range prefRing {
		if v, data, err = readUvarint(data); err != nil {
			return err
		}
		prefRing[i] = int(v)
	}
	// The ring holds the good-count prefix G(j) at j mod (m+1) for the last
	// m+1 positions j ≤ n (zero where j would be negative): it ends at the
	// total and steps by one record's outcome.
	prev := goodTotal
	for j := n; j >= 0 && j >= n-m; j-- {
		g := prefRing[j%(m+1)]
		if g > prev || prev-g > 1 || (j == n && g != goodTotal) || (j == 0 && g != 0) {
			return fmt.Errorf("%w: prefix ring entry %d for position %d of %d", ErrBadState, g, j, n)
		}
		prev = g
	}
	counts, sums := make([]int64, m*(m+1)), make([]int64, m)
	for phi := range sums {
		if v, data, err = readUvarint(data); err != nil {
			return err
		}
		sums[phi] = int64(v)
		for j := 0; j <= m; j++ {
			if v, data, err = readUvarint(data); err != nil {
				return err
			}
			counts[phi*(m+1)+j] = int64(v)
		}
	}
	// Every append past the first m−1 records completed exactly one window;
	// the window ending at record j belongs to phase j mod m.
	width := winWidth(m)
	windows := 0
	if n >= m {
		windows = n - m + 1
	}
	switch {
	case len(data) < windows*width:
		return fmt.Errorf("%w: window string of %d bytes, want %d for n=%d", ErrBadState, len(data), windows*width, n)
	case len(data) > windows*width:
		return fmt.Errorf("%w: %d trailing bytes", ErrBadState, len(data)-windows*width)
	}
	derived, derivedSums := make([]int64, len(counts)), make([]int64, m)
	for i := 0; i < windows; i++ {
		c := winAt(data, width, i)
		if c > m {
			return fmt.Errorf("%w: window %d holds %d good of %d", ErrBadState, i, c, m)
		}
		derived[(i%m)*(m+1)+c]++
		derivedSums[i%m] += int64(c)
	}
	if !slices.Equal(counts, derived) || !slices.Equal(sums, derivedSums) {
		return fmt.Errorf("%w: phase histograms or sums disagree with the window string", ErrBadState)
	}
	if windows > 0 && winAt(data, width, windows-1) != goodTotal-prefRing[(n-m)%(m+1)] {
		return fmt.Errorf("%w: newest window disagrees with the prefix ring", ErrBadState)
	}
	a.prefRing, a.counts, a.sums = prefRing, counts, sums
	a.wins = append([]byte(nil), data...)
	return nil
}

func (a *Accumulator) restoreClientState(data []byte, n, goodTotal int) error {
	var err error
	var v uint64
	if v, data, err = readUvarint(data); err != nil {
		return err
	}
	if v > uint64(n) { // every client issued at least one record
		return fmt.Errorf("%w: %d clients for %d records", ErrBadState, v, n)
	}
	numClients := int(v)
	clients := make(map[feedback.EntityID]*clientSeries, numClients)
	// The series must partition the record positions [0, n) and hold the
	// good total between them.
	taken := make([]bool, n)
	total, good := 0, 0
	for c := 0; c < numClients; c++ {
		if v, data, err = readUvarint(data); err != nil {
			return err
		}
		idLen := int(v)
		if idLen <= 0 || idLen > len(data) {
			return fmt.Errorf("%w: client id length %d", ErrBadState, idLen)
		}
		id := feedback.EntityID(data[:idLen])
		data = data[idLen:]
		if _, dup := clients[id]; dup {
			return fmt.Errorf("%w: duplicate client %q", ErrBadState, id)
		}
		if v, data, err = readUvarint(data); err != nil {
			return err
		}
		cnt := int(v)
		if cnt <= 0 || cnt > n-total || cnt > len(data) { // an index delta is at least a byte
			return fmt.Errorf("%w: client %q has %d records of %d remaining", ErrBadState, id, cnt, n-total)
		}
		total += cnt
		cs := &clientSeries{idx: make([]int, cnt), good: make([]int, cnt+1)}
		prev := -1
		for i := 0; i < cnt; i++ {
			if v, data, err = readUvarint(data); err != nil {
				return err
			}
			idx := prev + int(v)
			if i == 0 {
				idx = int(v)
			}
			if idx <= prev || idx >= n || taken[idx] {
				return fmt.Errorf("%w: client %q index %d out of order, out of range or taken", ErrBadState, id, idx)
			}
			taken[idx] = true
			cs.idx[i] = idx
			prev = idx
		}
		nBytes := (cnt + 7) / 8
		if len(data) < nBytes {
			return fmt.Errorf("%w: short good bitset for %q", ErrBadState, id)
		}
		for i := 0; i < cnt; i++ {
			cs.good[i+1] = cs.good[i]
			if data[i/8]&(1<<(i%8)) != 0 {
				cs.good[i+1]++
			}
		}
		data = data[nBytes:]
		good += cs.good[cnt]
		clients[id] = cs
	}
	if total != n || good != goodTotal {
		return fmt.Errorf("%w: client series cover %d records (%d good), want %d (%d good)", ErrBadState, total, good, n, goodTotal)
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadState, len(data))
	}
	a.clients = clients
	return nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: short uvarint", ErrBadState)
	}
	return v, buf[n:], nil
}
