package feedback

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The time column is how every container that carries records in bulk
// writes their times (ADR 0014): a record batch (batch.go) and a history's
// column encoding (columns.go) both hold one. A record's time is there for
// order and identity, and the stamps a node sees are mostly whole seconds
// apart, so the differences carry their common divisor once:
//
//	first   zig-zag varint: the first time in unix nanoseconds
//	scale   uvarint, only when there are at least two times: the greatest
//	        common divisor of the differences' magnitudes, or 1 when every
//	        difference is zero
//	deltas  one zig-zag varint per later time: its difference from the time
//	        before, divided by scale
//
// Differences wrap, as int64 arithmetic does, and their magnitudes are
// uint64, so a difference of math.MinInt64 has one (2^63). Stamps of
// nanosecond precision pay one byte per column for a scale of 1; stamps
// whole seconds apart pay a byte per delta where nanoseconds took five.
//
// The column is canonical. A decoder refuses a zero scale, deltas that share
// a factor above 1, a scale other than 1 over deltas that are all zero, and a
// delta whose product with the scale leaves int64, so whatever decodes
// re-encodes to the same bytes.
//
// A History holds its times as base + qs[i]·scale, wrapping (ADR 0018): raw
// times are qs in []int64 with base 0 and scale 1, a narrow history's its
// 32-bit quotients over its own base and scale. appendTimes reads either
// form and decodeTimes writes either, so a snapshot section goes between
// its bytes and a history's quotients with no []int64 in between.

// appendTimes appends the time column of the times base + qs[i]·scale.
func appendTimes[T int32 | int64](buf []byte, base int64, scale uint64, qs []T) []byte {
	if len(qs) == 0 {
		return buf
	}
	prev := base + int64(qs[0])*int64(scale)
	buf = binary.AppendVarint(buf, prev)
	col := uint64(1)
	if len(qs) > 1 {
		col = timeScale(base, scale, qs)
		buf = binary.AppendUvarint(buf, col)
	}
	for _, q := range qs[1:] {
		t := base + int64(q)*int64(scale)
		d := t - prev // wraps, as decoding does
		if col != 1 {
			d = divide(d, col)
		}
		buf = binary.AppendVarint(buf, d)
		prev = t
	}
	return buf
}

// timeScale is the greatest common divisor of the differences' magnitudes,
// 1 when they are all zero. It stops at the first difference that brings it
// to 1, as it does early in a column of nanosecond stamps.
func timeScale[T int32 | int64](base int64, scale uint64, qs []T) uint64 {
	var g uint64
	for i := 1; i < len(qs) && g != 1; i++ {
		if m := magnitude((int64(qs[i]) - int64(qs[i-1])) * int64(scale)); m != g {
			g = gcd(g, m)
		}
	}
	return max(g, 1)
}

// errNarrow reports a quotient that leaves int32 while decoding into one.
var errNarrow = errors.New("feedback: time quotient leaves int32")

// decodeTimes decodes a column of len(qs) times from the front of buf and
// returns its first time and scale — 0 when every time is the first — with
// the bytes after it. Into []int64 it writes the times themselves; into
// []int32 each time's quotient over the scale, counted from the first time,
// returning errNarrow at the first that leaves int32.
func decodeTimes[T int32 | int64](buf []byte, qs []T) (first int64, scale uint64, rest []byte, err error) {
	_, narrow := any(qs).([]int32)
	if len(qs) == 0 {
		return 0, 0, buf, nil
	}
	zz, buf, err := columnUvarint(buf)
	if err != nil {
		return 0, 0, nil, err
	}
	first = int64(zz>>1) ^ -int64(zz&1) // undoes AppendVarint's zig-zag
	scale = 1
	if len(qs) > 1 {
		if scale, buf, err = columnUvarint(buf); err != nil {
			return 0, 0, nil, err
		}
		if scale == 0 {
			return 0, 0, nil, fmt.Errorf("%w: time scale 0", ErrCorruptRecord)
		}
	}
	// at is what qs receives: the time, or in a narrow column the quotient,
	// each delta times step added to it.
	at, step := first, scale
	if narrow {
		at, step = 0, 1
	}
	qs[0] = T(at)
	g := uint64(0) // the gcd of the deltas' magnitudes, until it is 1
	for i := 1; i < len(qs); i++ {
		if len(buf) > 0 && buf[0] < 0x80 { // a one-byte delta, as scaled ones mostly are
			zz, buf = uint64(buf[0]), buf[1:]
		} else if zz, buf, err = columnUvarint(buf); err != nil {
			return 0, 0, nil, err
		}
		q := int64(zz>>1) ^ -int64(zz&1)
		if m := magnitude(q); g != 1 && m != g {
			g = gcd(g, m)
		}
		if scale != 1 {
			// |q|·scale must be a magnitude int64 holds: up to 2^63-1, or 2^63
			// for a negative q.
			if hi, lo := bits.Mul64(magnitude(q), scale); hi != 0 || lo > math.MaxInt64 && (q > 0 || lo != 1<<63) {
				return 0, 0, nil, fmt.Errorf("%w: time delta %d × scale %d leaves int64", ErrCorruptRecord, q, scale)
			}
		}
		// Times wrap, as encoding did: for a negative q the product wraps to
		// the difference. A narrow sum, int32 before the addition, wraps only
		// when q lies within 2^31 of int64's ends, far outside int32.
		at += int64(uint64(q) * step)
		if narrow && at != int64(int32(at)) {
			return 0, 0, nil, errNarrow
		}
		qs[i] = T(at)
	}
	if g > 1 || g == 0 && scale != 1 {
		return 0, 0, nil, fmt.Errorf("%w: time scale %d is not the deltas' greatest common divisor", ErrCorruptRecord, scale)
	}
	if g == 0 {
		scale = 0
	}
	return first, scale, buf, nil
}

// magnitude is |d| as uint64, so that math.MinInt64 has one.
func magnitude(d int64) uint64 {
	if d < 0 {
		return -uint64(d)
	}
	return uint64(d)
}

// divide is d / scale for a scale above 1 that divides |d|. Evenly spaced
// times skip the division.
func divide(d int64, scale uint64) int64 {
	q := int64(1)
	if m := magnitude(d); m != scale {
		q = int64(m / scale)
	}
	if d < 0 {
		return -q
	}
	return q
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
