package feedback

import (
	"encoding/binary"
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
// An unscaled column has no scale: its deltas are the differences
// themselves. It is the layout of ledger segment v2 (ADR 0008), which stays
// readable.

// appendTimes appends the time column of ts.
func appendTimes(buf []byte, ts []int64, scaled bool) []byte {
	if len(ts) == 0 {
		return buf
	}
	buf = binary.AppendVarint(buf, ts[0])
	scale := uint64(1)
	if scaled && len(ts) > 1 {
		scale = timeScale(ts)
		buf = binary.AppendUvarint(buf, scale)
	}
	for i := 1; i < len(ts); i++ {
		d := ts[i] - ts[i-1] // wraps, as decoding does
		if scale != 1 {
			d = divide(d, scale)
		}
		buf = binary.AppendVarint(buf, d)
	}
	return buf
}

// timeScale is the greatest common divisor of the differences' magnitudes,
// 1 when they are all zero. It stops at the first difference that brings it
// to 1, as it does early in a column of nanosecond stamps.
func timeScale(ts []int64) uint64 {
	var g uint64
	for i := 1; i < len(ts) && g != 1; i++ {
		if m := magnitude(ts[i] - ts[i-1]); m != g {
			g = gcd(g, m)
		}
	}
	return max(g, 1)
}

// decodeTimes decodes a column of len(ts) times from the front of buf into ts
// and returns the bytes after it.
func decodeTimes(buf []byte, ts []int64, scaled bool) ([]byte, error) {
	if len(ts) == 0 {
		return buf, nil
	}
	zz, buf, err := columnUvarint(buf)
	if err != nil {
		return nil, err
	}
	ts[0] = int64(zz>>1) ^ -int64(zz&1) // undoes AppendVarint's zig-zag
	scale := uint64(1)
	if scaled && len(ts) > 1 {
		if scale, buf, err = columnUvarint(buf); err != nil {
			return nil, err
		}
		if scale == 0 {
			return nil, fmt.Errorf("%w: time scale 0", ErrCorruptRecord)
		}
	}
	prev, g := ts[0], uint64(0) // g: the gcd of the quotients' magnitudes, until it is 1
	for i := 1; i < len(ts); i++ {
		if len(buf) > 0 && buf[0] < 0x80 { // a one-byte delta, as scaled ones mostly are
			zz, buf = uint64(buf[0]), buf[1:]
		} else if zz, buf, err = columnUvarint(buf); err != nil {
			return nil, err
		}
		q := int64(zz>>1) ^ -int64(zz&1)
		if m := magnitude(q); g != 1 && m != g {
			g = gcd(g, m)
		}
		if scale != 1 {
			// |q|·scale must be a magnitude int64 holds: up to 2^63-1, or 2^63
			// for a negative q.
			if hi, lo := bits.Mul64(magnitude(q), scale); hi != 0 || lo > math.MaxInt64 && (q > 0 || lo != 1<<63) {
				return nil, fmt.Errorf("%w: time delta %d × scale %d leaves int64", ErrCorruptRecord, q, scale)
			}
			q = int64(uint64(q) * scale) // wraps to the difference for a negative q
		}
		prev += q // wraps, as encoding did
		ts[i] = prev
	}
	if scaled && (g > 1 || g == 0 && scale != 1) {
		return nil, fmt.Errorf("%w: time scale %d is not the deltas' greatest common divisor", ErrCorruptRecord, scale)
	}
	return buf, nil
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
