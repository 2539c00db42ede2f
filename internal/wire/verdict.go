package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"honestplayer/internal/behavior"
)

// The verdict table is behavior.Verdict.Suffixes in its binary form: columns,
// because a Scheme 2 verdict is hundreds of rows that mostly repeat or follow
// from each other (ADR 0006). Every assessment on a binary frame carries one.
// Integers are shortest-form varints, floats big-endian IEEE-754 bits:
//
//	n             rows; a table of none ends here
//	shape         flag byte: the columns that could not be derived (below)
//	transactions  n × zig-zag varint, each row's difference from the one
//	              before (the first from 0)
//	windows       uvarint m when every row has Transactions == Windows·m;
//	              with tableWindows its own delta column instead
//	good          n × zig-zag delta of the integer g for which
//	              float64(g)/float64(Transactions) is PHat bit for bit;
//	              with tablePHat n × 8 B of PHat instead
//	distance      n × 8 B
//	threshold     (8 B value, uvarint run length) pairs covering n rows,
//	              neighbouring runs differing in their bits
//	pass          nothing when every row has Pass == (Distance <= Threshold);
//	              with tablePass ⌈n/8⌉ bytes, bit i%8 of byte i/8 for row i,
//	              padding bits zero
//
// The encoding is lossless for any rows — NaN payloads, −0, ±Inf, negative
// or unordered counts — because the encoder derives a column only after
// checking that every row reproduces, and the decoder accepts exactly the
// encoder's output: it recomputes the shape from the rows it decoded and
// refuses a table that wrote a column the long way round.
const (
	tableWindows byte = 1 << 0
	tablePHat    byte = 1 << 1
	tablePass    byte = 1 << 2
)

// goodCount returns the g for which float64(g)/float64(s.Transactions) has
// PHat's bits. Transactions is held to 31 bits so that g is the only such
// integer and the division is exact IEEE arithmetic on every platform.
func goodCount(s *behavior.SuffixResult) (int, bool) {
	t := s.Transactions
	if t <= 0 || t > math.MaxInt32 {
		return 0, false
	}
	x := s.PHat * float64(t)
	if !(x >= 0 && x <= float64(t)) { // NaN lands here too
		return 0, false
	}
	g := int(x + 0.5)
	return g, math.Float64bits(float64(g)/float64(t)) == math.Float64bits(s.PHat)
}

// tableShape reports which columns of rows (at least one) have to ride
// explicitly, and the m the Windows column derives from when it does not.
func tableShape(rows []behavior.SuffixResult) (shape byte, m int) {
	if w := rows[0].Windows; w > 0 && rows[0].Transactions%w == 0 {
		m = rows[0].Transactions / w
	}
	if m <= 0 || m > math.MaxInt32 {
		shape |= tableWindows
	}
	for i := range rows {
		s := &rows[i]
		if shape&tableWindows == 0 && (s.Transactions%m != 0 || s.Transactions/m != s.Windows) {
			shape |= tableWindows
		}
		if _, ok := goodCount(s); !ok {
			shape |= tablePHat
		}
		if s.Pass != (s.Distance <= s.Threshold) {
			shape |= tablePass
		}
	}
	if shape&tableWindows != 0 {
		m = 0
	}
	return shape, m
}

func appendVerdictTable(buf []byte, rows []behavior.SuffixResult) []byte {
	n := len(rows)
	buf = binary.AppendUvarint(buf, uint64(n))
	if n == 0 {
		return buf
	}
	shape, m := tableShape(rows)
	buf = append(buf, shape)
	for i, prev := 0, 0; i < n; i++ {
		buf = binary.AppendVarint(buf, int64(rows[i].Transactions-prev))
		prev = rows[i].Transactions
	}
	if shape&tableWindows == 0 {
		buf = binary.AppendUvarint(buf, uint64(m))
	} else {
		for i, prev := 0, 0; i < n; i++ {
			buf = binary.AppendVarint(buf, int64(rows[i].Windows-prev))
			prev = rows[i].Windows
		}
	}
	for i, prev := 0, 0; i < n; i++ {
		if shape&tablePHat != 0 {
			buf = appendFloat(buf, rows[i].PHat)
			continue
		}
		g, _ := goodCount(&rows[i])
		buf = binary.AppendVarint(buf, int64(g-prev))
		prev = g
	}
	for i := range rows {
		buf = appendFloat(buf, rows[i].Distance)
	}
	for i := 0; i < n; {
		bits, end := math.Float64bits(rows[i].Threshold), i+1
		for end < n && math.Float64bits(rows[end].Threshold) == bits {
			end++
		}
		buf = binary.BigEndian.AppendUint64(buf, bits)
		buf = binary.AppendUvarint(buf, uint64(end-i))
		i = end
	}
	if shape&tablePass != 0 {
		bitmap := len(buf)
		buf = append(buf, make([]byte, (n+7)/8)...)
		for i := range rows {
			if rows[i].Pass {
				buf[bitmap+i/8] |= 1 << (i % 8)
			}
		}
	}
	return buf
}

// delta reads a delta column's next value: a zig-zag varint added to prev.
func (r *breader) delta(prev int) (int, error) {
	zz, err := r.uvarint()
	return prev + int(int64(zz>>1)^-int64(zz&1)), err
}

// verdictTable decodes what appendVerdictTable wrote, and nothing else: a
// table its encoder would have written differently is refused, so whatever
// is accepted re-encodes to the same bytes. No rows decode to a nil slice.
func (r *breader) verdictTable() ([]behavior.SuffixResult, error) {
	// A row is at least a Transactions delta, a good-count delta and its
	// Distance.
	n, err := r.count(1 + 1 + 8)
	if err != nil || n == 0 {
		return nil, err
	}
	shape, err := r.byte()
	if err != nil {
		return nil, err
	}
	rows := make([]behavior.SuffixResult, n)
	for i, prev := 0, 0; i < n; i++ {
		if prev, err = r.delta(prev); err != nil {
			return nil, err
		}
		rows[i].Transactions = prev
	}
	m := 0
	if shape&tableWindows == 0 {
		if m, err = r.int(); err != nil {
			return nil, err
		}
		if m == 0 {
			return nil, fmt.Errorf("verdict table: window size 0")
		}
	}
	for i, prev := 0, 0; i < n; i++ {
		if m > 0 {
			rows[i].Windows = rows[i].Transactions / m
			continue
		}
		if prev, err = r.delta(prev); err != nil {
			return nil, err
		}
		rows[i].Windows = prev
	}
	for i, good := 0, 0; i < n; i++ {
		if shape&tablePHat != 0 {
			rows[i].PHat, err = r.float()
		} else {
			good, err = r.delta(good)
			rows[i].PHat = float64(good) / float64(rows[i].Transactions)
		}
		if err != nil {
			return nil, err
		}
	}
	for i := range rows {
		if rows[i].Distance, err = r.float(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; {
		v, err := r.float()
		if err != nil {
			return nil, err
		}
		run, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if run == 0 || run > uint64(n-i) || i > 0 && math.Float64bits(v) == math.Float64bits(rows[i-1].Threshold) {
			return nil, fmt.Errorf("verdict table: threshold run of %d at row %d of %d", run, i, n)
		}
		for ; run > 0; run-- {
			rows[i].Threshold = v
			i++
		}
	}
	if shape&tablePass != 0 {
		bitmap := (n + 7) / 8
		if len(r.buf) < bitmap || n%8 != 0 && r.buf[bitmap-1]>>(n%8) != 0 {
			return nil, fmt.Errorf("verdict table: pass bitmap")
		}
		for i := range rows {
			rows[i].Pass = r.buf[i/8]>>(i%8)&1 != 0
		}
		r.buf = r.buf[bitmap:]
	} else {
		for i := range rows {
			rows[i].Pass = rows[i].Distance <= rows[i].Threshold
		}
	}
	if s, mm := tableShape(rows); s != shape || mm != m {
		return nil, fmt.Errorf("verdict table: shape %#x (m=%d) where the encoder writes %#x (m=%d)", shape, m, s, mm)
	}
	return rows, nil
}
