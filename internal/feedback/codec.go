package feedback

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Codec errors.
var (
	// ErrCorruptRecord reports a malformed encoded record.
	ErrCorruptRecord = errors.New("feedback: corrupt record")
	// ErrRecordTooLarge reports an encoded record above the size limit.
	ErrRecordTooLarge = errors.New("feedback: record too large")
)

// maxEntityLen bounds entity IDs in the binary encoding; it doubles as a
// corruption guard when decoding untrusted streams.
const maxEntityLen = 1024

// WriteJSONLines encodes records as newline-delimited JSON, one record per
// line. It is the interchange format of the wire protocol and CLI tools.
func WriteJSONLines(w io.Writer, recs []Feedback) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONLines decodes newline-delimited JSON records until EOF, validating
// each.
func ReadJSONLines(r io.Reader) ([]Feedback, error) {
	dec := json.NewDecoder(r)
	var out []Feedback
	for i := 0; ; i++ {
		var f Feedback
		if err := dec.Decode(&f); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("decode record %d: %w", i, err)
		}
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		out = append(out, f)
	}
}

// AppendBinary appends the compact binary encoding of f to buf and returns
// the extended buffer. Layout: unix-nano time (8 bytes big-endian), rating
// (1 byte), then length-prefixed server and client IDs (2-byte lengths).
func AppendBinary(buf []byte, f Feedback) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(f.Time.UnixNano()))
	buf = append(buf, byte(f.Rating))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(f.Server)))
	buf = append(buf, f.Server...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(f.Client)))
	buf = append(buf, f.Client...)
	return buf, nil
}

// DecodeBinary decodes one record from the front of buf and returns it along
// with the remaining bytes.
func DecodeBinary(buf []byte) (Feedback, []byte, error) {
	var f Feedback
	if len(buf) < 8+1+2 {
		return f, nil, fmt.Errorf("%w: short header", ErrCorruptRecord)
	}
	nanos := int64(binary.BigEndian.Uint64(buf))
	f.Time = time.Unix(0, nanos).UTC()
	f.Rating = Rating(buf[8])
	buf = buf[9:]
	var err error
	f.Server, buf, err = decodeEntity(buf)
	if err != nil {
		return f, nil, err
	}
	f.Client, buf, err = decodeEntity(buf)
	if err != nil {
		return f, nil, err
	}
	if err := f.Validate(); err != nil {
		return f, nil, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	return f, buf, nil
}

func decodeEntity(buf []byte) (EntityID, []byte, error) {
	if len(buf) < 2 {
		return "", nil, fmt.Errorf("%w: short length", ErrCorruptRecord)
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if n > maxEntityLen {
		return "", nil, fmt.Errorf("%w: entity length %d", ErrRecordTooLarge, n)
	}
	if len(buf) < n {
		return "", nil, fmt.Errorf("%w: truncated entity", ErrCorruptRecord)
	}
	return EntityID(buf[:n]), buf[n:], nil
}
