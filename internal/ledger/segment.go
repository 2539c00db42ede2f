package ledger

// Binary segment codec. A segment file is either a legacy JSON-lines file
// (one wire-compatible record per line, no header — the PR-7 single-file
// format, recognised by its first byte) or a binary segment:
//
//	header:  8 bytes  {0xB5, 'H','P','S','E','G','1', 0x00}
//	record:  uvarint payload length
//	         payload        — feedback.AppendBinary encoding
//	         crc32c         — 4 bytes little-endian, over the payload
//	footer:  0x00            — cannot start a record (payloads are never empty)
//	         "HPSEGFTR"      — 8 bytes
//	         record count    — 8 bytes little-endian
//	         body length     — 8 bytes little-endian (header end → footer start)
//	         crc chain       — 4 bytes little-endian (running crc32c over all
//	                           payloads, seeded 0, chained record to record)
//	         footer crc      — 4 bytes little-endian crc32c of the 29 footer
//	                           bytes above
//	         "HPSEGEND"      — 8 bytes
//
// Only sealed segments carry a footer; the active (highest-numbered) segment
// ends after its last record. Any corruption — a bad per-record checksum, a
// broken chain, a torn tail — degrades to the longest intact record prefix,
// which scanSegment reports without ever failing on malformed input.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"honestplayer/internal/feedback"
)

var (
	segMagic     = [8]byte{0xB5, 'H', 'P', 'S', 'E', 'G', '1', 0x00}
	footerMark   = "HPSEGFTR"
	footerEnd    = "HPSEGEND"
	castagnoli   = crc32.MakeTable(crc32.Castagnoli)
	maxRecordLen = uint64(8 + 1 + 2 + 1024 + 2 + 1024) // feedback binary ceiling
)

// footerSize is the byte length of a sealed segment's footer.
const footerSize = 1 + 8 + 8 + 8 + 4 + 4 + 8

// segKind classifies a segment file's encoding.
type segKind int

const (
	segBinary segKind = iota
	segJSON
)

// sniffKind classifies a segment by its first byte: binary segments always
// start with the magic byte 0xB5, which no JSON-lines file can (JSON is
// ASCII). Empty files are binary (a fresh segment before its header lands).
func sniffKind(first []byte) segKind {
	if len(first) == 0 || first[0] == segMagic[0] {
		return segBinary
	}
	return segJSON
}

// appendRecord appends one binary record (length, payload, crc) to buf and
// returns the extended buffer plus the new chain value.
func appendRecord(buf []byte, f feedback.Feedback, chain uint32) ([]byte, uint32, error) {
	payload, err := feedback.AppendBinary(nil, f)
	if err != nil {
		return buf, chain, err
	}
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.Checksum(payload, castagnoli)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return buf, crc32.Update(chain, castagnoli, payload), nil
}

// appendFooter appends a sealed-segment footer to buf.
func appendFooter(buf []byte, count uint64, bodyLen uint64, chain uint32) []byte {
	start := len(buf)
	buf = append(buf, 0x00)
	buf = append(buf, footerMark...)
	buf = binary.LittleEndian.AppendUint64(buf, count)
	buf = binary.LittleEndian.AppendUint64(buf, bodyLen)
	buf = binary.LittleEndian.AppendUint32(buf, chain)
	crc := crc32.Checksum(buf[start:], castagnoli)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return append(buf, footerEnd...)
}

// segScan is the result of scanning one segment file.
type segScan struct {
	kind    segKind
	records uint64 // intact records
	intact  int64  // byte offset of the end of the last intact record
	size    int64  // file size as scanned
	sealed  bool   // a valid footer covers exactly the intact prefix
	chain   uint32 // crc chain over the intact prefix (binary segments)
	// truncated reports bytes past the intact prefix (0 for sealed segments).
	truncated int64
}

// scanSegment decodes a segment file's full contents, invoking emit for every
// intact record in order, and reports how far the file is intact. It never
// returns an error for malformed content — corruption only shortens the
// intact prefix — but does propagate emit's error, aborting the scan.
func scanSegment(data []byte, emit func(feedback.Feedback) error) (segScan, error) {
	if sniffKind(data) == segJSON {
		return scanJSONSegment(data, emit)
	}
	sc := segScan{kind: segBinary, size: int64(len(data))}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != string(segMagic[:]) {
		// Missing or torn header: nothing intact.
		sc.truncated = sc.size
		return sc, nil
	}
	off := int64(len(segMagic))
	sc.intact = off
	rest := data[off:]
	for len(rest) > 0 {
		if rest[0] == 0x00 {
			// Footer candidate.
			if fc, ok := parseFooter(rest); ok &&
				fc.count == sc.records && fc.chain == sc.chain &&
				fc.bodyLen == uint64(sc.intact)-uint64(len(segMagic)) &&
				int64(len(rest)) == footerSize {
				sc.sealed = true
				sc.intact += footerSize
				return sc, nil
			}
			break
		}
		plen, n := binary.Uvarint(rest)
		if n <= 0 || plen == 0 || plen > maxRecordLen {
			break
		}
		if uint64(len(rest)) < uint64(n)+plen+4 {
			break // torn tail
		}
		payload := rest[n : uint64(n)+plen]
		crc := binary.LittleEndian.Uint32(rest[uint64(n)+plen:])
		if crc32.Checksum(payload, castagnoli) != crc {
			break
		}
		f, leftover, err := feedback.DecodeBinary(payload)
		if err != nil || len(leftover) != 0 {
			break
		}
		if emit != nil {
			if err := emit(f); err != nil {
				return sc, err
			}
		}
		sc.records++
		sc.chain = crc32.Update(sc.chain, castagnoli, payload)
		step := int64(n) + int64(plen) + 4
		sc.intact += step
		rest = rest[step:]
	}
	sc.truncated = sc.size - sc.intact
	return sc, nil
}

// footerContent is a parsed footer's payload.
type footerContent struct {
	count   uint64
	bodyLen uint64
	chain   uint32
}

// parseFooter checks whether buf starts with a checksum-valid footer.
func parseFooter(buf []byte) (footerContent, bool) {
	var fc footerContent
	if len(buf) < footerSize {
		return fc, false
	}
	if string(buf[1:9]) != footerMark || string(buf[footerSize-8:footerSize]) != footerEnd {
		return fc, false
	}
	want := binary.LittleEndian.Uint32(buf[29:33])
	if crc32.Checksum(buf[:29], castagnoli) != want {
		return fc, false
	}
	fc.count = binary.LittleEndian.Uint64(buf[9:17])
	fc.bodyLen = binary.LittleEndian.Uint64(buf[17:25])
	fc.chain = binary.LittleEndian.Uint32(buf[25:29])
	return fc, true
}

// scanJSONSegment replays a legacy JSON-lines segment: records until the
// first torn or corrupt line, blank lines skipped. Mirrors the PR-7 replay
// semantics exactly.
func scanJSONSegment(data []byte, emit func(feedback.Feedback) error) (segScan, error) {
	sc := segScan{kind: segJSON, size: int64(len(data))}
	for int64(len(data)) > sc.intact {
		rest := data[sc.intact:]
		nl := int64(-1)
		for i, b := range rest {
			if b == '\n' {
				nl = int64(i)
				break
			}
		}
		if nl < 0 {
			break // torn final line
		}
		line := trimSpaceBytes(rest[:nl])
		if len(line) != 0 {
			f, ok := decodeJSONRecord(line)
			if !ok {
				break
			}
			if emit != nil {
				if err := emit(f); err != nil {
					return sc, err
				}
			}
			sc.records++
		}
		sc.intact += nl + 1
	}
	sc.truncated = sc.size - sc.intact
	return sc, nil
}

// decodeJSONRecord unmarshals and validates one JSON line.
func decodeJSONRecord(line []byte) (feedback.Feedback, bool) {
	var f feedback.Feedback
	if err := json.Unmarshal(line, &f); err != nil {
		return f, false
	}
	if err := f.Validate(); err != nil {
		return f, false
	}
	return f, true
}

func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// segmentName formats the file name of segment index i.
func segmentName(i uint64) string { return fmt.Sprintf("ledger.%06d", i) }

// parseSegmentName extracts the index from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	var i uint64
	if _, err := fmt.Sscanf(name, "ledger.%d", &i); err != nil || i == 0 {
		return 0, false
	}
	if name != segmentName(i) {
		return 0, false
	}
	return i, true
}

// readSegmentFile loads a whole segment into memory. Segments are bounded by
// the roll-over threshold, so this is at most segment-bytes plus one record.
func readSegmentFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: read segment %s: %w", path, err)
	}
	return data, nil
}
