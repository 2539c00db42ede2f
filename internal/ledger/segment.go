package ledger

// Segment codec. A segment file is a header, one block per commit group, and
// — once sealed — a footer:
//
//	header:  8 bytes  {0xB5, 'H','P','S','E','G','3', 0x00}
//	block:   uvarint payload length, shortest form
//	         payload        — the group's records as feedback.AppendBatch
//	                          columns, against the segment's dictionaries,
//	                          the times as a scaled column (ADR 0014)
//	         crc32c         — 4 bytes little-endian, over the payload
//	footer:  0x00            — cannot start a block (payloads are never empty)
//	         "HPSEGFTR"      — 8 bytes
//	         record count    — 8 bytes little-endian
//	         body length     — 8 bytes little-endian (header end → footer start)
//	         crc chain       — 4 bytes little-endian (running crc32c over the
//	                           blocks' checksum bytes, seeded 0, block to block)
//	         footer crc      — 4 bytes little-endian crc32c of the 29 footer
//	                           bytes above
//	         "HPSEGEND"      — 8 bytes
//
// The server and client dictionaries of the batch codec are scoped to the
// segment: empty at the header, extended by each block in turn, so a segment
// decodes on its own and a block only after the blocks before it. Only sealed
// segments carry a footer; the active (highest-numbered) segment ends after
// its last block. Any corruption — a bad block checksum, a payload that is
// not a canonical batch, a broken chain, a torn tail — degrades to the
// longest intact block prefix, which scanSegment reports without ever failing
// on malformed input. A block is a whole commit group, so a torn tail never
// keeps part of one. A file without the header — an empty one, a torn header
// — holds nothing intact. A node refuses a directory that holds a layout an
// earlier revision wrote (oldformat.go) and reads none of them.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"honestplayer/internal/feedback"
)

var (
	segMagic   = [8]byte{0xB5, 'H', 'P', 'S', 'E', 'G', '3', 0x00}
	footerMark = "HPSEGFTR"
	footerEnd  = "HPSEGEND"
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// footerSize is the byte length of a sealed segment's footer.
const footerSize = 1 + 8 + 8 + 8 + 4 + 4 + 8

// appendBlock appends one block holding bs, one after another, to buf,
// extending d.
func appendBlock(buf []byte, bs []*feedback.Batch, d *feedback.BatchDicts) []byte {
	// The length goes in front of a payload it is not known before: encode
	// past the widest length, then close the gap.
	start := len(buf)
	var head [binary.MaxVarintLen64]byte
	buf = feedback.AppendBatches(append(buf, head[:]...), d, bs...)
	payload := buf[start+len(head):]
	k := binary.PutUvarint(head[:], uint64(len(payload)))
	buf = append(append(buf[:start], head[:k]...), payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start+k:], castagnoli))
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
	records uint64 // intact records
	blocks  uint64 // intact blocks holding them
	intact  int64  // byte offset of the end of the last intact block
	size    int64  // file size as scanned
	sealed  bool   // a valid footer covers exactly the intact prefix
	chain   uint32 // crc chain over the intact prefix
	// truncated reports bytes past the intact prefix (0 for sealed segments).
	truncated int64
	// dict is what the intact prefix's blocks left in the segment's
	// dictionaries — the state a writer resuming after them must start from.
	dict feedback.BatchDicts
}

// replayBatch is the fewest records scanSegment hands over at a time, short
// of a segment's end.
const replayBatch = 4096

// segScanner is a scan in progress: the result so far and the decoded
// records not yet handed to emit, as one batch over the blocks they came in.
type segScanner struct {
	segScan
	batch feedback.Batch
	emit  func(*feedback.Batch) error
}

// flush hands emit the pending records once there are at least min of them.
func (s *segScanner) flush(min int) error {
	if s.emit == nil {
		s.batch.Reset()
		return nil
	}
	if s.batch.Len() < min {
		return nil
	}
	batch := s.batch
	s.batch = feedback.Batch{}
	return s.emit(&batch)
}

// scanSegment decodes a segment file's full contents and reports how far the
// file is intact. The intact records go to emit in order, in batches of at
// least replayBatch records (fewer at the end of the segment; a block is
// never split) that emit owns from then on; a nil emit only verifies. It
// never returns an error for malformed content — corruption only shortens
// the intact prefix — but does propagate emit's error, aborting the scan.
// A footer counts only when it vouches for exactly the intact prefix.
func scanSegment(data []byte, emit func(*feedback.Batch) error) (segScan, error) {
	s := segScanner{emit: emit}
	s.size = int64(len(data))
	var err error
	if len(data) >= len(segMagic) && [8]byte(data[:8]) == segMagic {
		err = s.scanBlocks(data)
	}
	if err == nil {
		err = s.flush(1)
	}
	if err != nil {
		return s.segScan, err
	}
	if rest := data[s.intact:]; s.intact > 0 && len(rest) == footerSize {
		if fc, ok := parseFooter(rest); ok && fc.count == s.records && fc.chain == s.chain &&
			fc.bodyLen == uint64(s.intact)-uint64(len(segMagic)) {
			s.sealed = true
			s.intact += footerSize
		}
	}
	s.truncated = s.size - s.intact
	return s.segScan, nil
}

// scanBlocks walks a segment's blocks.
func (s *segScanner) scanBlocks(data []byte) error {
	s.intact = int64(len(segMagic))
	for rest := data[s.intact:]; len(rest) > 0; rest = data[s.intact:] {
		plen, n := binary.Uvarint(rest)
		if n <= 0 || n > 1 && rest[n-1] == 0 || plen == 0 {
			break // a footer, or no block
		}
		if room := uint64(len(rest) - n); room < 4 || plen > room-4 {
			break // torn tail
		}
		end := n + int(plen)
		payload, sum := rest[n:end], rest[end:end+4]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(sum) {
			break
		}
		before := s.batch.Len()
		if err := s.batch.Decode(payload, &s.dict); err != nil || s.batch.Len() == before {
			break // not a canonical batch, or an empty one, which no writer frames
		}
		s.records += uint64(s.batch.Len() - before)
		s.blocks++
		s.chain = crc32.Update(s.chain, castagnoli, sum)
		s.intact += int64(end + 4)
		if err := s.flush(replayBatch); err != nil {
			return err
		}
	}
	return nil
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
