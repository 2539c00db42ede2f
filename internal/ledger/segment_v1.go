package ledger

// The v1 segment reader. Until PR 28 a segment framed every record alone:
//
//	header:  8 bytes  {0xB5, 'H','P','S','E','G','1', 0x00}
//	record:  uvarint payload length
//	         payload        — feedback.AppendBinary encoding
//	         crc32c         — 4 bytes little-endian, over the payload
//	footer:  as in segment.go, the chain running over the payloads
//
// Nothing writes this layout any more (ADR 0008). Segments that hold it stay
// readable — sealed ones as they are, an unsealed tail sealed where it stands
// at the next open — until ROADMAP item 7's ledger-migrate rewrites them.

import (
	"encoding/binary"
	"hash/crc32"

	"honestplayer/internal/feedback"
)

var segMagicV1 = [8]byte{0xB5, 'H', 'P', 'S', 'E', 'G', '1', 0x00}

// maxRowLen is the ceiling of feedback.AppendBinary's output.
const maxRowLen = 8 + 1 + 2 + 1024 + 2 + 1024

// scanRows walks a v1 segment's records.
func (s *segScanner) scanRows(data []byte) error {
	s.intact = int64(len(segMagicV1))
	for rest := data[s.intact:]; len(rest) > 0; rest = data[s.intact:] {
		plen, n := binary.Uvarint(rest)
		if n <= 0 || plen == 0 || plen > maxRowLen {
			break // a footer, or no record
		}
		if uint64(len(rest)) < uint64(n)+plen+4 {
			break // torn tail
		}
		end := n + int(plen)
		payload := rest[n:end]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[end:]) {
			break
		}
		f, leftover, err := feedback.DecodeBinary(payload)
		if err != nil || len(leftover) != 0 {
			break
		}
		s.batch = append(s.batch, f)
		s.records++
		s.blocks++
		s.chain = crc32.Update(s.chain, castagnoli, payload)
		s.intact += int64(end + 4)
		if err := s.flush(replayBatch); err != nil {
			return err
		}
	}
	return nil
}
