package ledger

// Offline ledger inspection for trustctl ledger-info: reads a ledger
// directory without opening it for appends, verifying every segment's
// checksums and every snapshot end to end. Safe to run against a live node's
// data directory — everything is read-only.

import (
	"os"
	"path/filepath"
)

// SegmentInfo describes one scanned segment file.
type SegmentInfo struct {
	Index   uint64 `json:"index"`
	Size    int64  `json:"size"`
	Records uint64 `json:"records"`
	// Blocks counts the commit-group blocks the records sit in.
	Blocks uint64 `json:"blocks"`
	// BytesPerRecord is the intact bytes (header, blocks, footer) over the
	// records they hold.
	BytesPerRecord float64 `json:"bytes_per_record,omitempty"`
	Sealed         bool    `json:"sealed"` // valid footer covering the whole file
	// Truncated is how many trailing bytes fail verification (0 = fully
	// intact). Non-zero on the active segment means a torn tail the next
	// open will trim; on a sealed position it means detected corruption.
	Truncated int64 `json:"truncated,omitempty"`
}

// SnapshotFileInfo describes one snapshot file and its verification result.
type SnapshotFileInfo struct {
	Seq  uint64 `json:"seq"`
	Size int64  `json:"size"`
	// Version is the file's format version (0 when unreadable); only the
	// current one decodes — an older file costs boot a fallback, see Error.
	Version        uint64 `json:"version"`
	Valid          bool   `json:"valid"`
	Error          string `json:"error,omitempty"`
	Servers        int    `json:"servers,omitempty"`
	Records        uint64 `json:"records,omitempty"`
	CoveredSegment uint64 `json:"covered_segment,omitempty"`
	// SectionBytesPerRecord is the server sections' size (ids and history
	// columns) over the records they hold.
	SectionBytesPerRecord float64 `json:"section_bytes_per_record,omitempty"`
}

// Info is the result of inspecting a ledger directory.
type Info struct {
	Path      string             `json:"path"`
	Segments  []SegmentInfo      `json:"segments"`
	Snapshots []SnapshotFileInfo `json:"snapshots,omitempty"`
	// Records is the total intact record count across all segments (every
	// segment is fully scanned and checksum-verified).
	Records uint64 `json:"records"`
	// TruncatedBytes totals the unverifiable trailing bytes across segments.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// Inspect scans the ledger directory at path read-only: every segment is
// decoded and checksum-verified, every snapshot loaded and verified. A path
// in an older format is refused with ErrOldFormat, as Open refuses it.
func Inspect(path string) (*Info, error) {
	if err := checkCurrent(path); err != nil {
		return nil, err
	}
	info := &Info{Path: path}
	l := &Ledger{dir: path}
	segs, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	for _, idx := range segs {
		data, err := readSegmentFile(l.segPath(idx))
		if err != nil {
			return nil, err
		}
		sc, _ := scanSegment(data, nil)
		info.Segments = append(info.Segments, segmentInfo(idx, sc))
		info.Records += sc.records
		info.TruncatedBytes += sc.truncated
	}

	seqs, err := listSnapshots(path)
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		si := SnapshotFileInfo{Seq: seq}
		var sd *snapshotData
		data, err := os.ReadFile(filepath.Join(path, snapshotName(seq)))
		if err == nil {
			si.Size, si.Version = int64(len(data)), snapshotVersion(data)
			sd, err = decodeSnapshot(data)
		}
		if err != nil {
			si.Error = err.Error()
		} else {
			si.Valid = true
			si.Servers = len(sd.servers)
			si.CoveredSegment = sd.covered
			var sectionBytes int64
			for _, hist := range sd.servers {
				r := sd.sections[string(hist.Server())]
				sectionBytes += r.end - r.off
				si.Records += uint64(hist.Len())
			}
			if si.Records > 0 {
				si.SectionBytesPerRecord = float64(sectionBytes) / float64(si.Records)
			}
		}
		info.Snapshots = append(info.Snapshots, si)
	}
	return info, nil
}

func segmentInfo(idx uint64, sc segScan) SegmentInfo {
	si := SegmentInfo{
		Index:     idx,
		Size:      sc.size,
		Records:   sc.records,
		Blocks:    sc.blocks,
		Sealed:    sc.sealed,
		Truncated: sc.truncated,
	}
	if sc.records > 0 {
		si.BytesPerRecord = float64(sc.intact) / float64(sc.records)
	}
	return si
}
