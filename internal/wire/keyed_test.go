package wire

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// frameTables encodes tables as the verdict tables of one frame and returns
// each table's shape; the frame must decode back to them bit for bit.
func frameTables(t *testing.T, tables ...[]behavior.SuffixResult) []byte {
	t.Helper()
	d := loneDict()
	defer d.put()
	var frame, shapes []byte
	for _, rows := range tables {
		at := len(frame)
		frame = appendVerdictTable(frame, rows, d)
		shapes = append(shapes, frame[at+len(binary.AppendUvarint(nil, uint64(len(rows))))])
	}
	sec := d.appendBindings(nil, new(sections))
	got, err := decodeTables(sec, frame)
	if err != nil || len(got) != len(tables) {
		t.Fatalf("the frame's %d tables: %d decoded, %v", len(tables), len(got), err)
	}
	for i, want := range tables {
		if !sameBits(got[i], want) {
			t.Fatalf("table %d of the frame: %+v", i, got[i])
		}
	}
	return shapes
}

// TestGridSlotsHoldTheGrid: every grid point a row can key on has a slot of
// its own below gridSlots, and a row past the grid's windows has none.
func TestGridSlotsHoldTheGrid(t *testing.T) {
	points := map[uint32]stats.GridPoint{}
	for w := 1; w <= stats.DefaultMaxCalibrationWindows; w++ {
		for g := 0; g <= 200; g++ {
			row := behavior.SuffixResult{Transactions: 10 * w, Windows: w, PHat: float64(g) / 200}
			pt := stats.GridPointOf(w, row.PHat, stats.DefaultPResolution)
			slot := rowSlot(&row)
			if other, ok := points[slot]; slot >= uint32(gridSlots) || ok && other != pt {
				t.Fatalf("%d windows at %v: slot %d of %d, taken by %+v", w, row.PHat, slot, gridSlots, other)
			}
			points[slot] = pt
		}
	}
	if len(points) != gridSlots {
		t.Errorf("%d grid points in %d slots", len(points), gridSlots)
	}
	row := behavior.SuffixResult{Transactions: 10 * (stats.DefaultMaxCalibrationWindows + 1),
		Windows: stats.DefaultMaxCalibrationWindows + 1, PHat: 1}
	if slot := rowSlot(&row); slot != noSlot {
		t.Fatalf("a row past the grid keys on slot %d", slot)
	}
}

// TestKeyedFallbacks: tables whose rows the frame's bindings do not predict
// arrive intact as threshold runs, and the tables around them stay keyed.
func TestKeyedFallbacks(t *testing.T) {
	t.Run("familywise tables of two lengths", func(t *testing.T) {
		// The Bonferroni level depends on a table's row count, so a 17-row
		// and a 97-row table read different planes at the same grid points.
		family, err := behavior.NewMulti(behavior.Config{Calibrator: testCalibrator(), FamilywiseCorrection: true})
		if err != nil {
			t.Fatal(err)
		}
		var tables [][]behavior.SuffixResult
		for i, n := range []int{200, 1000, 200} {
			v, err := family.Test(honestHistory(t, "srv", n, 0.95, int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, v.Suffixes)
		}
		shapes := frameTables(t, tables...)
		// The 97-row table's keys miss the first table's, and it binds
		// those the third, at the 17-row level, then meets.
		if want := []byte{tableChain | tableKeyed, tableChain | tableKeyed, tableChain}; string(shapes) != string(want) {
			t.Errorf("shapes %x, want %x", shapes, want)
		}
		tp, err := core.NewTwoPhase(family, trust.Average{})
		if err != nil {
			t.Fatal(err)
		}
		var batch AssessBatchResponse
		for i, rows := range tables {
			id := feedback.EntityID(fmt.Sprint("s", i))
			a := core.Assessment{Server: id, Tester: tp.Name(), Verdict: behavior.Verdict{Honest: true, Suffixes: rows}}
			batch.Items = append(batch.Items, AssessBatchItem{Server: id, AssessResponse: AssessResponse{Assessment: a}})
		}
		if got, _ := roundTrip(t, TypeAssessBR, batch); !reflect.DeepEqual(got, batch) {
			t.Error("the batch changed on the wire")
		}
	})
	t.Run("two window sizes", func(t *testing.T) {
		// The bindings hold one ε a grid point, whatever the window size:
		// a table of a second size whose rows meet a key bound under the
		// first to another ε writes its runs, and one whose rows land on
		// keys of their own binds them.
		ten := chainRows(t, 10, 4, 9, 10, 7, 10, 10, 8, 10)
		twenty := chainRows(t, 20, 4, 18, 20, 14, 20, 20, 16, 20) // ten's p̂, so ten's grid points
		sixteen := chainRows(t, 16, 4, 16, 15, 9, 16, 14, 16)
		for _, rows := range [][]behavior.SuffixResult{twenty, sixteen} {
			for i := range rows {
				rows[i].Threshold = 0.7
			}
		}
		shapes := frameTables(t, ten, twenty, sixteen, ten)
		if want := []byte{tableChain | tableKeyed, tableChain, tableChain | tableKeyed, tableChain | tableKeyed}; string(shapes) != string(want) {
			t.Errorf("shapes %x, want %x", shapes, want)
		}
		// A keyed table read where nothing bound its keys is refused.
		_, table := encodeTable(twenty)
		if got, err := readTable(nil, table); err == nil || !strings.Contains(err.Error(), "which nothing bound") {
			t.Errorf("a keyed table without its bindings: %+v, %v", got, err)
		}
	})
	t.Run("rows past the calibrated windows", func(t *testing.T) {
		// 4100 windows: the four longest rows' ε is scaled to their own
		// window counts, so each writes its threshold; the rest are keyed.
		// So many windows spread too many ways for a chain's base search:
		// the rows ride as raw columns.
		multi, err := behavior.NewMulti(behavior.Config{
			Calibrator: stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 20}, 0),
			MinWindows: 4095,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, err := multi.Test(honestHistory(t, "srv", 41000, 0.95, 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Suffixes) != 6 || v.Suffixes[0].Windows != stats.DefaultMaxCalibrationWindows+4 {
			t.Fatalf("%d rows from %d windows", len(v.Suffixes), v.Suffixes[0].Windows)
		}
		if shapes := frameTables(t, v.Suffixes, v.Suffixes); shapes[0] != tableKeyed || shapes[1] != tableKeyed {
			t.Errorf("shapes %x, want two keyed tables", shapes)
		}
		// The four past the grid write their thresholds in the table, the
		// two on it — one grid point — bind its key; again in the same frame
		// the two find it bound and the four write refs to the literals the
		// first wrote.
		d := loneDict()
		defer d.put()
		appendVerdictTable(nil, v.Suffixes, d)
		if len(d.bound) != 1 || !d.keyTable(v.Suffixes) || len(d.fresh) != 4 || len(d.bound) != 1 {
			t.Errorf("the table binds %d keys and again writes %d thresholds, want 1 and 4", len(d.bound), len(d.fresh))
		}
	})
	t.Run("calibrator at p̂ resolution 0.02", func(t *testing.T) {
		cal := stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 200}, 0.02)
		// Two rows of 20 windows whose p̂ share a bucket of 0.01 but not one
		// of 0.02: one grid key under two thresholds.
		var rows []behavior.SuffixResult
		for g := 170; g <= 200 && len(rows) < 2; g++ {
			p := float64(g) / 200
			if len(rows) == 1 {
				q := rows[0].PHat
				if stats.GridPointOf(20, p, stats.DefaultPResolution) != stats.GridPointOf(20, q, stats.DefaultPResolution) ||
					stats.GridPointOf(20, p, 0.02) == stats.GridPointOf(20, q, 0.02) {
					rows = rows[:0]
				}
			}
			eps, err := cal.Threshold(10, 20, p)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, behavior.SuffixResult{Transactions: 200, Windows: 20, PHat: p, Distance: 0.1, Threshold: eps, Pass: 0.1 <= eps})
		}
		if len(rows) != 2 || rows[0].Threshold == rows[1].Threshold {
			t.Fatalf("no two rows on one key under two thresholds: %+v", rows)
		}
		if shapes := frameTables(t, rows); shapes[0] != 0 {
			t.Errorf("shape %#x, want threshold runs", shapes[0])
		}
		// Whole verdicts under that calibrator arrive bit for bit.
		multi, err := behavior.NewMulti(behavior.Config{Calibrator: cal})
		if err != nil {
			t.Fatal(err)
		}
		var tables [][]behavior.SuffixResult
		for i, p := range []float64{0.90, 0.93, 0.95, 0.97} {
			v, err := multi.Test(honestHistory(t, "srv", 1000, p, int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, v.Suffixes)
		}
		// Their rows straddle the coarser buckets, so none keys.
		if shapes := frameTables(t, tables...); string(shapes) != string([]byte{tableChain, tableChain, tableChain, tableChain}) {
			t.Errorf("shapes %x, want four chains with threshold runs", shapes)
		}
	})
}

// TestKeyedFrameGolden pins a keyed assess.batch.resp of four items, byte
// for byte: the binding section binds the six grid keys the frame meets,
// in slot order; the first item's table binds four of them, the second
// repeats it, the third finds two of its keys bound and binds two more, and
// none writes a threshold; the fourth carries a threshold its key is not
// bound to and writes its runs. The keys are stats.GridPointOf's
// arithmetic, so a receiver on another GOARCH that keys one row
// differently fails here.
func TestKeyedFrameGolden(t *testing.T) {
	with := func(rows []behavior.SuffixResult, thresholds ...float64) []behavior.SuffixResult {
		for i := range rows {
			rows[i].Threshold = thresholds[i]
			rows[i].Pass = rows[i].Distance <= rows[i].Threshold
		}
		return rows
	}
	tables := [][]behavior.SuffixResult{
		with(chainRows(t, 10, 4, 9, 10, 7, 10, 10, 8, 10), 0.5, 0.25, 0.25, 0.125),
		with(chainRows(t, 10, 4, 9, 10, 7, 10, 10, 8, 10), 0.5, 0.25, 0.25, 0.125),
		with(chainRows(t, 10, 2, 7, 10, 10, 8, 10), 0.25, 0.125, 0.5, 0.0625),
		with(chainRows(t, 10, 6, 9, 10, 7, 10, 10, 8, 10), 0.5, 0.375),
	}
	var batch AssessBatchResponse
	for i, rows := range tables {
		id := feedback.EntityID(fmt.Sprint("s", i))
		a := core.Assessment{Server: id, Records: rows[0].Transactions, Tester: "multi", TrustFunc: "average",
			Verdict: behavior.Verdict{Honest: i%2 == 0, Suffixes: rows}}
		a.Good = int(math.Round(rows[0].PHat * float64(rows[0].Transactions)))
		a.Trust, a.TrustLow, a.TrustHigh = derivedTrust(false, a.Records, a.Good)
		batch.Items = append(batch.Items, AssessBatchItem{Server: id, AssessResponse: AssessResponse{Assessment: a, Accept: true}})
	}
	env, err := V2Codec.Encode(TypeAssessBR, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	const want = "" +
		"06" + // bindings, each a head of step·10 + form, then its value
		"f0c001" + "3fb0000000000000" + // far step, distance 192: slot 191 (2 windows, 90 % good); 0.0625 XOR 0, whole
		"ab" + "50000000000000" + // step 17, +104 = 295 (3 windows, 93 %): 0.5, 1 zero byte of XOR dropped
		"a1" + "20000000000000" + // step 16, +103 = 398 (4 windows, 95 %): 0.125
		"5b" + "10000000000000" + // step 9, +96 = 494 (5 windows, 90 %): 0.25
		"9f" + "02" + // step 15, +102 = 596 (7 windows, 91 %): a ref to the 2nd bits, 0.5
		"09" + "04" + // step 0, +1 = 597 (6 windows, 92 %): a ref to the 4th, 0.25
		"04" + // items
		"00027330" + "00" + "01" + "2c" + "46" + "40" + // s0 literal: kind, accept, verdict+honest+names, 70 records, 64 good
		"00056d756c7469" + "0007617665726167" + "65" + // "multi", "average", literal
		"0418070a00c309" + // 4 rows, a keyed chain of 7 windows down, m 10, k 0, counts: no threshold
		"00027331" + "00" + "01" + "04" + "46" + "40" + // s1: verdict, no names
		"0418070a00c309" + // the same chain
		"00027332" + "00" + "01" + "0c" + "32" + "2d" + // s2: 50 records, 45 good
		"0418050a00c301" + // rows of 5 and 4 windows are bound before, 3 and 2 here
		"00027333" + "00" + "01" + "04" + "46" + "40" + // s3
		"0208070a003708" + // 2 rows, a chain whose 6-window row has 0.375, not its key's 0.25
		"003fe000000000000001" + "003fd800000000000001" // runs: 0.5 × 1, 0.375 × 1
	if !env.Bindings {
		t.Error("the frame's flags have no binding section")
	}
	if got := hex.EncodeToString(env.Payload); got != want {
		t.Errorf("frame moved:\n got %s\nwant %s", got, want)
	}
	if got, _ := roundTrip(t, TypeAssessBR, batch); !reflect.DeepEqual(got, batch) {
		t.Fatalf("the frame changed on the wire: %+v", got)
	}
}

// TestAssessBatchFrameAllocs pins the allocations of one 256 × 200-record
// assess.batch.resp, the benchmark's wide frame: the encoder allocates
// nothing — its chain and keying scratch are the pooled frame dictionary's
// — and the decoder a table and a server name an item. Revision 11 made
// 786 and 1796, three for a chain on every table at each end and three more
// for the decoder's second.
func TestAssessBatchFrameAllocs(t *testing.T) {
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: testCalibrator()})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := core.NewTwoPhase(multi, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	const servers = 256
	resp := AssessBatchResponse{Items: make([]AssessBatchItem, servers)}
	for i := range resp.Items {
		id := feedback.EntityID(fmt.Sprintf("server-%04d", i))
		a, err := tp.Assess(honestHistory(t, id, 200, 0.90+0.09*float64(i%8)/7, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Items[i] = AssessBatchItem{Server: id, AssessResponse: AssessResponse{Assessment: a, Accept: true}}
	}
	env, err := V2Codec.Encode(TypeAssessBR, 1, resp)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(env.Payload))
	// Under the race detector a pool drops a quarter of what it is given,
	// so now and then a frame pays for a new dictionary and the growth of
	// its map and slices: the bounds are per frame, not per item.
	enc := testing.AllocsPerRun(10, func() { buf, _, _, _ = appendBinaryPayload(buf[:0], resp) })
	dec := testing.AllocsPerRun(10, func() {
		var out AssessBatchResponse
		if err := DecodePayload(env, &out); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d items: %.0f allocations to encode, %.0f to decode", servers, enc, dec)
	if enc > 64 {
		t.Errorf("encode: %.0f allocations, want <= 64", enc)
	}
	if most := float64(2*servers + 64); dec > most {
		t.Errorf("decode: %.0f allocations, want <= %.0f", dec, most)
	}
}
