package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// honestHistory is n transactions of a server that is good with probability
// p, rated by a pool of clients — the shape the benchmark's histories have.
func honestHistory(t testing.TB, server feedback.EntityID, n int, p float64, seed int64) *feedback.History {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := feedback.NewHistory(server)
	for i := 0; i < n; i++ {
		client := feedback.EntityID(fmt.Sprintf("c%02d", rng.Intn(40)))
		if err := h.AppendOutcome(client, rng.Float64() < p, time.Unix(int64(1000+i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func testCalibrator() *stats.Calibrator {
	return stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 200}, 0)
}

// testerVerdicts is one assessment per tester in internal/behavior, plus the
// two shapes that carry no verdict table.
func testerVerdicts(t *testing.T) map[string]core.Assessment {
	t.Helper()
	cfg := behavior.Config{Calibrator: testCalibrator()}
	family := cfg
	family.FamilywiseCorrection = true
	must := func(tester behavior.Tester, err error) behavior.Tester {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tester
	}
	single := must(behavior.NewSingle(cfg))
	multi := must(behavior.NewMulti(cfg))
	testers := map[string]behavior.Tester{
		"single":           single,
		"multi":            multi,
		"multi+familywise": must(behavior.NewMulti(family)),
		"collusion":        must(behavior.NewCollusion(cfg)),
		"collusion-multi":  must(behavior.NewCollusionMulti(cfg)),
	}
	hist := honestHistory(t, "srv", 1230, 0.93, 7)
	out := make(map[string]core.Assessment)
	for name, tester := range testers {
		tp, err := core.NewTwoPhase(tester, trust.Average{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := tp.Assess(hist)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.Verdict.Suffixes) == 0 {
			t.Fatalf("%s: no suffixes to carry", name)
		}
		out[name] = a
	}

	tp, err := core.NewTwoPhase(multi, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	if out["short-history"], err = tp.Assess(honestHistory(t, "srv", 12, 0.9, 1)); err != nil {
		t.Fatal(err)
	}
	if !out["short-history"].ShortHistory || out["short-history"].Verdict.Suffixes != nil {
		t.Fatalf("short history assessed as %+v", out["short-history"])
	}
	out["no-verdict"] = core.Assessment{Server: "srv", Trust: 0.75, TrustLow: 0.5, TrustHigh: 0.9, TrustFunc: "average"}
	return out
}

// roundTrip sends payload through the binary codec as a frame of type typ
// and returns what the far side decodes, with the payload's size.
func roundTrip(t testing.TB, typ MsgType, payload any) (any, int) {
	t.Helper()
	env, err := V2Codec.Encode(typ, 1, payload)
	if err != nil || !env.Binary {
		t.Fatalf("%s: encode: binary=%v err=%v", typ, env.Binary, err)
	}
	got := newPayload(payload)
	if err := DecodePayload(env, got); err != nil {
		t.Fatalf("%s: decode: %v", typ, err)
	}
	return reflect.ValueOf(got).Elem().Interface(), len(env.Payload)
}

// TestVerdictTableEveryTester is the lossless claim on real verdicts: what
// every tester produces arrives DeepEqual through each response that carries
// an assessment.
func TestVerdictTableEveryTester(t *testing.T) {
	for name, a := range testerVerdicts(t) {
		resp := AssessResponse{Assessment: a, Accept: !a.Suspicious}
		other := resp
		other.Assessment.Server = "elsewhere" // an item whose assessment names another server
		items := []AssessBatchItem{
			{Server: a.Server, AssessResponse: resp},
			{Server: "ghost", Error: &ErrorResponse{Code: CodeUnknownServer, Message: "no records"}},
			{Server: a.Server, AssessResponse: other},
		}
		for typ, payload := range map[MsgType]any{
			TypeAssessR:     resp,
			TypeAssessBR:    AssessBatchResponse{Items: items},
			TypeFwdAssessBR: FwdAssessBatchResponse{Node: "n2", Items: items},
		} {
			if got, _ := roundTrip(t, typ, payload); !reflect.DeepEqual(got, payload) {
				t.Errorf("%s through %s:\n got %+v\nwant %+v", name, typ, got, payload)
			}
		}
		if rows := a.Verdict.Suffixes; len(rows) > 0 {
			d := getFrameDict(nil)
			shape, _, _ := tableShape(rows, nil, d)
			d.put()
			if shape != testerShapes[name] {
				t.Errorf("%s: shape %#x, want %#x", name, shape, testerShapes[name])
			}
		}
	}
}

// testerShapes is the shape each tester's table takes. Every one derives
// Windows, PHat and Pass. Single and collusion test once, and one row is no
// chain. Multi's suffixes are a chain, with or without the familywise
// correction, which moves only the thresholds. Collusion-multi's suffixes
// each hold one time-ordered window more than the next, but each is
// re-ordered on its own, so the histograms do not nest, the distances do not
// rebuild from one base, and the table rides as raw columns.
var testerShapes = map[string]byte{
	"single":           0,
	"multi":            tableChain,
	"multi+familywise": tableChain,
	"collusion":        0,
	"collusion-multi":  0,
}

// TestVerdictTableBytes pins what the columns buy on seeded honest histories
// spread over the benchmark's range of p, each table a frame of its own: the
// row layout took 28.7 B per suffix at any depth, the raw columns 10.8 B at
// 497 rows and 16.1 B at 17, chains with distance residuals 2.58 B and 7.74
// B, chains with none 1.29 B and 6.65 B, keyed chains 0.73 B and 6.11 B
// (2.15 B at 97), and 0.67 B, 1.95 B and 5.62 B since the bindings head the
// frame, each a byte of slot step and form and its bits XOR the bits
// before, short of their leading zero bytes. A chain spends a bit or two on
// each row's window count and nothing on its distance; the rest is the
// thresholds, one binding for each grid point the rows land on,
// which is why a short table, whose rows change grid point nearly every
// row, pays more per suffix — alone in its frame it finds no key bound
// (TestAssessBatchFrameBytes has the frames a node sends,
// TestConnectionFrameBytes a connection's).
func TestVerdictTableBytes(t *testing.T) {
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: testCalibrator()})
	if err != nil {
		t.Fatal(err)
	}
	ps := []float64{0.90, 0.93, 0.95, 0.97, 0.99}
	for _, tc := range []struct {
		records, suffixes int
		most              float64
	}{{5000, 497, 0.78}, {1000, 97, 2.25}, {200, 17, 6.35}} {
		total := 0
		for _, p := range ps {
			v, err := multi.Test(honestHistory(t, "srv", tc.records, p, 1))
			if err != nil {
				t.Fatal(err)
			}
			if len(v.Suffixes) != tc.suffixes {
				t.Fatalf("%d records: %d suffixes, want %d", tc.records, len(v.Suffixes), tc.suffixes)
			}
			sec, table := encodeTable(v.Suffixes)
			total += len(sec) + len(table)
		}
		per := float64(total) / float64(tc.suffixes*len(ps))
		t.Logf("%d suffixes: %.2f B per suffix", tc.suffixes, per)
		if per > tc.most {
			t.Errorf("%d suffixes: %.2f B per suffix, want <= %.2f", tc.suffixes, per, tc.most)
		}
	}
}

// TestAssessBatchFrameBytes pins the assess.batch.resp payload per item that
// trustd's default assessor sends for the benchmark's three batch shapes —
// 256 servers of 200 records (assess_wide), 8 of 5000 (assess_deep's
// histories) and 64 of 200 (cluster3) — over the benchmark's mix of
// histories: 80 % honest with p in [0.90, 0.99], 10 % hibernating and 10 %
// periodic attackers, and the assess.resp of one server of 1000 records
// (mixed_skew's single frames), which writes its names. Revision 8 sent
// 165.6 B and 674.4 B an item, revision 9 86.8 B, 461.5 B and 245.0 B,
// revision 10 52.8 B, 429.2 B and 225.0 B (a header of three floats and two
// names became two counts; 63.1 B at 64 × 200), revision 12 30.4 B, 373.2
// B, 202.0 B and 42.2 B (a row whose grid key the frame has bound writes no
// threshold), and revision 13, each frame alone, 29.7 B, 348.6 B, 190.0 B
// and 40.2 B: a binding's head byte names its slot's step from the one
// before, and its bits XOR the ones before drop their leading zero bytes.
// The bounds are revision 12's, so that a frame alone — the first on a
// connection, every V2Codec frame — costs no more than it did; on a
// connection a frame binds only the keys no frame before it did
// (TestConnectionFrameBytes).
func TestAssessBatchFrameBytes(t *testing.T) {
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		servers, records int
		most             float64
	}{{256, 200, 32}, {8, 5000, 390}, {1, 1000, 210}, {64, 200, 44}} {
		resp := AssessBatchResponse{Items: benchMix(t, tp, tc.servers, tc.records)}
		var sent any = resp
		typ := TypeAssessBR
		if tc.servers == 1 {
			sent, typ = resp.Items[0].AssessResponse, TypeAssessR
		}
		got, size := roundTrip(t, typ, sent)
		if !reflect.DeepEqual(got, sent) {
			t.Fatalf("%d x %d records: the %s changed on the wire", tc.servers, tc.records, typ)
		}
		per := float64(size) / float64(tc.servers)
		t.Logf("%d x %d records: %.1f B per item", tc.servers, tc.records, per)
		if per > tc.most {
			t.Errorf("%d x %d records: %.1f B per item, want <= %.0f", tc.servers, tc.records, per, tc.most)
		}
	}
}

// benchMix is tp's answers for servers histories of records each in the
// benchmark's mix: 80 % honest with p in [0.90, 0.99], 10 % hibernating and
// 10 % periodic attackers.
func benchMix(t testing.TB, tp *core.TwoPhase, servers, records int) []AssessBatchItem {
	t.Helper()
	items := make([]AssessBatchItem, 0, servers)
	for _, h := range benchHistories(t, servers, records) {
		a, err := tp.Assess(h)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, AssessBatchItem{Server: h.Server(), AssessResponse: AssessResponse{Assessment: a, Accept: !a.Suspicious}})
	}
	return items
}

// benchHistories is benchMix's histories.
func benchHistories(t testing.TB, servers, records int) []*feedback.History {
	t.Helper()
	hists := make([]*feedback.History, 0, servers)
	for i := range servers {
		id := feedback.EntityID(fmt.Sprintf("srv-%d", i))
		rng := stats.NewRNG(uint64(records + i))
		p := 0.90 + 0.09*rng.Float64()
		var h *feedback.History
		var err error
		switch i % 10 {
		case 3:
			burst := max(records/20, 10)
			h, err = attack.GenHibernating(id, records-burst, p, burst, rng)
		case 7:
			h, err = attack.GenPeriodic(id, records, 10, 0.3, rng)
		default:
			h, err = attack.GenHonest(id, records, p, 50, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		hists = append(hists, h)
	}
	return hists
}

// TestTesterTablesAreChains: the tables a multi tester writes cross as
// keyed chains, with every Distance rebuilt by the receiver and none sent,
// and a threshold sent only for the rows that bind a grid key, on seeded
// histories: honest ones over the benchmark's range of p, a hibernating
// attacker's and a periodic one's. A silent fall-back to raw columns or to
// threshold runs fails here, not on the benchmark.
func TestTesterTablesAreChains(t *testing.T) {
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: testCalibrator()})
	if err != nil {
		t.Fatal(err)
	}
	hists := make(map[string]*feedback.History)
	for _, p := range []float64{0.90, 0.93, 0.95, 0.97, 0.99} {
		for _, n := range []int{200, 1000, 5000} {
			hists[fmt.Sprintf("honest p=%v n=%d", p, n)] = honestHistory(t, "srv", n, p, int64(n))
		}
	}
	rng := stats.NewRNG(3)
	if hists["hibernating"], err = attack.GenHibernating("srv", 1000, 0.95, 30, rng); err != nil {
		t.Fatal(err)
	}
	if hists["periodic"], err = attack.GenPeriodic("srv", 2000, 20, 0.1, rng); err != nil {
		t.Fatal(err)
	}
	for name, h := range hists {
		v, err := multi.Test(h)
		if err != nil {
			t.Fatal(err)
		}
		if shape := checkTable(t, v.Suffixes); shape != tableChain|tableKeyed {
			t.Errorf("%s: %d rows in shape %#x, want a keyed chain", name, len(v.Suffixes), shape)
		}
	}
}

// sameBits compares two tables field by field at the bit level, which
// DeepEqual cannot do for NaN.
func sameBits(a, b []behavior.SuffixResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Transactions != y.Transactions || x.Windows != y.Windows || x.Pass != y.Pass ||
			math.Float64bits(x.PHat) != math.Float64bits(y.PHat) ||
			math.Float64bits(x.Distance) != math.Float64bits(y.Distance) ||
			math.Float64bits(x.Threshold) != math.Float64bits(y.Threshold) {
			return false
		}
	}
	return true
}

// encodeTable is appendVerdictTable for a table that is a frame of its own:
// the frame's binding section — nil when the table binds no grid key — and
// the table.
func encodeTable(rows []behavior.SuffixResult) (sec, table []byte) {
	d := getFrameDict(nil)
	defer d.put()
	table = appendVerdictTable(nil, rows, d)
	return d.appendBindings(nil, nil), table
}

// bindingSection reads the binding section heading r's payload as the
// decoder of a frame that stands alone does.
func (r *breader) bindingSection() error {
	d := r.frame()
	d.read = &d.alone
	return r.bindings(nil, d.read)
}

// decodeTables reads the verdict tables of one frame as a payload's decoder
// does: its binding section sec (none when nil), then tables to the last
// byte, every binding of the section read by a keyed row.
func decodeTables(sec, tables []byte) ([][]behavior.SuffixResult, error) {
	r := &breader{buf: sec}
	defer r.release()
	if len(sec) > 0 {
		if err := r.bindingSection(); err != nil {
			return nil, err
		}
		if len(r.buf) != 0 {
			return nil, fmt.Errorf("%d bytes past the binding section", len(r.buf))
		}
	}
	r.buf = tables
	var out [][]behavior.SuffixResult
	for len(r.buf) > 0 {
		rows, err := r.verdictTable()
		if err != nil {
			return out, err
		}
		out = append(out, rows)
	}
	return out, r.frame().unread()
}

// readTable is decodeTables for a frame of one table.
func readTable(sec, table []byte) ([]behavior.SuffixResult, error) {
	tables, err := decodeTables(sec, table)
	if err == nil && len(tables) != 1 {
		err = fmt.Errorf("%d tables, want one", len(tables))
	}
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// checkTable encodes rows, decodes them back bit for bit, and returns the
// shape the encoder chose.
func checkTable(t testing.TB, rows []behavior.SuffixResult) byte {
	t.Helper()
	sec, enc := encodeTable(rows)
	got, err := readTable(sec, enc)
	if err != nil {
		t.Fatalf("decode of %+v: %v", rows, err)
	}
	if len(rows) == 0 {
		if got != nil {
			t.Fatalf("an empty table decoded to %#v, want nil", got)
		}
		return 0
	}
	if !sameBits(got, rows) {
		t.Fatalf("table changed on the wire:\n got %+v\nwant %+v", got, rows)
	}
	_, count := binary.Uvarint(enc)
	return enc[count] // the shape byte follows the row count
}

// TestVerdictTableFallbacks: the encoder checks every row before deriving a
// column, so tables no tester writes still arrive intact — each the long way
// round for exactly the columns that needed it. Every table whose Windows
// and PHat derive is keyed but those whose rows hold one grid key under two
// thresholds, which write their runs.
func TestVerdictTableFallbacks(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000123)
	row := behavior.SuffixResult{Transactions: 40, Windows: 4, PHat: 0.95, Distance: 0.1, Threshold: 0.2, Pass: true}
	with := func(edit func(*behavior.SuffixResult)) []behavior.SuffixResult {
		rows := []behavior.SuffixResult{row, row, row}
		rows[0].Transactions, rows[0].Windows, rows[0].PHat = 60, 6, 0.9
		edit(&rows[1])
		return rows
	}
	for _, tc := range []struct {
		name string
		rows []behavior.SuffixResult
		want byte
	}{
		{"empty", nil, 0},
		{"empty non-nil", []behavior.SuffixResult{}, 0},
		{"derived", with(func(*behavior.SuffixResult) {}), tableKeyed},
		{"windows not a multiple", with(func(s *behavior.SuffixResult) { s.Windows = 5 }), tableWindows},
		{"ragged transactions", with(func(s *behavior.SuffixResult) { s.Transactions = 41 }), tableWindows | tablePHat},
		{"zero windows first", []behavior.SuffixResult{{Transactions: 10, PHat: 0.5, Pass: true}}, tableWindows},
		{"negative counts", with(func(s *behavior.SuffixResult) { s.Transactions, s.Windows = -40, -4 }), tablePHat},
		{"huge counts", with(func(s *behavior.SuffixResult) { s.Transactions, s.Windows = math.MaxInt, math.MinInt }), tableWindows | tablePHat},
		{"phat off the grid", with(func(s *behavior.SuffixResult) { s.PHat = 0.95000001 }), tablePHat},
		{"phat nan", with(func(s *behavior.SuffixResult) { s.PHat = nan }), tablePHat},
		{"phat -0", with(func(s *behavior.SuffixResult) { s.PHat = math.Copysign(0, -1) }), tablePHat},
		{"phat above one", with(func(s *behavior.SuffixResult) { s.PHat = 1.5 }), tablePHat},
		{"zero transactions", with(func(s *behavior.SuffixResult) { s.Transactions, s.Windows, s.PHat = 0, 0, nan }), tablePHat},
		{"pass disagrees", with(func(s *behavior.SuffixResult) { s.Pass = false }), tablePass | tableKeyed},
		{"distance nan", with(func(s *behavior.SuffixResult) { s.Distance, s.Pass = nan, false }), tableKeyed},
		{"distance nan passing", with(func(s *behavior.SuffixResult) { s.Distance = nan }), tablePass | tableKeyed},
		// Rows 1 and 2 are one grid point with two thresholds.
		{"threshold inf and -0", with(func(s *behavior.SuffixResult) {
			s.Threshold, s.Distance = math.Inf(1), math.Copysign(0, -1)
		}), 0},
		{"threshold nan", with(func(s *behavior.SuffixResult) { s.Threshold, s.Pass = nan, false }), 0},
		{"one grid point, nan thresholds", []behavior.SuffixResult{
			{Transactions: 40, Windows: 4, PHat: 0.95, Distance: 0.1, Threshold: nan},
			{Transactions: 40, Windows: 4, PHat: 0.95, Distance: 0.1, Threshold: nan},
		}, tableKeyed},
		{"everything", with(func(s *behavior.SuffixResult) {
			*s = behavior.SuffixResult{Transactions: 7, Windows: 3, PHat: math.Inf(-1), Distance: nan, Threshold: nan, Pass: true}
		}), tableWindows | tablePHat | tablePass},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkTable(t, tc.rows); got != tc.want {
				t.Errorf("shape %#x, want %#x", got, tc.want)
			}
		})
	}
	// Nine rows, so the pass bitmap has a second byte and padding bits.
	nine := make([]behavior.SuffixResult, 9)
	for i := range nine {
		nine[i] = row
		nine[i].Pass = i%2 == 0
	}
	if got := checkTable(t, nine); got != tablePass|tableKeyed {
		t.Errorf("nine rows: shape %#x, want %#x", got, tablePass|tableKeyed)
	}
}

// bindingSection is the binding section that binds each slot of binds to
// its value, written out as the layout in verdict.go spells it: a head of
// the slot's step from the one before and the value's form, then the bits
// XOR the bits before short of their leading zero bytes, or a ref to bits
// the section bound before.
func bindingSection(binds map[uint32]float64) []byte {
	var slots []uint32
	for slot := range binds {
		slots = append(slots, slot)
	}
	slices.Sort(slots)
	sec := binary.AppendUvarint(nil, uint64(len(slots)))
	slot, prev, seen := -1, uint64(0), []uint64(nil)
	for _, next := range slots {
		bits, dist := math.Float64bits(binds[next]), int(next)-slot
		step, far := byte(farStep), binary.AppendUvarint(nil, uint64(dist))
		if dist <= 4 {
			step, far = byte(dist-1), nil
		} else if off := dist - gridP; off >= -10 && off < 10 {
			step, far = byte(off+14), nil
		}
		value := binary.BigEndian.AppendUint64(nil, bits^prev)
		for len(value) > 0 && value[0] == 0 {
			value = value[1:]
		}
		form := byte(8 - len(value))
		if i := slices.Index(seen, bits); i >= 0 && bits != prev {
			form, value = refForm, binary.AppendUvarint(nil, uint64(i+1))
		} else if i < 0 {
			seen = append(seen, bits)
		}
		sec = slices.Concat(sec, []byte{step*forms + form}, far, value)
		slot, prev = int(next), bits
	}
	return sec
}

// TestVerdictTableStrict: the decoder takes the encoder's output and nothing
// that merely means the same.
func TestVerdictTableStrict(t *testing.T) {
	f := func(v float64) []byte { return appendFloat(nil, v) }
	lit := func(v float64, run byte) []byte { return slices.Concat([]byte{0}, f(v), []byte{run}) }
	// Two rows on two grid points, so keyed: Transactions 40, 20; Windows 4,
	// 2; good 38, 18. Both keys bind to 0.2 in the binding section, and the
	// table writes no threshold.
	cols := slices.Concat([]byte{80, 39, 10, 76, 39}, f(0.1), f(0.3))
	table := func(shape byte, rest ...[]byte) []byte {
		return slices.Concat(append([]byte{2, shape}, cols...), slices.Concat(rest...))
	}
	slotA := rowSlot(&behavior.SuffixResult{Windows: 4, PHat: 0.95})
	slotB := rowSlot(&behavior.SuffixResult{Windows: 2, PHat: 0.9})
	sec := bindingSection(map[uint32]float64{slotA: 0.2, slotB: 0.2})
	good := table(tableKeyed)
	if rows, err := readTable(sec, good); err != nil || len(rows) != 2 || rows[1].PHat != 0.9 || rows[1].Pass || rows[1].Threshold != 0.2 {
		t.Fatalf("reference table: %+v, %v", rows, err)
	}
	rows, _ := readTable(sec, good)
	if gotSec, gotTable := encodeTable(rows); !bytes.Equal(gotSec, sec) || !bytes.Equal(gotTable, good) {
		t.Fatalf("the reference encodes as %x then %x", gotSec, gotTable)
	}
	// Three rows whose first two are one grid point — 7 and 6 windows share
	// a bucket, and each row is 90 % good — under two thresholds, so
	// threshold runs: Transactions 70, 60, 50; good 63, 54, 45.
	runs := func(rest ...[]byte) []byte {
		return slices.Concat([]byte{3, 0, 0x8c, 0x01, 19, 19, 10, 126, 17, 17}, f(0.1), f(0.3), f(0.5), slices.Concat(rest...))
	}
	goodRuns := runs(lit(0.2, 1), lit(0.3, 2))
	if rows, err := readTable(nil, goodRuns); err != nil || len(rows) != 3 || rows[2].Threshold != 0.3 || rows[2].Pass {
		t.Fatalf("reference runs: %+v, %v", rows, err)
	}
	// A section of the reference's two bindings, the second bound to the
	// first's 0.2, written out: slotB, 3 window buckets and 5 p̂ buckets
	// below slotA, comes first, a far step and its distance, slotB + 1,
	// then 0.2 XOR 0, whole; then slotA, a far step and its distance, and
	// the form of bits equal to the ones before.
	written := func(secondHead byte, second ...byte) []byte {
		return slices.Concat([]byte{2, farStep * forms}, binary.AppendUvarint(nil, uint64(slotB+1)), f(0.2),
			[]byte{secondHead}, binary.AppendUvarint(nil, uint64(slotA-slotB)), second)
	}
	if !bytes.Equal(written(farStep*forms+8), sec) {
		t.Fatalf("the reference section %x, not as written out", sec)
	}
	long := slices.Concat(binary.AppendUvarint(nil, uint64(gridSlots+1)), bytes.Repeat([]byte{8}, gridSlots+1))
	// slotB bound to 0.2, slotB + 1 to 0.3, and slotA to 0.2 again as XOR
	// 0.3, where the encoder names the first bits by their ref.
	xor := func(a, b float64) (byte, []byte) {
		x := binary.BigEndian.AppendUint64(nil, math.Float64bits(a)^math.Float64bits(b))
		for x[0] == 0 {
			x = x[1:]
		}
		return byte(8 - len(x)), x
	}
	form2, x2 := xor(0.3, 0.2)
	form3, x3 := xor(0.2, 0.3)
	again := slices.Concat([]byte{3, farStep * forms}, binary.AppendUvarint(nil, uint64(slotB+1)), f(0.2),
		[]byte{form2}, x2, []byte{farStep*forms + form3}, binary.AppendUvarint(nil, uint64(slotA-slotB-1)), x3)
	for name, bad := range map[string]struct{ sec, table []byte }{
		"truncated":              {sec, good[:len(good)-1]},
		"unknown shape bit":      {sec, table(32 | tableKeyed)},
		"windows the long way":   {nil, slices.Concat([]byte{2, tableWindows, 80, 39, 8, 3, 76, 39}, f(0.1), f(0.3), lit(0.2, 2))},
		"phat the long way":      {nil, slices.Concat([]byte{2, tablePHat, 80, 39, 10}, f(0.95), f(0.9), f(0.1), f(0.3), lit(0.2, 2))},
		"pass the long way":      {sec, table(tablePass|tableKeyed, []byte{1})},
		"window size zero":       {sec, slices.Concat([]byte{2, tableKeyed, 80, 39, 0, 76, 39}, f(0.1), f(0.3))},
		"window size not exact":  {sec, slices.Concat([]byte{2, tableKeyed, 80, 39, 7, 76, 39}, f(0.1), f(0.3))},
		"good above transaction": {sec, slices.Concat([]byte{2, tableKeyed, 80, 39, 10, 90, 39}, f(0.1), f(0.3))},
		"long varint":            {sec, slices.Concat([]byte{2, tableKeyed, 0xd0, 0x00, 39, 10, 76, 39}, f(0.1), f(0.3))},
		"count beyond the bytes": {nil, []byte{200, 0, 80, 39}},
		// Keyed thresholds and their bindings.
		"runs that would key":             {nil, table(0, lit(0.2, 2))},
		"runs that would key on bindings": {sec, slices.Concat(good, table(0, lit(0.2, 2)))},
		"keyed with windows the long way": {sec, slices.Concat([]byte{2, tableWindows | tableKeyed, 80, 39, 8, 3, 76, 39}, f(0.1), f(0.3))},
		"keyed with phat the long way":    {sec, slices.Concat([]byte{2, tablePHat | tableKeyed, 80, 39, 10}, f(0.95), f(0.9), f(0.1), f(0.3))},
		"a keyed table without bindings":  {nil, good},
		"a keyed table missing one":       {bindingSection(map[uint32]float64{slotA: 0.2}), good},
		"a binding no row reads":          {bindingSection(map[uint32]float64{slotA: 0.2, slotB: 0.2, slotB + 1: 0.2}), good},
		"a distance a step covers":        {slices.Concat([]byte{2, farStep * forms}, binary.AppendUvarint(nil, uint64(slotB+1)), f(0.2), []byte{farStep*forms + 8, 1}), good},
		"a slot bound twice":              {slices.Concat([]byte{2, farStep * forms}, binary.AppendUvarint(nil, uint64(slotB+1)), f(0.2), []byte{farStep*forms + 8, 0}), good},
		"an empty binding section":        {[]byte{0}, good},
		"a head past the far step":        {written(farStep*forms + forms), good},
		"equal bits as XOR":               {written(farStep*forms, make([]byte, 8)...), good},
		"a zero byte of XOR written":      {written(farStep*forms+7, 0), good},
		"a ref to the bits before":        {written(farStep*forms+refForm, 1), good},
		"a ref past the section's bits":   {written(farStep*forms+refForm, 2), good},
		"a ref of zero":                   {written(farStep*forms+refForm, 0), good},
		"bits bound before as XOR":        {again, good},
		"a slot past the grid":            {slices.Concat([]byte{2, farStep * forms}, binary.AppendUvarint(nil, uint64(gridSlots)), f(0.2), []byte{8}), good},
		"a distance past the grid":        {slices.Concat([]byte{1, farStep * forms}, binary.AppendUvarint(nil, uint64(gridSlots+1)), f(0.2)), good},
		"a section longer than the grid":  {long, good},
		"a slot bound to the unbindable":  {slices.Concat([]byte{1, farStep * forms}, binary.AppendUvarint(nil, uint64(slotB+1)), binary.BigEndian.AppendUint64(nil, unbindable)), good},
		"a section cut short":             {sec[:len(sec)-1], good},
		// Threshold runs.
		"threshold runs split":     {nil, runs(lit(0.2, 1), lit(0.3, 1), []byte{2, 1})},
		"a literal already listed": {nil, runs(lit(0.2, 1), lit(0.3, 1), lit(0.3, 1))},
		"a ref past the list":      {nil, runs(lit(0.2, 1), []byte{2, 2})},
		"a ref to an empty list":   {nil, runs([]byte{1, 1}, lit(0.3, 2))},
		"threshold run of zero":    {nil, runs(lit(0.2, 0), lit(0.3, 2))},
		"threshold run too long":   {nil, runs(lit(0.2, 1), lit(0.3, 3))},
		"runs cut short":           {nil, runs(lit(0.2, 1), lit(0.3, 1))},
	} {
		if rows, err := readTable(bad.sec, bad.table); err == nil {
			t.Errorf("%s: accepted as %+v", name, rows)
		}
	}
	// Padding bits of the pass bitmap.
	odd := []behavior.SuffixResult{{Transactions: 10, Windows: 1, PHat: 0.5, Distance: 1, Pass: true}}
	oddSec, enc := encodeTable(odd)
	enc[len(enc)-1] |= 0x80
	if _, err := readTable(oddSec, enc); err == nil {
		t.Error("set padding bits accepted")
	}
}

// TestThresholdDictionary: a frame writes each threshold literal's bits
// once, and every later value that holds them, in its own table or
// another, names the literal by its place; a row on a grid key writes no
// threshold at all, the frame's binding section binding each key it meets
// first. The dictionaries are the frame's: a table read alone cannot refer
// into another's, and a new frame starts empty.
func TestThresholdDictionary(t *testing.T) {
	// Rows of 7, 6, 5 and 4 windows, 91, 92, 90 and 95 % good: four grid
	// points.
	first := chainRows(t, 10, 4, 9, 10, 7, 10, 10, 8, 10)
	first[1].Threshold, first[2].Threshold = 0.25, 0.25
	// Rows of 5 and 4 windows — first's last two grid points — then 3 and
	// 2, 93 and 90 % good: two more.
	second := chainRows(t, 10, 2, 7, 10, 10, 8, 10)
	for i, v := range []float64{0.25, 0.3, 0.25, 0.3} {
		second[i].Threshold = v
	}
	d := getFrameDict(nil)
	defer d.put()
	one := appendVerdictTable(nil, first, d)
	two := appendVerdictTable(nil, second, d)
	// Each table is its 7 B chain — row count, shape, windows, m, k and two
	// bytes of counts — and no threshold.
	if want := []byte{tableChain | tableKeyed, 7, 10}; len(one) != 7 || !bytes.Equal(one[1:4], want) {
		t.Errorf("first table: %x, want a 7 B chain headed %x after the row count", one, want)
	}
	if want := []byte{tableChain | tableKeyed, 5, 10}; len(two) != 7 || !bytes.Equal(two[1:4], want) {
		t.Errorf("second table: %x, want a 7 B chain headed %x after the row count", two, want)
	}
	binds := map[uint32]float64{}
	for _, rows := range [][]behavior.SuffixResult{first, second} {
		for i := range rows {
			binds[rowSlot(&rows[i])] = rows[i].Threshold
		}
	}
	sec := d.appendBindings(nil, nil)
	if want := bindingSection(binds); len(binds) != 6 || !bytes.Equal(sec, want) {
		t.Errorf("binding section %x, want %x: six keys", sec, want)
	}
	got, err := decodeTables(sec, slices.Concat(one, two))
	if err != nil || len(got) != 2 || !sameBits(got[0], first) || !sameBits(got[1], second) {
		t.Fatalf("the frame's tables: %+v, %v", got, err)
	}
	if got, err := readTable(nil, two); err == nil || !strings.Contains(err.Error(), "nothing bound") {
		t.Errorf("the second table alone: %+v, %v", got, err)
	}
	// Threshold runs share the literals: rows on one grid point under two
	// thresholds write 0.2 and 0.3 in full, and the same rows again refs.
	runs := []behavior.SuffixResult{
		{Transactions: 70, Windows: 7, PHat: 0.9, Distance: 0.1, Threshold: 0.2, Pass: true},
		{Transactions: 60, Windows: 6, PHat: 0.9, Distance: 0.3, Threshold: 0.3, Pass: true},
		{Transactions: 50, Windows: 5, PHat: 0.9, Distance: 0.5, Threshold: 0.3},
	}
	d2 := getFrameDict(nil)
	defer d2.put()
	a := appendVerdictTable(nil, runs, d2)
	b := appendVerdictTable(nil, runs, d2)
	if want := slices.Concat([]byte{0}, appendFloat(nil, 0.2), []byte{1, 0}, appendFloat(nil, 0.3), []byte{2}); !bytes.HasSuffix(a, want) {
		t.Errorf("runs: %x, want a suffix %x", a, want)
	}
	if !bytes.Equal(a[:len(a)-20], b[:len(b)-4]) || !bytes.HasSuffix(b, []byte{1, 1, 2, 2}) {
		t.Errorf("runs again: %x, want refs 1 × 1 and 2 × 2", b)
	}
	// Through the codec: the batch repeats one table in every item, so the
	// binding section binds its four keys once, for all of them.
	asmt := core.Assessment{Server: "s0", Verdict: behavior.Verdict{Suffixes: first}}
	var batch AssessBatchResponse
	for i := range 4 {
		asmt.Server = feedback.EntityID(fmt.Sprint("s", i))
		batch.Items = append(batch.Items, AssessBatchItem{Server: asmt.Server, AssessResponse: AssessResponse{Assessment: asmt}})
	}
	gotBatch, size := roundTrip(t, TypeAssessBR, batch)
	if !reflect.DeepEqual(gotBatch, batch) {
		t.Fatalf("batch changed on the wire: %+v", gotBatch)
	}
	// Each item after the first writes no bindings and its names not at
	// all, not as two empty strings; the batch writes its item count once.
	_, alone := roundTrip(t, TypeAssessBR, AssessBatchResponse{Items: batch.Items[:1]})
	firstSec, _ := encodeTable(first)
	if want := 4*alone - 3 - 3*len(firstSec) - 3*2; size != want {
		t.Errorf("4 items in %d B, want %d: the bindings were not shared", size, want)
	}
}

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// chainHead is a chain's row count, shape, first-row window count and m of
// 10 for n rows: zeros behind it are k = 0 and one-bit codes of m − c = 0,
// rows of all-good windows.
func chainHead(n int) []byte {
	count := binary.AppendUvarint(nil, uint64(n))
	return slices.Concat(count, []byte{tableChain}, count, []byte{10})
}

// TestHostileCountsAllocateWithinFrame: a count is believed only as far as
// the bytes behind it go at the element's smallest encoding, and no further
// than the protocol's batch caps. A 4 MiB assess.batch.resp of zeros behind
// a large count used to allocate 671 MiB before its first field failed.
func TestHostileCountsAllocateWithinFrame(t *testing.T) {
	frame := func(head ...byte) []byte { return append(head, make([]byte, MaxFrame-64)...) }
	count := binary.AppendUvarint(nil, MaxFrame-100)
	asmt := func(table ...byte) []byte {
		// assess.resp up to its verdict table: flags, assessment flags, no
		// records, two empty names.
		return append([]byte{0, asmtFlagVerdict | asmtFlagHonest | asmtFlagNames, 0, 0, 0, 0}, table...)
	}
	for name, tc := range map[string]struct {
		typ   MsgType
		dest  any
		frame []byte
		most  uint64
	}{
		"assess.batch.resp items":  {TypeAssessBR, new(AssessBatchResponse), frame(count...), 64 << 10},
		"assess.batch.resp at cap": {TypeAssessBR, new(AssessBatchResponse), frame(binary.AppendUvarint(nil, MaxAssessBatch)...), 128 << 10},
		"fwd.assess.batch.resp":    {TypeFwdAssessBR, new(FwdAssessBatchResponse), frame(append([]byte{1, 'n'}, count...)...), 64 << 10},
		"assess.batch servers":     {TypeAssessB, new(AssessBatchRequest), frame(count...), 64 << 10},
		"submit.batch.resp items":  {TypeSubmitBR, new(BatchResponse), frame(count...), 64 << 10},
		"submit.batch records":     {TypeSubmitB, new(BatchRequest), frame(count...), 64 << 10},
		// Rows are 48 B in memory and at least 10 B on the wire.
		"verdict table rows": {TypeAssessR, new(AssessResponse), frame(asmt(binary.AppendUvarint(nil, (MaxFrame-200)/10)...)...), 6 * MaxFrame},
		"verdict table lies": {TypeAssessR, new(AssessResponse), frame(asmt(count...)...), 64 << 10},
		// A chain row is at least one bit of window count: a chain's rows
		// are believed as far as eight a byte, and no further than
		// maxFrameRows.
		"verdict chain lies":     {TypeAssessR, new(AssessResponse), frame(asmt(chainHead(MaxFrame - 100)...)...), 64 << 10},
		"verdict chain rows":     {TypeAssessR, new(AssessResponse), frame(asmt(chainHead(maxFrameRows)...)...), 6 * MaxFrame},
		"verdict chain too long": {TypeAssessR, new(AssessResponse), frame(asmt(chainHead(maxFrameRows + 1)...)...), 64 << 10},
		"verdict chain past eight rows a byte": {TypeAssessR, new(AssessResponse),
			append(asmt(chainHead(8*(1<<12)+8*10)...), make([]byte, 1<<12)...), 64 << 10},
		"verdict chain at eight rows a byte": {TypeAssessR, new(AssessResponse),
			append(asmt(chainHead(8*(1<<12))...), make([]byte, 1<<12)...), 8*48<<12 + 64<<10},
	} {
		var err error
		got := allocatedBy(func() { err = decodeBinaryPayload(tc.typ, tc.frame, false, tc.dest) })
		if err == nil {
			t.Errorf("%s: hostile frame accepted", name)
		}
		if got > tc.most {
			t.Errorf("%s: decoding a %d B frame allocated %d B, want <= %d", name, len(tc.frame), got, tc.most)
		}
	}
}

// TestBatchCapsOnDecode: the protocol's caps hold on the decode side too.
func TestBatchCapsOnDecode(t *testing.T) {
	servers := make([]feedback.EntityID, MaxAssessBatch+1)
	items := make([]AssessBatchItem, MaxAssessBatch+1)
	for i := range servers {
		servers[i] = feedback.EntityID(fmt.Sprintf("s%d", i))
		items[i] = AssessBatchItem{Server: servers[i], Error: &ErrorResponse{Code: CodeUnknownServer}}
	}
	for typ, over := range map[MsgType]any{
		TypeAssessB:  AssessBatchRequest{Servers: servers},
		TypeAssessBR: AssessBatchResponse{Items: items},
		TypeSubmitBR: NewBatchResponse(make([]SubmitBatchItem, MaxSubmitBatch+1)),
	} {
		env, err := V2Codec.Encode(typ, 1, over)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodePayload(env, newPayload(over)); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("%s above its cap: err = %v", typ, err)
		}
	}
	atCap := AssessBatchResponse{Items: items[:MaxAssessBatch]}
	if got, _ := roundTrip(t, TypeAssessBR, atCap); !reflect.DeepEqual(got, atCap) {
		t.Error("a batch at the cap did not round-trip")
	}
}

// TestFullBatchFitsFrame is PROTOCOL.md's MaxFrame arithmetic: a full
// assess.batch over 14 000-record histories (1397 suffixes each) frames; at
// the row layout's 28.7 B per suffix it stopped fitting near 5 600 records.
func TestFullBatchFitsFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("assesses a 14 000-record history")
	}
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: testCalibrator()})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := core.NewTwoPhase(multi, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tp.Assess(honestHistory(t, "server-0000", 14000, 0.95, 1))
	if err != nil {
		t.Fatal(err)
	}
	items := make([]AssessBatchItem, MaxAssessBatch)
	for i := range items {
		items[i] = AssessBatchItem{Server: a.Server, AssessResponse: AssessResponse{Assessment: a, Accept: true}}
	}
	_, size := roundTrip(t, TypeAssessBR, AssessBatchResponse{Items: items})
	t.Logf("256 x %d suffixes: %d B, %.1f%% of MaxFrame", len(a.Verdict.Suffixes), size, 100*float64(size)/MaxFrame)
	if size+v2BodyMin > MaxFrame {
		t.Errorf("full batch is %d B, above MaxFrame", size)
	}
}

// chainRows is Multi.Test's table, with stride m, over windows of m
// transactions whose good counts are counts, oldest first: one row for the
// newest w windows for every w from len(counts) down to minWindows, each
// Distance the one a tester computes.
func chainRows(t testing.TB, m, minWindows int, counts ...int) []behavior.SuffixResult {
	t.Helper()
	var rows []behavior.SuffixResult
	for w := len(counts); w >= minWindows; w-- {
		hist := make([]uint32, m+1)
		good := 0
		for _, c := range counts[len(counts)-w:] {
			hist[c]++
			good += c
		}
		s := behavior.SuffixResult{Transactions: w * m, Windows: w, PHat: float64(good) / float64(w*m), Threshold: 0.3}
		s.Distance = testerDistance(t, hist, s.PHat)
		s.Pass = s.Distance <= s.Threshold
		rows = append(rows, s)
	}
	return rows
}

// testerDistance is the distance a behaviour tester computes for the window
// histogram counts against B(len(counts)−1, p).
func testerDistance[C int64 | uint32](t testing.TB, counts []C, p float64) float64 {
	t.Helper()
	pmf := make([]float64, len(counts))
	if err := stats.BinomialPMFInto(pmf, len(counts)-1, p); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += int64(c)
	}
	d, err := stats.L1CountsDistance(counts, total, pmf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// negZero sets the shortest row's Distance to −0.
func negZero(rows []behavior.SuffixResult) []behavior.SuffixResult {
	rows[len(rows)-1].Distance = math.Copysign(0, -1)
	return rows
}

// extremes is n window counts alternating 10 and 0, the newest 10.
func extremes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 10 * ((n - i) % 2)
	}
	return out
}

// TestVerdictChains: which tables are chains — those whose every Distance is
// the one a tester computes — and that every table arrives bit for bit.
// Every table here is keyed too: one threshold, so no grid key meets two.
func TestVerdictChains(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000123)
	base := []int{9, 10, 7, 10, 10, 8, 10, 9}
	chain := func(edit func([]behavior.SuffixResult)) []behavior.SuffixResult {
		rows := chainRows(t, 10, 4, base...)
		edit(rows)
		return rows
	}
	for _, tc := range []struct {
		name string
		rows []behavior.SuffixResult
		want byte
	}{
		{"chain", chain(func([]behavior.SuffixResult) {}), tableChain | tableKeyed},
		{"pass disagrees", chain(func(r []behavior.SuffixResult) { r[2].Pass = !r[2].Pass }), tableChain | tablePass | tableKeyed},
		// A Distance no tester computes keeps the table raw.
		{"distance nan", chain(func(r []behavior.SuffixResult) { r[1].Distance, r[1].Pass = nan, false }), tableKeyed},
		{"shortest distance inf", chain(func(r []behavior.SuffixResult) { r[4].Distance, r[4].Pass = math.Inf(1), false }), tableKeyed},
		{"distance -0", chain(func(r []behavior.SuffixResult) { r[0].Distance, r[0].Pass = math.Copysign(0, -1), true }), tableKeyed},
		{"two rows", chainRows(t, 10, 7, base...), tableChain | tableKeyed},
		{"all good", chainRows(t, 10, 4, 10, 10, 10, 10, 10, 10), tableChain | tableKeyed},
		{"all bad", chainRows(t, 10, 4, 0, 0, 0, 0, 0), tableChain | tableKeyed},
		// The one base rebuilds +0, not the −0 the row holds.
		{"all good, shortest distance -0", negZero(chainRows(t, 10, 1, 10, 10)), tableKeyed},
		{"all bad, shortest distance -0", negZero(chainRows(t, 10, 1, 0, 0)), tableKeyed},
		{"window of one", chainRows(t, 1, 4, 1, 0, 1, 1, 1, 0), tableChain | tableKeyed},
		{"window of 16, byte counts", chainRows(t, 16, 4, 16, 15, 9, 16, 14, 16), tableChain | tableKeyed},
		{"window of 255", chainRows(t, 255, 4, 250, 255, 241, 255, 249), tableChain | tableKeyed},
		{"window of 256", chainRows(t, 256, 4, 250, 255, 241, 255, 249), tableKeyed},
		{"one row", chainRows(t, 10, 8, base...), tableKeyed},
		{"stride 2m", chain(func(r []behavior.SuffixResult) {
			copy(r, []behavior.SuffixResult{r[0], r[2], r[4]})
		})[:3], tableKeyed},
		{"a skipped window", append(chain(func([]behavior.SuffixResult) {})[:2:2], chain(func([]behavior.SuffixResult) {})[3:]...), tableKeyed},
		{"good delta above m", chain(func(r []behavior.SuffixResult) {
			r[0].PHat = float64(75) / 80 // 11 more than the 7 newest windows hold
		}), tableKeyed},
		{"good falls", chain(func(r []behavior.SuffixResult) { r[0].PHat = float64(60) / 80 }), tableKeyed},
		// 40 windows holding 200 good transactions, which spread over them
		// in far more than maxBases ways, half all bad and half all good:
		// eachBase reaches that spread only past the cap.
		{"base search past the cap", chainRows(t, 10, 40, extremes(41)...), tableKeyed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkTable(t, tc.rows); got != tc.want {
				t.Errorf("shape %#x, want %#x", got, tc.want)
			}
		})
	}
}

// TestPredictorGolden pins the bits a chain's receiver rebuilds a Distance
// to, with no distance sent: chain.distance of fixed window histograms, w
// windows and p̂. Receivers on every GOARCH must agree on these bits, so a
// change to them is a change to the wire — it needs a new wire.VersionV2 —
// and this golden is where it shows first on the wire's side.
func TestPredictorGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		hist []uint32
		w    int
		p    float64
		want uint64
	}{
		{"honest", []uint32{0, 0, 0, 0, 0, 0, 0, 1, 4, 15, 30}, 50, 472.0 / 500, 0x3fb67faf9c241a50},
		{"honest, short", []uint32{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3}, 4, 38.0 / 40, 0x3fe4e77a3a11ba37},
		{"below one half", []uint32{1, 4, 6, 5, 3, 1, 0, 0, 0, 0, 0}, 20, 57.0 / 200, 0x3fd028673c9f8520},
		{"one half", []uint32{0, 0, 1, 2, 5, 6, 4, 1, 1, 0, 0}, 20, 0.5, 0x3fcc666666666666},
		{"near zero", []uint32{98, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 100, 1.0 / 500, 0x3f4767b445b434be},
		{"near one", []uint32{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 99}, 100, 999.0 / 1000, 0x3f277fb1e21427aa},
		{"zero", []uint32{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 5, 0, 0},
		{"one", []uint32{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5}, 5, 1, 0},
		{"window of one", []uint32{3, 9}, 12, 0.75, 0},
		{"window of fifteen", []uint32{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3}, 10, 136.0 / 150, 0x3fd13f989e320372},
		{"window of forty", append(make([]uint32, 36), 1, 2, 1, 0, 0), 4, 148.0 / 160, 0x3fe76681b9fde26b},
		{"window of 255", append(make([]uint32, 250), 1, 0, 2, 0, 1, 1), 5, 1270.0 / 1275, 0x3ff12557d1cfa436},
	} {
		c := newChain(len(tc.hist) - 1)
		copy(c.hist, tc.hist)
		if got := math.Float64bits(c.distance(tc.w, tc.p)); got != tc.want {
			t.Errorf("%s: %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// riceCounts is window counts c of a chain of window size m, each as the
// Rice code of m − c with parameter k.
func riceCounts(m, k int, counts ...int) []byte {
	bits := 0
	for _, c := range counts {
		bits += (m-c)>>k + 1 + k
	}
	buf, pos := make([]byte, (bits+7)/8), 0
	for _, c := range counts {
		pos = putRice(buf, pos, m-c, k)
	}
	return buf
}

// TestVerdictChainStrict: a chain is accepted only as its encoder writes it.
func TestVerdictChainStrict(t *testing.T) {
	// Windows of good counts 9, 10, 7, 10, 10, 8, 10, oldest first; rows of
	// 7, 6, 5 and 4 windows.
	rows := chainRows(t, 10, 4, 9, 10, 7, 10, 10, 8, 10)
	sec, good := encodeTable(rows)
	// Base 8 10 10 10, then 7 10 9: m − c is 2 0 0 0 3 0 1, which k = 0
	// writes in 13 bits (k = 1 would take 16) as 110 0 0 0 1110 0 10, low
	// bit first. Then no distance column and no threshold: the binding
	// section binds each of the rows' four grid points to 0.3.
	if !bytes.Equal(good, []byte{4, tableChain | tableKeyed, 7, 10, 0, 0b11000011, 0b01001}) {
		t.Fatalf("chain %x", good)
	}
	binds := map[uint32]float64{}
	for i := range rows {
		binds[rowSlot(&rows[i])] = 0.3
	}
	if want := bindingSection(binds); len(binds) != 4 || !bytes.Equal(sec, want) {
		t.Fatalf("binding section %x, want %x", sec, want)
	}
	if got, err := readTable(sec, good); err != nil || !sameBits(got, rows) {
		t.Fatalf("reference chain: %+v, %v", got, err)
	}
	with := func(at int, b ...byte) []byte {
		return append(append(slices.Clone(good[:at]), b...), good[at+len(b):]...)
	}
	counts := func(k int, c ...int) []byte {
		return slices.Concat(good[:4], []byte{byte(k)}, riceCounts(10, k, c...), good[7:])
	}
	if !bytes.Equal(counts(0, 8, 10, 10, 10, 7, 10, 9), good) {
		t.Fatal("riceCounts does not write what the encoder does")
	}

	raw := slices.Concat([]byte{4, tableKeyed}, appendRawColumns(nil, rows, 0, 10), good[7:])
	for name, bad := range map[string]struct {
		buf  []byte
		want string
	}{
		"truncated":                  {good[:len(good)-1], ""},
		"a unary run past the bytes": {good[:6], "past the payload"},
		"written the long way round": {raw, "shape"},
		"windows below rows":         {with(2, 3), "chain of"},
		"window size zero":           {with(3, 0), "chain of"},
		"window size above 255":      {slices.Concat(good[:3], binary.AppendUvarint(nil, 256), good[4:]), "chain of"},
		"a wrong k":                  {counts(1, 8, 10, 10, 10, 7, 10, 9), "Rice parameter 1 where the encoder writes 0"},
		"k above 7":                  {with(4, 8), "Rice parameter 8"},
		"base out of order":          {counts(0, 10, 8, 10, 10, 7, 10, 9), "out of order"},
		"count below 0":              {with(5, 0xff, 0xff), "below 0"},
		"padding bits set":           {with(6, 0b01001|1<<5), "padding"},
		"counts beyond the bytes":    {[]byte{4, tableChain, 0xc8, 0x01, 10, 0, 0, 0, 0, 0, 0, 0}, "chain of"},
	} {
		if got, err := readTable(sec, bad.buf); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: accepted as %+v, or refused with %v, want %q", name, got, err, bad.want)
		}
	}

	// At p̂ = 1/2 the PMF is symmetric, so windows 0 2 3 3 and their mirror
	// 1 1 2 4 are equally far from it, and so are both with the window of 2
	// the longer row adds: either base rebuilds both rows. The search takes
	// 1 1 2 4; the same rows written from 0 2 3 3 are refused.
	twinSec, twin := encodeTable(chainRows(t, 4, 4, 2, 0, 2, 3, 3))
	if want := slices.Concat([]byte{2, tableChain | tableKeyed, 5, 4, 1}, riceCounts(4, 1, 1, 1, 2, 4, 2)); !bytes.Equal(twin[:7], want) {
		t.Fatalf("twin chain head %x, want %x", twin[:7], want)
	}
	skipped := slices.Concat(twin[:5], riceCounts(4, 1, 0, 2, 3, 3, 2), twin[7:])
	if got, err := readTable(twinSec, skipped); err == nil || !strings.Contains(err.Error(), "chain base") {
		t.Errorf("a base the search skips: %+v, %v", got, err)
	}
}

// allGood is a chain of rows from n windows down to one, every window all
// good.
func allGood(n int) []behavior.SuffixResult {
	rows := make([]behavior.SuffixResult, n)
	for i := range rows {
		w := n - i
		rows[i] = behavior.SuffixResult{Transactions: 10 * w, Windows: w, PHat: 1, Threshold: 0.3, Pass: true}
	}
	return rows
}

// TestVerdictRowsPerFrame: maxFrameRows bounds the rows of all a frame's
// tables together. A batch at the bound round-trips; one row more is
// refused by the encoder as too large, and by the decoder, written anyway,
// before the table past it is allocated.
func TestVerdictRowsPerFrame(t *testing.T) {
	batch := func(rows ...int) AssessBatchResponse {
		var p AssessBatchResponse
		for i, n := range rows {
			a := core.Assessment{Verdict: behavior.Verdict{Honest: true, Suffixes: allGood(n)}}
			p.Items = append(p.Items, AssessBatchItem{Server: feedback.EntityID(fmt.Sprint("s", i)), AssessResponse: AssessResponse{Assessment: a}})
		}
		return p
	}
	half := maxFrameRows / 2
	at := batch(half, maxFrameRows-half)
	if got, size := roundTrip(t, TypeAssessBR, at); !reflect.DeepEqual(got, at) || size > MaxFrame {
		t.Errorf("a batch of %d rows in %d B did not round-trip", maxFrameRows, size)
	}
	over := batch(half, maxFrameRows-half+1)
	var tooLarge *ErrorResponse
	if _, err := V2Codec.Encode(TypeAssessBR, 1, over); !errors.As(err, &tooLarge) || tooLarge.Code != CodeResponseTooLarge {
		t.Errorf("a batch of %d rows: encode err = %v", maxFrameRows+1, err)
	}
	buf, bound, _, err := appendBinaryPayload(nil, over)
	if err != nil {
		t.Fatal(err)
	}
	got := allocatedBy(func() { err = decodeBinaryPayload(TypeAssessBR, buf, bound, new(AssessBatchResponse)) })
	if err == nil || !strings.Contains(err.Error(), "room for") {
		t.Errorf("a batch of %d rows decoded: err = %v", maxFrameRows+1, err)
	}
	if most := uint64(half)*48 + 1<<20; got > most {
		t.Errorf("refusing the second table allocated %d B, want <= %d", got, most)
	}
}
