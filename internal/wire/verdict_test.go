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
			d := getFrameDict()
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
// B, chains with none 1.29 B and 6.65 B, keyed chains 0.73 B and 6.11 B. A
// chain spends a bit or two on each row's window count and nothing on its
// distance; the rest is the thresholds, one for each grid point the rows
// land on, which is why a short table, whose rows change grid point nearly
// every row, pays more per suffix — alone in its frame it shares no literal
// and finds no key bound (TestAssessBatchFrameBytes has the frames a node
// sends).
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
			total += len(encodeTable(v.Suffixes))
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
// B, 202.0 B and 42.2 B: a row whose grid key the frame has bound writes no
// threshold.
func TestAssessBatchFrameBytes(t *testing.T) {
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		servers, records int
		most             float64
	}{{256, 200, 32}, {8, 5000, 390}, {1, 1000, 210}, {64, 200, 44}} {
		var resp AssessBatchResponse
		for i := range tc.servers {
			id := feedback.EntityID(fmt.Sprintf("srv-%d", i))
			rng := stats.NewRNG(uint64(tc.records + i))
			p := 0.90 + 0.09*rng.Float64()
			var h *feedback.History
			switch i % 10 {
			case 3:
				burst := max(tc.records/20, 10)
				h, err = attack.GenHibernating(id, tc.records-burst, p, burst, rng)
			case 7:
				h, err = attack.GenPeriodic(id, tc.records, 10, 0.3, rng)
			default:
				h, err = attack.GenHonest(id, tc.records, p, 50, rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			a, err := tp.Assess(h)
			if err != nil {
				t.Fatal(err)
			}
			resp.Items = append(resp.Items, AssessBatchItem{Server: id, AssessResponse: AssessResponse{Assessment: a, Accept: !a.Suspicious}})
		}
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

// TestTesterTablesAreChains: the tables a multi tester writes — Multi.Test's
// and a ServerAccumulator's — cross as keyed chains, with every Distance
// rebuilt by the receiver and none sent, and a threshold sent only for the
// rows that bind a grid key, on seeded histories: honest ones over the
// benchmark's range of p, a hibernating attacker's and a periodic one's. A
// silent fall-back to raw columns or to threshold runs fails here, not on
// the benchmark.
func TestTesterTablesAreChains(t *testing.T) {
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: testCalibrator()})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := core.NewTwoPhase(multi, trust.Average{})
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
		sa, err := tp.NewServerAccumulator(h.Server())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < h.Len(); i++ {
			sa.Append(h.At(i))
		}
		a, err := sa.Assess()
		if err != nil {
			t.Fatal(err)
		}
		for engine, rows := range map[string][]behavior.SuffixResult{"Multi.Test": v.Suffixes, "accumulator": a.Verdict.Suffixes} {
			if shape := checkTable(t, rows); shape != tableChain|tableKeyed {
				t.Errorf("%s, %s: %d rows in shape %#x, want a keyed chain", name, engine, len(rows), shape)
			}
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

// encodeTable is appendVerdictTable for a table that is a frame of its own.
func encodeTable(rows []behavior.SuffixResult) []byte {
	d := getFrameDict()
	defer d.put()
	return appendVerdictTable(nil, rows, d)
}

// checkTable encodes rows, decodes them back bit for bit, and returns the
// shape the encoder chose.
func checkTable(t testing.TB, rows []behavior.SuffixResult) byte {
	t.Helper()
	enc := encodeTable(rows)
	r := &breader{buf: enc}
	got, err := r.verdictTable()
	if err != nil || len(r.buf) != 0 {
		t.Fatalf("decode of %+v: err %v, %d bytes left", rows, err, len(r.buf))
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

// TestVerdictTableStrict: the decoder takes the encoder's output and nothing
// that merely means the same.
func TestVerdictTableStrict(t *testing.T) {
	f := func(v float64) []byte { return appendFloat(nil, v) }
	lit := func(v float64, run byte) []byte { return slices.Concat([]byte{0}, f(v), []byte{run}) }
	// Two rows on two grid points, so keyed: Transactions 40, 20; Windows 4,
	// 2; good 38, 18. The first row binds its key to a literal, the second
	// its own to a ref to it.
	cols := slices.Concat([]byte{80, 39, 10, 76, 39}, f(0.1), f(0.3))
	table := func(shape byte, rest ...[]byte) []byte {
		return slices.Concat(append([]byte{2, shape}, cols...), slices.Concat(rest...))
	}
	keyed := slices.Concat([]byte{0}, f(0.2), []byte{1})
	good := table(tableKeyed, keyed)
	if rows, err := (&breader{buf: good}).verdictTable(); err != nil || len(rows) != 2 || rows[1].PHat != 0.9 || rows[1].Pass || rows[1].Threshold != 0.2 {
		t.Fatalf("reference table: %+v, %v", rows, err)
	}
	// Three rows whose first two are one grid point — 7 and 6 windows share
	// a bucket, and each row is 90 % good — under two thresholds, so
	// threshold runs: Transactions 70, 60, 50; good 63, 54, 45.
	runs := func(rest ...[]byte) []byte {
		return slices.Concat([]byte{3, 0, 0x8c, 0x01, 19, 19, 10, 126, 17, 17}, f(0.1), f(0.3), f(0.5), slices.Concat(rest...))
	}
	goodRuns := runs(lit(0.2, 1), lit(0.3, 2))
	if rows, err := (&breader{buf: goodRuns}).verdictTable(); err != nil || len(rows) != 3 || rows[2].Threshold != 0.3 || rows[2].Pass {
		t.Fatalf("reference runs: %+v, %v", rows, err)
	}
	for name, bad := range map[string][]byte{
		"truncated":              good[:len(good)-1],
		"unknown shape bit":      table(32|tableKeyed, keyed),
		"windows the long way":   slices.Concat([]byte{2, tableWindows, 80, 39, 8, 3, 76, 39}, f(0.1), f(0.3), lit(0.2, 2)),
		"phat the long way":      slices.Concat([]byte{2, tablePHat, 80, 39, 10}, f(0.95), f(0.9), f(0.1), f(0.3), lit(0.2, 2)),
		"pass the long way":      table(tablePass|tableKeyed, keyed, []byte{1}),
		"window size zero":       slices.Concat([]byte{2, tableKeyed, 80, 39, 0, 76, 39}, f(0.1), f(0.3), keyed),
		"window size not exact":  slices.Concat([]byte{2, tableKeyed, 80, 39, 7, 76, 39}, f(0.1), f(0.3), keyed),
		"good above transaction": slices.Concat([]byte{2, tableKeyed, 80, 39, 10, 90, 39}, f(0.1), f(0.3), keyed),
		"long varint":            slices.Concat([]byte{2, tableKeyed, 0xd0, 0x00, 39, 10, 76, 39}, f(0.1), f(0.3), keyed),
		"count beyond the bytes": {200, 0, 80, 39},
		// Keyed thresholds.
		"runs that would key":             table(0, lit(0.2, 2)),
		"keyed with windows the long way": slices.Concat([]byte{2, tableWindows | tableKeyed, 80, 39, 8, 3, 76, 39}, f(0.1), f(0.3), keyed),
		"keyed with phat the long way":    slices.Concat([]byte{2, tablePHat | tableKeyed, 80, 39, 10}, f(0.95), f(0.9), f(0.1), f(0.3), keyed),
		"a keyed literal already listed":  table(tableKeyed, []byte{0}, f(0.2), []byte{0}, f(0.2)),
		"a keyed ref past the list":       table(tableKeyed, []byte{0}, f(0.2), []byte{2}),
		"a keyed ref to an empty list":    table(tableKeyed, []byte{1, 1}),
		"a long keyed ref":                table(tableKeyed, []byte{0}, f(0.2), []byte{0x81, 0x00}),
		// Threshold runs.
		"threshold runs split":     runs(lit(0.2, 1), lit(0.3, 1), []byte{2, 1}),
		"a literal already listed": runs(lit(0.2, 1), lit(0.3, 1), lit(0.3, 1)),
		"a ref past the list":      runs(lit(0.2, 1), []byte{2, 2}),
		"a ref to an empty list":   runs([]byte{1, 1}, lit(0.3, 2)),
		"threshold run of zero":    runs(lit(0.2, 0), lit(0.3, 2)),
		"threshold run too long":   runs(lit(0.2, 1), lit(0.3, 3)),
		"runs cut short":           runs(lit(0.2, 1), lit(0.3, 1)),
	} {
		if rows, err := (&breader{buf: bad}).verdictTable(); err == nil {
			t.Errorf("%s: accepted as %+v", name, rows)
		}
	}
	// Padding bits of the pass bitmap.
	odd := []behavior.SuffixResult{{Transactions: 10, Windows: 1, PHat: 0.5, Distance: 1, Pass: true}}
	enc := encodeTable(odd)
	enc[len(enc)-1] |= 0x80
	if _, err := (&breader{buf: enc}).verdictTable(); err == nil {
		t.Error("set padding bits accepted")
	}
}

// TestThresholdDictionary: a frame writes each threshold's bits once, and
// every later value that holds them, in its own table or another, names the
// literal by its place; a row whose grid key the frame has bound writes no
// threshold at all. The dictionaries are the frame's: a table read alone
// cannot refer into another's, and a new frame starts empty.
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
	d := getFrameDict()
	defer d.put()
	one := appendVerdictTable(nil, first, d)
	two := appendVerdictTable(nil, second, d)
	// first: literal 0.3, literal 0.25, ref 2, ref 1. second: its first two
	// rows are bound, then ref 2, ref 1.
	if want := slices.Concat([]byte{0}, appendFloat(nil, 0.3), []byte{0}, appendFloat(nil, 0.25), []byte{2, 1}); !bytes.HasSuffix(one, want) {
		t.Errorf("first table's thresholds: %x, want a suffix %x", one, want)
	}
	// The second table's chain is 7 B: row count, shape, windows, m, k and
	// two bytes of counts.
	if want := []byte{tableChain | tableKeyed, 5, 10}; !bytes.Equal(two[1:4], want) {
		t.Errorf("second table's head: %x, want %x after the row count", two[:4], want)
	}
	if want := []byte{2, 1}; len(two) != 7+len(want) || !bytes.HasSuffix(two, want) {
		t.Errorf("second table: %x, want its chain and then %x", two, want)
	}
	r := &breader{buf: slices.Concat(one, two)}
	defer r.release()
	for i, want := range [][]behavior.SuffixResult{first, second} {
		if got, err := r.verdictTable(); err != nil || !sameBits(got, want) {
			t.Fatalf("table %d of the frame: %+v, %v", i, got, err)
		}
	}
	if got, err := (&breader{buf: two}).verdictTable(); err == nil || !strings.Contains(err.Error(), "past the frame") {
		t.Errorf("the second table alone: %+v, %v", got, err)
	}
	// Through the codec: the batch repeats one table in every item, so every
	// item after the first finds its keys bound and writes no threshold.
	a := core.Assessment{Server: "s0", Verdict: behavior.Verdict{Suffixes: first}}
	var batch AssessBatchResponse
	for i := range 4 {
		a.Server = feedback.EntityID(fmt.Sprint("s", i))
		batch.Items = append(batch.Items, AssessBatchItem{Server: a.Server, AssessResponse: AssessResponse{Assessment: a}})
	}
	got, size := roundTrip(t, TypeAssessBR, batch)
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("batch changed on the wire: %+v", got)
	}
	// Each item after the first writes none of the two literals (a 0 and 8
	// B of bits each) and two refs the first writes, and its names not at
	// all, not as two empty strings; the batch writes its item count once.
	_, alone := roundTrip(t, TypeAssessBR, AssessBatchResponse{Items: batch.Items[:1]})
	if want := 4*alone - 3 - 3*(2*9+2) - 3*2; size != want {
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
		got := allocatedBy(func() { err = decodeBinaryPayload(tc.typ, tc.frame, tc.dest) })
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
	good := encodeTable(rows)
	// Base 8 10 10 10, then 7 10 9: m − c is 2 0 0 0 3 0 1, which k = 0
	// writes in 13 bits (k = 1 would take 16) as 110 0 0 0 1110 0 10, low
	// bit first.
	if !bytes.Equal(good[:7], []byte{4, tableChain | tableKeyed, 7, 10, 0, 0b11000011, 0b01001}) {
		t.Fatalf("chain head %x", good[:7])
	}
	// Then no distance column, and one threshold for each of the rows' four
	// grid points: a literal, then three refs to it.
	if want := slices.Concat([]byte{0}, appendFloat(nil, 0.3), []byte{1, 1, 1}); !bytes.Equal(good[7:], want) {
		t.Fatalf("chain of %d B: %x", len(good), good)
	}
	if got, err := (&breader{buf: good}).verdictTable(); err != nil || !sameBits(got, rows) {
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
		if got, err := (&breader{buf: bad.buf}).verdictTable(); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: accepted as %+v, or refused with %v, want %q", name, got, err, bad.want)
		}
	}

	// At p̂ = 1/2 the PMF is symmetric, so windows 0 2 3 3 and their mirror
	// 1 1 2 4 are equally far from it, and so are both with the window of 2
	// the longer row adds: either base rebuilds both rows. The search takes
	// 1 1 2 4; the same rows written from 0 2 3 3 are refused.
	twin := encodeTable(chainRows(t, 4, 4, 2, 0, 2, 3, 3))
	if want := slices.Concat([]byte{2, tableChain | tableKeyed, 5, 4, 1}, riceCounts(4, 1, 1, 1, 2, 4, 2)); !bytes.Equal(twin[:7], want) {
		t.Fatalf("twin chain head %x, want %x", twin[:7], want)
	}
	skipped := slices.Concat(twin[:5], riceCounts(4, 1, 0, 2, 3, 3, 2), twin[7:])
	if got, err := (&breader{buf: skipped}).verdictTable(); err == nil || !strings.Contains(err.Error(), "chain base") {
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
	buf, _, err := appendBinaryPayload(nil, over)
	if err != nil {
		t.Fatal(err)
	}
	got := allocatedBy(func() { err = decodeBinaryPayload(TypeAssessBR, buf, new(AssessBatchResponse)) })
	if err == nil || !strings.Contains(err.Error(), "room for") {
		t.Errorf("a batch of %d rows decoded: err = %v", maxFrameRows+1, err)
	}
	if most := uint64(half)*48 + 1<<20; got > most {
		t.Errorf("refusing the second table allocated %d B, want <= %d", got, most)
	}
}
