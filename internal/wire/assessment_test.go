package wire

import (
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// TestAssessmentHeader: every assessment the builder makes crosses as its
// counts. Under the average trust function the header is the flags byte and
// the two counts, with the names once per frame — literal in a frame of its
// own, each a 0 byte and the string; a trust function whose
// value is not Good/Records pays its own 8 B and no more; suspicious and
// short assessments derive their zeros. None costs more than revision 9's
// flags byte, three floats and two names.
func TestAssessmentHeader(t *testing.T) {
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: testCalibrator()})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := trust.NewWeighted(0.9)
	if err != nil {
		t.Fatal(err)
	}
	assessors := map[string]*core.TwoPhase{}
	for name, build := range map[string]func() (*core.TwoPhase, error){
		"multi+average":  func() (*core.TwoPhase, error) { return core.NewTwoPhase(multi, trust.Average{}) },
		"multi+weighted": func() (*core.TwoPhase, error) { return core.NewTwoPhase(multi, weighted) },
		"multi+beta":     func() (*core.TwoPhase, error) { return core.NewTwoPhase(multi, trust.Beta{}) },
		"average":        func() (*core.TwoPhase, error) { return core.NewTwoPhase(nil, trust.Average{}) },
		"multi+average+short": func() (*core.TwoPhase, error) {
			return core.NewTwoPhase(multi, trust.Average{}, core.WithShortHistoryPolicy(core.AllowShort))
		},
	} {
		if assessors[name], err = build(); err != nil {
			t.Fatal(err)
		}
	}
	periodic, err := attack.GenPeriodic("srv", 200, 10, 0.3, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	histories := map[string]*feedback.History{
		"honest":   honestHistory(t, "srv", 200, 0.93, 3),
		"periodic": periodic,
		"short":    honestHistory(t, "srv", 12, 0.9, 1),
	}
	for aname, tp := range assessors {
		for hname, h := range histories {
			a, err := tp.Assess(h)
			if err != nil {
				t.Fatalf("%s on %s: %v", aname, hname, err)
			}
			if a.Records != h.Len() || a.Good != h.GoodCount() {
				t.Errorf("%s on %s: counts %d/%d, want %d/%d", aname, hname, a.Good, a.Records, h.GoodCount(), h.Len())
			}
			resp := AssessResponse{Assessment: a, Accept: !a.Suspicious}
			if got, _ := roundTrip(t, TypeAssessR, resp); !reflect.DeepEqual(got, resp) {
				t.Errorf("%s on %s:\n got %+v\nwant %+v", aname, hname, got, resp)
			}

			a.Verdict = behavior.Verdict{}
			d := loneDict()
			first := len(appendAssessment(nil, a, a.Server, d))
			again := len(appendAssessment(nil, a, a.Server, d))
			d.put()
			raw := len(appendString(appendString(nil, a.Tester), a.TrustFunc))
			names := len(appendLiteral(appendLiteral(nil, a.Tester), a.TrustFunc))
			counts := len(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(a.Records)), uint64(a.Good)))
			want := 1 + counts
			if !a.Suspicious && a.Trust != float64(a.Good)/float64(a.Records) {
				want += 8
			}
			if strings.HasSuffix(aname, "average") || strings.HasSuffix(aname, "short") {
				if want != 1+counts {
					t.Errorf("%s on %s: trust %v is not %d/%d", aname, hname, a.Trust, a.Good, a.Records)
				}
			}
			if first != want+names || again != want {
				t.Errorf("%s on %s: header %d B, then %d B; want %d + %d B of names, then %d B", aname, hname, first, again, want, names, want)
			}
			if rev9 := 1 + 3*8 + raw; first > rev9 {
				t.Errorf("%s on %s: header %d B, above revision 9's %d B", aname, hname, first, rev9)
			}
		}
	}
}

// TestAssessmentHeaderStrict: the decoder accepts a header only in the one
// form the encoder writes — no raw float that its counts derive, no more
// good records than records, no names a frame already holds written out
// again, and no reference to names before any were written.
func TestAssessmentHeaderStrict(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	names := appendLiteral(appendLiteral(nil, "multi"), "average")
	lo, hi, err := core.TrustInterval(180, 200)
	if err != nil {
		t.Fatal(err)
	}
	// resp is an assess.resp payload: no response flags, then the header.
	resp := func(flags byte, fields ...[]byte) []byte {
		return slices.Concat(append([][]byte{{0, flags}}, fields...)...)
	}
	// batch is an assess.batch.resp of two items whose assessments have the
	// flags and fields given.
	batch := func(first, second []byte) []byte {
		return slices.Concat([]byte{2}, appendLiteral(nil, "a"), []byte{0}, first, appendLiteral(nil, "b"), []byte{0}, second)
	}
	named := resp(asmtFlagNames, uv(200), uv(180), names)
	for _, tc := range []struct {
		name    string
		typ     MsgType
		payload []byte
		refusal string // "" for a payload that must be accepted
	}{
		{"counts and names", TypeAssessR, named, ""},
		{"raw trust that derives", TypeAssessR, resp(asmtFlagNames|asmtFlagTrust, uv(200), uv(180), appendFloat(nil, 180.0/200), names), "derives"},
		{"raw trust that does not", TypeAssessR, resp(asmtFlagNames|asmtFlagTrust, uv(200), uv(180), appendFloat(nil, 0.5), names), ""},
		{"raw zero trust of a suspicious server", TypeAssessR, resp(asmtFlagSuspicious|asmtFlagNames|asmtFlagTrust, uv(200), uv(180), appendFloat(nil, 0), names), "derives"},
		{"raw bounds that derive", TypeAssessR, resp(asmtFlagNames|asmtFlagBounds, uv(200), uv(180), appendFloat(nil, lo), appendFloat(nil, hi), names), "derives"},
		{"raw bounds, one that does not", TypeAssessR, resp(asmtFlagNames|asmtFlagBounds, uv(200), uv(180), appendFloat(nil, lo), appendFloat(nil, 1), names), ""},
		{"floats over no records", TypeAssessR, resp(asmtFlagNames|asmtFlagTrust|asmtFlagBounds, uv(0), uv(0), appendFloat(nil, 0.9), appendFloat(nil, 0.8), appendFloat(nil, 0.95), names), ""},
		{"more good records than records", TypeAssessR, resp(asmtFlagNames, uv(10), uv(11), names), "good records out of"},
		{"records past an int32", TypeAssessR, resp(asmtFlagNames, uv(1<<31), uv(0), names), "out of range"},
		{"the same names first", TypeAssessR, resp(0, uv(200), uv(180)), "names of none"},
		{"the same names after", TypeAssessBR, batch(named, resp(0, uv(200), uv(180))), ""},
		{"names repeated as a literal", TypeAssessBR, batch(named, named), "repeat the previous"},
		{"other names after", TypeAssessBR, batch(named, resp(asmtFlagNames, uv(200), uv(180), appendLiteral(appendLiteral(nil, "multi"), "beta"))), ""},
	} {
		var out any = new(AssessResponse)
		if tc.typ == TypeAssessBR {
			out = new(AssessBatchResponse)
		}
		err := decodeBinaryPayload(tc.typ, tc.payload, false, out)
		switch {
		case tc.refusal == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refusal != "" && (err == nil || !strings.Contains(err.Error(), tc.refusal)):
			t.Errorf("%s: err = %v, want a refusal naming %q", tc.name, err, tc.refusal)
		case err == nil:
			if again, _, _, err := appendBinaryPayload(nil, out); err != nil || !slices.Equal(again, tc.payload) {
				t.Errorf("%s: accepted %x, which encodes as %x (%v)", tc.name, tc.payload, again, err)
			}
		}
	}
	var got AssessResponse
	if err := decodeBinaryPayload(TypeAssessR, named, false, &got); err != nil {
		t.Fatal(err)
	}
	want := core.Assessment{Trust: 0.9, TrustLow: lo, TrustHigh: hi, Records: 200, Good: 180, Tester: "multi", TrustFunc: "average"}
	if !reflect.DeepEqual(got.Assessment, want) {
		t.Errorf("counts decode as %+v, want %+v", got.Assessment, want)
	}
}

// TestSubmitBatchResponseItemsOnly: a submit.batch.resp crosses as its items,
// one kind byte each and an error body for a refused record; the totals are
// the receiver's to derive (NewBatchResponse). The binary form refuses a
// response whose totals are not its items', which no byte of it could
// carry, so such a response rides as JSON.
func TestSubmitBatchResponseItemsOnly(t *testing.T) {
	items := []SubmitBatchItem{
		{Stored: true},
		{},
		{Error: &ErrorResponse{Code: CodeUnavailable, Message: "owner n2 down"}},
		{Stored: true},
	}
	resp := NewBatchResponse(items)
	want := BatchResponse{Stored: 2, Duplicates: 1, Rejected: []BatchReject{{Index: 2, Reason: "owner n2 down"}}, Items: items}
	if !reflect.DeepEqual(resp, want) {
		t.Fatalf("NewBatchResponse = %+v, want %+v", resp, want)
	}
	got, size := roundTrip(t, TypeSubmitBR, resp)
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("the report changed on the wire: %+v", got)
	}
	if want := 1 + 4 + len(appendErrorResponse(nil, *items[2].Error)); size != want {
		t.Errorf("%d items in %d B, want %d", len(items), size, want)
	}
	for name, bad := range map[string]BatchResponse{
		"a count without items":    {Stored: 3},
		"a duplicate counted":      {Stored: 2, Duplicates: 2, Rejected: resp.Rejected, Items: items},
		"a rejection unlisted":     {Stored: 2, Duplicates: 1, Items: items},
		"a reason not the message": {Stored: 2, Duplicates: 1, Rejected: []BatchReject{{Index: 2, Reason: "unavailable: owner n2 down"}}, Items: items},
		"a rejection misplaced":    {Stored: 2, Duplicates: 1, Rejected: []BatchReject{{Index: 1, Reason: "owner n2 down"}}, Items: items},
	} {
		if _, _, _, err := appendBinaryPayload(nil, bad); err == nil {
			t.Errorf("%s: totals that disagree with the items encoded", name)
		}
		// What the binary form refuses rides as JSON, which carries it.
		env, err := V2Codec.Encode(TypeSubmitBR, 1, bad)
		var back BatchResponse
		if err != nil || env.Binary || DecodePayload(env, &back) != nil || !reflect.DeepEqual(back, bad) {
			t.Errorf("%s: binary=%v err=%v, decoded %+v", name, env.Binary, err, back)
		}
	}
}
