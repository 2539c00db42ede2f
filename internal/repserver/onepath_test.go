package repserver

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/repclient"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// memLoader loads evicted servers from records held in memory — what
// ledger.PersistentStore does from disk, for a store-only recorder.
func memLoader(recs map[feedback.EntityID][]feedback.Feedback) store.Loader {
	return func(id feedback.EntityID) (*feedback.History, error) { return historyOf(id, recs[id]) }
}

// errNoCopy is the loader failure of a node whose durable copy is gone.
var errNoCopy = errors.New("no durable copy")

// historyOf is recs, all of one server, appended one by one.
func historyOf(server feedback.EntityID, recs []feedback.Feedback) (*feedback.History, error) {
	h := feedback.NewHistory(server)
	for i, f := range recs {
		if err := h.Append(f); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return h, nil
}

// TestSingleSubmitFaultsIn: a single submit to an evicted server is stored
// through the same fault-in retry a batch gets. Before a single submit was a
// batch of one it answered invalid_feedback here.
func TestSingleSubmitFaultsIn(t *testing.T) {
	st := store.New()
	recs := map[feedback.EntityID][]feedback.Feedback{}
	st.SetBudget(1<<30, memLoader(recs))
	for i := 0; i < 5; i++ {
		f := rec("cold", "alice", true, int64(i+1))
		if _, err := st.Add(f); err != nil {
			t.Fatal(err)
		}
		recs["cold"] = append(recs["cold"], f)
	}
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { _ = srv.Close() })
	if !st.EvictServer("cold") {
		t.Fatal("server did not evict")
	}

	stored, err := dial(t, srv).Submit(rec("cold", "bob", false, 100))
	if err != nil || !stored {
		t.Fatalf("single submit to an evicted server: stored=%v err=%v", stored, err)
	}
	if got := st.ServerLen("cold"); got != 6 {
		t.Fatalf("server holds %d records after fault-in + submit, want 6", got)
	}
	if got := srv.Metrics().Value("lifecycle.reinstates"); got != uint64(1) {
		t.Fatalf("reinstates = %v, want 1", got)
	}
}

// failingRecorder fails every record the way ledger.PersistentStore does
// when its ledger append fails after the store accepted the record.
type failingRecorder struct{}

func (failingRecorder) Apply(b *feedback.Batch, _ int) []store.AddResult {
	out := make([]store.AddResult, b.Len())
	for i := range out {
		out[i].Err = fmt.Errorf("stored in memory but not persisted: %w", errors.New("disk full"))
	}
	return out
}

// TestRecorderFailureIsInternal: a valid record the node fails to store is
// reported as internal, in a single submit and in a batch item alike — not
// as invalid_feedback, which tells the client its record is malformed.
func TestRecorderFailureIsInternal(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t), Recorder: failingRecorder{}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { _ = srv.Close() })
	c := dial(t, srv)
	if _, err := c.Submit(rec("s", "alice", true, 1)); codeOf(t, err) != wire.CodeInternal {
		t.Fatalf("single submit answered %v, want %s", err, wire.CodeInternal)
	}
	resp, err := c.SubmitBatchReport([]feedback.Feedback{rec("s", "bob", true, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if e := resp.Items[0].Error; e == nil || e.Code != wire.CodeInternal {
		t.Fatalf("batch item answered %+v, want %s", e, wire.CodeInternal)
	}
}

// outcome is what a client can observe of one submit or assess, however it
// was framed.
type outcome struct {
	Stored  bool
	Verdict wire.AssessResponse
	Code    string // error code; "" on success
}

func codeOf(t *testing.T, err error) string {
	t.Helper()
	var remote *wire.ErrorResponse
	if !errors.As(err, &remote) {
		t.Fatalf("untyped error: %v", err)
	}
	return remote.Code
}

// onePathSteps is the request sequence of TestSingleEqualsBatchOfOne. Steps
// run in order against a fresh deployment per framing, so "duplicate" sees
// the record "fresh" stored.
var onePathSteps = []struct {
	name   string
	assess bool
	server string // suffix-less role: resolved per deployment
	rec    func(server feedback.EntityID) feedback.Feedback
	want   string
}{
	{name: "submit fresh", server: "warm", rec: func(s feedback.EntityID) feedback.Feedback { return rec(s, "zed", false, 5000) }},
	{name: "submit duplicate", server: "warm", rec: func(s feedback.EntityID) feedback.Feedback { return rec(s, "zed", false, 5000) }},
	{name: "submit invalid", server: "warm", rec: func(s feedback.EntityID) feedback.Feedback { return feedback.Feedback{Server: s, Client: "zed"} }, want: wire.CodeInvalidFeedback},
	// Unix nanoseconds cannot carry year 2300: stored, it would be hashed and
	// persisted as 1715 yet ordered as 2300 until the next restart.
	{name: "submit out-of-range time", server: "warm", rec: func(s feedback.EntityID) feedback.Feedback {
		return feedback.Feedback{Time: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), Server: s, Client: "zed", Rating: feedback.Positive}
	}, want: wire.CodeInvalidFeedback},
	{name: "submit evicted, load fails", server: "cold", rec: func(s feedback.EntityID) feedback.Feedback { return rec(s, "zed", true, 5001) }, want: wire.CodeUnavailable},
	{name: "assess known", assess: true, server: "warm"},
	{name: "assess unknown", assess: true, server: "ghost", want: wire.CodeUnknownServer},
	{name: "assess missing server", assess: true, server: "", want: wire.CodeBadRequest},
	{name: "assess evicted, load fails", assess: true, server: "cold", want: wire.CodeUnavailable},
}

// TestSingleEqualsBatchOfOne sends the same submits and assesses as single
// frames and as batches of one — in both codecs, to a single node and
// through a door of a 3-node cluster that holds none of the servers — and
// requires the same stored flags, verdicts and error codes.
func TestSingleEqualsBatchOfOne(t *testing.T) {
	cfg := func() Config { return Config{Assessor: testAssessor(t)} }
	deployments := []struct {
		name  string
		start func(t *testing.T) []*Server // door first
	}{
		{"single node", func(t *testing.T) []*Server { return []*Server{startServer(t)} }},
		{"cluster non-owner door", func(t *testing.T) []*Server { return startCluster(t, 3, 2, cfg) }},
	}
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			eachFraming(t, func(t *testing.T, connect func(*Server) *repclient.Client) {
				single := runOnePath(t, d.start(t), connect, false)
				batch := runOnePath(t, d.start(t), connect, true)
				for i, step := range onePathSteps {
					if single[i].Code != step.want {
						t.Errorf("%s: single frame answered code %q, want %q", step.name, single[i].Code, step.want)
					}
					if !reflect.DeepEqual(single[i], batch[i]) {
						t.Errorf("%s: single frame and batch of one differ:\n single %+v\n batch  %+v", step.name, single[i], batch[i])
					}
				}
				if !single[0].Stored || single[1].Stored {
					t.Errorf("stored flags: fresh=%v duplicate=%v, want true, false", single[0].Stored, single[1].Stored)
				}
			})
		})
	}
}

// runOnePath seeds a deployment through its door — a "warm" server with
// history, a "cold" one evicted wherever it is held, by nodes whose loader
// fails — then plays onePathSteps as single frames or as batches of one.
func runOnePath(t *testing.T, servers []*Server, connect func(*Server) *repclient.Client, asBatch bool) []outcome {
	t.Helper()
	door := servers[0]
	// On a cluster, use server IDs the door neither owns nor replicates, so
	// every request leaves it.
	role := func(name string) feedback.EntityID {
		if name == "" {
			return ""
		}
		for i := 0; ; i++ {
			id := feedback.EntityID(fmt.Sprintf("%s-%d", name, i))
			if cl := door.Cluster(); cl == nil || !cl.Owns(id) {
				return id
			}
		}
	}
	c := connect(door)
	var seed []feedback.Feedback
	for i := 0; i < 40; i++ {
		seed = append(seed, rec(role("warm"), feedback.EntityID(fmt.Sprintf("c%d", i%7)), i%5 != 0, int64(i+1)))
		seed = append(seed, rec(role("cold"), feedback.EntityID(fmt.Sprintf("c%d", i%7)), true, int64(i+1)))
	}
	if stored, _, err := c.SubmitBatch(seed); err != nil || stored != len(seed) {
		t.Fatalf("seed: stored %d of %d: %v", stored, len(seed), err)
	}
	evicted := 0
	for _, srv := range servers {
		srv.Store().SetBudget(0, func(feedback.EntityID) (*feedback.History, error) { return nil, errNoCopy })
		if srv.Store().EvictServer(role("cold")) {
			evicted++
		}
	}
	if want := min(len(servers), 2); evicted != want {
		t.Fatalf("evicted %q on %d nodes, want %d", role("cold"), evicted, want)
	}

	out := make([]outcome, len(onePathSteps))
	for i, step := range onePathSteps {
		id := role(step.server)
		switch {
		case step.assess && !asBatch:
			resp, err := c.Assess(id, 0.7)
			if err != nil {
				out[i].Code = codeOf(t, err)
			} else {
				out[i].Verdict = resp
			}
		case step.assess:
			items, err := c.AssessBatch([]feedback.EntityID{id}, 0.7)
			if err != nil {
				t.Fatalf("%s: batch frame failed whole: %v", step.name, err)
			}
			if items[0].Error != nil {
				out[i].Code = items[0].Error.Code
			} else {
				out[i].Verdict = items[0].AssessResponse
			}
		case !asBatch:
			stored, err := c.Submit(step.rec(id))
			if err != nil {
				out[i].Code = codeOf(t, err)
			}
			out[i].Stored = stored
		default:
			resp, err := c.SubmitBatchReport([]feedback.Feedback{step.rec(id)})
			if err != nil {
				t.Fatalf("%s: batch frame failed whole: %v", step.name, err)
			}
			if resp.Items[0].Error != nil {
				out[i].Code = resp.Items[0].Error.Code
			}
			out[i].Stored = resp.Items[0].Stored
		}
	}
	return out
}
