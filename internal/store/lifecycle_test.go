package store

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"honestplayer/internal/feedback"
	"honestplayer/internal/metrics"
)

// fillServer adds n records for server s and returns them in store order.
func fillServer(t *testing.T, st *Store, s feedback.EntityID, n int) []feedback.Feedback {
	t.Helper()
	recs := make([]feedback.Feedback, n)
	for i := 0; i < n; i++ {
		recs[i] = rec(s, feedback.EntityID(fmt.Sprintf("c%d", i%5)), i%3 != 0, int64(i+1))
		if ok, err := st.Add(recs[i]); err != nil || !ok {
			t.Fatalf("add %s/%d: %v %v", s, i, ok, err)
		}
	}
	return recs
}

func TestEvictReinstateRoundTrip(t *testing.T) {
	st := New()
	recs := fillServer(t, st, "srv", 7)
	wantHist, wantVer := st.Snapshot("srv")
	wantBytes := st.ResidentBytes()

	if !st.EvictServer("srv") {
		t.Fatal("EvictServer returned false for a resident server")
	}
	if st.EvictServer("srv") {
		t.Fatal("second EvictServer must be a no-op")
	}
	stub, ok := st.StubOf("srv")
	if !ok {
		t.Fatal("StubOf after evict: not found")
	}
	if stub.Count != 7 || stub.Version != wantVer {
		t.Fatalf("stub = %+v, want count 7 version %d", stub, wantVer)
	}
	if h, v := st.Snapshot("srv"); h != nil || v != wantVer {
		t.Fatalf("Snapshot(evicted) = (%v, %d), want (nil, %d)", h, v, wantVer)
	}
	if _, err := st.History("srv"); !errors.Is(err, ErrEvicted) {
		t.Fatalf("History(evicted) err = %v, want ErrEvicted", err)
	}
	if _, err := st.Add(recs[0]); !errors.Is(err, ErrEvicted) {
		t.Fatalf("Add to evicted err = %v, want ErrEvicted", err)
	}
	if st.ResidentBytes() >= wantBytes {
		t.Fatalf("resident bytes %d not reduced from %d by eviction", st.ResidentBytes(), wantBytes)
	}
	life := lifecycle(st)
	if life["resident"] != 0 || life["evicted"] != 1 || life["evictions"] != 1 {
		t.Fatalf("lifecycle after evict = %v", life)
	}

	if err := st.ReinstateServer(histOf(t, "srv", recs)); err != nil {
		t.Fatalf("reinstate: %v", err)
	}
	gotHist, gotVer := st.Snapshot("srv")
	if gotVer != wantVer {
		t.Fatalf("version after reinstate = %d, want %d (cache keys must survive)", gotVer, wantVer)
	}
	if !reflect.DeepEqual(gotHist.Records(), wantHist.Records()) {
		t.Fatal("reinstated history differs from pre-eviction history")
	}
	// Dedup index must be restored: re-adding an old record is a duplicate,
	// a genuinely new one lands.
	if ok, err := st.Add(recs[3]); err != nil || ok {
		t.Fatalf("re-add of reinstated record = (%v, %v), want dup", ok, err)
	}
	if ok, err := st.Add(rec("srv", "c9", true, 99)); err != nil || !ok {
		t.Fatalf("new add after reinstate = (%v, %v)", ok, err)
	}
	if life := lifecycle(st); life["reinstates"] != 1 || life["evicted"] != 0 {
		t.Fatalf("lifecycle after reinstate = %v", life)
	}
}

func TestReinstateRejectsWrongRecords(t *testing.T) {
	st := New()
	recs := fillServer(t, st, "srv", 5)
	st.EvictServer("srv")

	if err := st.ReinstateServer(histOf(t, "srv", recs[:4])); err == nil {
		t.Fatal("reinstate with missing record must fail")
	}
	tampered := append([]feedback.Feedback(nil), recs...)
	tampered[2].Rating = 3 - tampered[2].Rating // positive ↔ negative
	if err := st.ReinstateServer(histOf(t, "srv", tampered)); err == nil {
		t.Fatal("reinstate with tampered record must fail the XOR digest")
	}
	shuffled := append([]feedback.Feedback(nil), recs...)
	shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
	if err := st.ReinstateServer(histOf(t, "srv", shuffled)); err == nil {
		t.Fatal("reinstate with out-of-order records must fail")
	}
	if err := st.ReinstateServer(histOf(t, "nosuch", []feedback.Feedback{rec("nosuch", "c", true, 1)})); err == nil {
		t.Fatal("reinstate of unknown server must fail")
	}
	// The failed attempts must not have mutated the stub.
	if err := st.ReinstateServer(histOf(t, "srv", recs)); err != nil {
		t.Fatalf("correct reinstate after rejected attempts: %v", err)
	}
}

func TestBudgetEnforced(t *testing.T) {
	st := NewSharded(4)
	for i := 0; i < 64; i++ {
		fillServer(t, st, feedback.EntityID(fmt.Sprintf("s%02d", i)), 6)
	}
	full := st.ResidentBytes()
	budget := full / 4
	st.SetBudget(budget)
	if got := st.ResidentBytes(); got > budget {
		t.Fatalf("SetBudget did not trim: resident %d > budget %d", got, budget)
	}
	life := lifecycle(st)
	if life["evicted"] == 0 || life["resident"]+life["evicted"] != 64 {
		t.Fatalf("lifecycle after trim = %v", life)
	}
	// New writes to resident servers keep the store under budget via the
	// synchronous sweep.
	for i := 0; i < 64; i++ {
		id := feedback.EntityID(fmt.Sprintf("s%02d", i))
		if _, err := st.Add(rec(id, "cx", true, 1000+int64(i))); errors.Is(err, ErrEvicted) {
			continue
		} else if err != nil {
			t.Fatalf("add under budget: %v", err)
		}
		if got := st.ResidentBytes(); got > budget {
			t.Fatalf("write pushed store over budget: %d > %d", got, budget)
		}
	}
	stubs := 0
	for _, srv := range st.Servers() {
		if _, ok := st.StubOf(srv); ok {
			stubs++
		}
	}
	if evicted := lifecycle(st)["evicted"]; int64(stubs) != evicted {
		t.Fatalf("%d stubs != evicted count %d", stubs, evicted)
	}
}

// TestBudgetChargesSharedBytes: memory that serves every server at once is
// charged to the budget as a term eviction cannot shrink — the servers get
// what it leaves, and a growing shared term evicts them on the next write.
func TestBudgetChargesSharedBytes(t *testing.T) {
	st := NewSharded(4)
	for i := 0; i < 64; i++ {
		fillServer(t, st, feedback.EntityID(fmt.Sprintf("s%02d", i)), 6)
	}
	budget := st.ResidentBytes() // everything fits, exactly
	var shared atomic.Int64
	st.SetSharedBytes(shared.Load)
	st.SetBudget(budget)
	if life := lifecycle(st); life["evicted"] != 0 || life["shared_bytes"] != 0 {
		t.Fatalf("nothing shared yet, lifecycle = %v", life)
	}
	shared.Store(budget / 2)
	for i := 0; lifecycle(st)["evicted"] == 0 && i < 64; i++ {
		id := feedback.EntityID(fmt.Sprintf("s%02d", i))
		if _, err := st.Add(rec(id, "cx", true, 1000+int64(i))); err != nil && !errors.Is(err, ErrEvicted) {
			t.Fatalf("add: %v", err)
		}
	}
	life := lifecycle(st)
	if life["shared_bytes"] != budget/2 || life["evicted"] == 0 || life["resident_bytes"]+life["shared_bytes"] > budget {
		t.Fatalf("resident + shared over budget %d, lifecycle = %v", budget, life)
	}
}

// clearTouched resets every clock bit, simulating entries the sweep has
// already given their second chance.
func clearTouched(st *Store) {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for _, e := range sh.byServ {
			e.touched.Store(false)
		}
		sh.mu.Unlock()
	}
}

func TestSecondChanceKeepsHotServers(t *testing.T) {
	st := NewSharded(2)
	for i := 0; i < 40; i++ {
		fillServer(t, st, feedback.EntityID(fmt.Sprintf("s%02d", i)), 4)
	}
	// Writes set the clock bit on every server; age them all out, then
	// re-touch the "hot" half via reads. The sweep's second-chance pass
	// should prefer the cold half.
	clearTouched(st)
	for i := 0; i < 20; i++ {
		st.Snapshot(feedback.EntityID(fmt.Sprintf("s%02d", i)))
	}
	// Evict roughly half the store.
	st.EvictUntil(st.ResidentBytes() / 2)
	hotEvicted, coldEvicted := 0, 0
	for i := 0; i < 40; i++ {
		if _, ok := st.StubOf(feedback.EntityID(fmt.Sprintf("s%02d", i))); ok {
			if i < 20 {
				hotEvicted++
			} else {
				coldEvicted++
			}
		}
	}
	if hotEvicted >= coldEvicted {
		t.Fatalf("second chance failed: %d hot vs %d cold evicted", hotEvicted, coldEvicted)
	}
}

func TestEvictGuardAndPreference(t *testing.T) {
	st := NewSharded(2)
	fillServer(t, st, "pinned", 4)
	fillServer(t, st, "other", 4)
	st.SetEvictGuard(func(s feedback.EntityID) bool { return s == "pinned" })
	if st.EvictServer("pinned") {
		t.Fatal("guard must block EvictServer")
	}
	st.EvictUntil(0)
	if _, ok := st.StubOf("pinned"); ok {
		t.Fatal("guard must block the sweep")
	}
	if _, ok := st.StubOf("other"); !ok {
		t.Fatal("unguarded server must be evicted by EvictUntil(0)")
	}

	// Preference: with plenty of candidates, the preferred victims go first.
	st2 := NewSharded(2)
	for i := 0; i < 30; i++ {
		fillServer(t, st2, feedback.EntityID(fmt.Sprintf("p%02d", i)), 4)
	}
	st2.SetEvictPreference(func(s feedback.EntityID) bool { return s >= "p15" })
	clearTouched(st2) // preferred pass only takes untouched victims
	st2.EvictUntil(st2.ResidentBytes() / 2)
	owned, foreign := 0, 0
	for i := 0; i < 30; i++ {
		if _, ok := st2.StubOf(feedback.EntityID(fmt.Sprintf("p%02d", i))); ok {
			if i >= 15 {
				foreign++
			} else {
				owned++
			}
		}
	}
	if foreign <= owned {
		t.Fatalf("preference ignored: %d preferred vs %d owned evicted", foreign, owned)
	}
}

// lifecycle reads the store's lifecycle gauges, as /metricz serves them.
func lifecycle(st *Store) map[string]int64 {
	reg := metrics.New()
	st.RegisterMetrics(reg)
	life := map[string]int64{}
	for _, k := range []string{"resident", "evicted", "resident_bytes", "shared_bytes", "budget_bytes", "evictions", "reinstates"} {
		switch v := reg.Value("lifecycle." + k).(type) {
		case int64:
			life[k] = v
		case uint64:
			life[k] = int64(v)
		}
	}
	return life
}
