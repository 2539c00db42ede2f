package store

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"honestplayer/internal/feedback"
	"honestplayer/internal/metrics"
)

// backed is a store under test whose loader reads a never-evicting twin that
// every record Add accepts also reaches, as the persistence layer holds every
// accepted record on disk. Like the persistence layer, Add pins the server
// until the twin has the record. loads counts the loader's calls.
type backed struct {
	*Store
	twin   *Store
	loads  atomic.Int64
	pinned atomic.Pointer[feedback.EntityID]
}

func newBacked(shards int) *backed {
	b := &backed{Store: NewSharded(shards), twin: NewSharded(shards)}
	b.SetBudget(0, b.load)
	b.SetEvictGuard(func(s feedback.EntityID) bool {
		p := b.pinned.Load()
		return p != nil && *p == s
	})
	return b
}

func (b *backed) Add(f feedback.Feedback) (bool, error) {
	b.pinned.Store(&f.Server)
	defer b.pinned.Store(nil)
	ok, err := b.Store.Add(f)
	if ok {
		_, err = b.twin.Add(f)
	}
	return ok, err
}

func (b *backed) load(server feedback.EntityID) (*feedback.History, error) {
	b.loads.Add(1)
	h, err := b.twin.History(server)
	if err != nil {
		return nil, err
	}
	return h.Clone(), nil
}

// isStub reports whether server is evicted, without faulting it in.
func isStub(st *Store, server feedback.EntityID) bool {
	h, v := st.peek(server)
	return h == nil && v > 0
}

// fillServer adds n records for server s and returns them in store order.
func fillServer(t *testing.T, st interface {
	Add(feedback.Feedback) (bool, error)
}, s feedback.EntityID, n int) []feedback.Feedback {
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

// TestEntryOverheadTerms: the sizes entryOverhead names are a 64-bit
// platform's, so a field added to the entry or to a feedback.History fails
// here instead of drifting the budget away from the heap.
func TestEntryOverheadTerms(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("entryOverhead is figured for 64-bit platforms")
	}
	if got := unsafe.Sizeof(entry{}); got != 48 {
		t.Errorf("the entry struct is %d B, entryOverhead charges 48", got)
	}
	if got := unsafe.Sizeof(feedback.EntityID("")) + unsafe.Sizeof((*entry)(nil)); got != 24 {
		t.Errorf("a byServ slot's key and value take %d B, entryOverhead figures 24", got)
	}
	if got := unsafe.Sizeof(feedback.History{}); got != 280 {
		t.Errorf("a feedback.History header is %d B, entryOverhead charges 280 in the 288-B size class", got)
	}
}

// TestEvictReinstateRoundTrip: an evicted server keeps its count and version
// in the stub, and the next read faults it back in — one load — bit-identical
// to the server before, dedup index and version included.
func TestEvictReinstateRoundTrip(t *testing.T) {
	st := newBacked(DefaultShards)
	recs := fillServer(t, st, "srv", 7)
	wantHist, wantVer := st.Snapshot("srv")
	wantBytes := st.ResidentBytes()

	if !st.EvictServer("srv") {
		t.Fatal("EvictServer returned false for a resident server")
	}
	if st.EvictServer("srv") {
		t.Fatal("second EvictServer must be a no-op")
	}
	if !isStub(st.Store, "srv") || st.ServerLen("srv") != 7 || st.Version("srv") != wantVer {
		t.Fatalf("stub: count %d version %d, want 7 and %d", st.ServerLen("srv"), st.Version("srv"), wantVer)
	}
	if st.ResidentBytes() >= wantBytes {
		t.Fatalf("resident bytes %d not reduced from %d by eviction", st.ResidentBytes(), wantBytes)
	}
	life := lifecycle(st.Store)
	if life["resident"] != 0 || life["evicted"] != 1 || life["evictions"] != 1 || st.loads.Load() != 0 {
		t.Fatalf("lifecycle after evict = %v, %d loads", life, st.loads.Load())
	}

	gotHist, gotVer := st.Snapshot("srv")
	if gotVer != wantVer {
		t.Fatalf("version after fault-in = %d, want %d (cache keys must survive)", gotVer, wantVer)
	}
	if gotHist == nil || !reflect.DeepEqual(gotHist.Records(), wantHist.Records()) {
		t.Fatal("faulted-in history differs from pre-eviction history")
	}
	if life := lifecycle(st.Store); life["reinstates"] != 1 || life["evicted"] != 0 || st.loads.Load() != 1 {
		t.Fatalf("lifecycle after fault-in = %v, %d loads", life, st.loads.Load())
	}
	// Writes fault in too, and the dedup index comes back with the records:
	// re-adding an old record is a duplicate, a genuinely new one lands.
	st.EvictServer("srv")
	if ok, err := st.Add(recs[3]); err != nil || ok {
		t.Fatalf("re-add to an evicted server = (%v, %v), want dup", ok, err)
	}
	if ok, err := st.Add(rec("srv", "c9", true, 99)); err != nil || !ok {
		t.Fatalf("new add after fault-in = (%v, %v)", ok, err)
	}
	if life := lifecycle(st.Store); life["reinstates"] != 2 || st.loads.Load() != 2 {
		t.Fatalf("lifecycle after write fault-in = %v, %d loads", life, st.loads.Load())
	}
}

// TestReinstateRejectsWrongRecords: a loader whose history does not match the
// stub — a record missing, tampered or out of order, or another server's —
// leaves the stub in place, and the read and the write that asked for it
// both fail with ErrEvicted. A correct load then still succeeds.
func TestReinstateRejectsWrongRecords(t *testing.T) {
	st := New()
	recs := fillServer(t, st, "srv", 5)
	var loaded atomic.Pointer[feedback.History]
	st.SetBudget(0, func(feedback.EntityID) (*feedback.History, error) { return loaded.Load(), nil })
	st.EvictServer("srv")

	tampered := append([]feedback.Feedback(nil), recs...)
	tampered[2].Rating = 3 - tampered[2].Rating // positive ↔ negative
	shuffled := append([]feedback.Feedback(nil), recs...)
	shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
	for name, h := range map[string]*feedback.History{
		"missing record": histOf(t, "srv", recs[:4]),
		"tampered":       histOf(t, "srv", tampered),
		"out of order":   histOf(t, "srv", shuffled),
		"other server":   histOf(t, "other", []feedback.Feedback{rec("other", "c", true, 1)}),
	} {
		loaded.Store(h)
		if _, err := st.History("srv"); !errors.Is(err, ErrEvicted) {
			t.Fatalf("%s: read err = %v, want ErrEvicted", name, err)
		}
		if r := st.AddBatch([]feedback.Feedback{rec("srv", "new", true, 50)}, 1)[0]; !errors.Is(r.Err, ErrEvicted) || r.Stored {
			t.Fatalf("%s: write = %+v, want ErrEvicted", name, r)
		}
		if !isStub(st, "srv") {
			t.Fatalf("%s: the stub did not survive a rejected load", name)
		}
	}
	if life := lifecycle(st); life["fault_errors"] != 8 || life["reinstates"] != 0 {
		t.Fatalf("lifecycle after rejected loads = %v", life)
	}
	loaded.Store(histOf(t, "srv", recs))
	if h, err := st.History("srv"); err != nil || h.Len() != 5 {
		t.Fatalf("correct load after rejected ones: %v", err)
	}
}

// TestEvictNeedsLoader: a stub exists only when a loader can bring it back.
func TestEvictNeedsLoader(t *testing.T) {
	st := New()
	fillServer(t, st, "srv", 3)
	st.SetBudget(1, nil)
	if st.EvictServer("srv") || st.EvictUntil(0) != 0 || isStub(st, "srv") {
		t.Fatal("a store without a loader evicted a server")
	}
	if life := lifecycle(st); life["evicted"] != 0 || life["enabled"] != 0 {
		t.Fatalf("lifecycle without a loader = %v", life)
	}
}

// TestFaultInSingleFlight: a read and a write that meet one stub share one
// load; a read that gives up waiting on it fails with its context's error.
func TestFaultInSingleFlight(t *testing.T) {
	st := newBacked(DefaultShards)
	fillServer(t, st, "srv", 4)
	entered, release := make(chan struct{}), make(chan struct{})
	st.SetBudget(0, func(id feedback.EntityID) (*feedback.History, error) {
		close(entered) // a second load would panic here
		<-release
		return st.load(id)
	})
	st.EvictServer("srv")

	var wg sync.WaitGroup
	wg.Add(2)
	var readLen int
	go func() {
		defer wg.Done()
		if h, _ := st.Snapshot("srv"); h != nil {
			readLen = h.Len()
		}
	}()
	<-entered
	var res AddResult
	go func() {
		defer wg.Done()
		res = st.AddBatch([]feedback.Feedback{rec("srv", "late", true, 100)}, 1)[0]
	}()
	for deadline := time.Now().Add(10 * time.Second); lifecycle(st.Store)["fault_waits"] < 1; {
		if time.Now().After(deadline) {
			t.Fatal("the write never waited on the read's load")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var viewed, failed error
	st.ViewResident(ctx, st.ShardIndex("srv"), []feedback.EntityID{"srv"},
		func(int, *feedback.History) {
			viewed = errors.New("viewed a server still loading")
		},
		func(_ int, err error) { failed = err })
	if viewed != nil || !errors.Is(failed, context.Canceled) {
		t.Fatalf("cancelled view: viewed %v, failed %v", viewed, failed)
	}
	close(release)
	wg.Wait()

	if st.loads.Load() != 1 {
		t.Fatalf("%d loads for one stub, want 1", st.loads.Load())
	}
	if readLen < 4 || res.Err != nil || !res.Stored || st.ServerLen("srv") != 5 {
		t.Fatalf("read %d records, write %+v, server holds %d", readLen, res, st.ServerLen("srv"))
	}
	if life := lifecycle(st.Store); life["reinstates"] != 1 || life["fault_waits"] != 2 || life["fault_errors"] != 0 {
		t.Fatalf("lifecycle = %v", life)
	}
}

func TestBudgetEnforced(t *testing.T) {
	st := newBacked(4)
	for i := 0; i < 64; i++ {
		fillServer(t, st, feedback.EntityID(fmt.Sprintf("s%02d", i)), 6)
	}
	full := st.ResidentBytes()
	budget := full / 4
	st.SetBudget(budget, nil)
	if got := st.ResidentBytes(); got > budget {
		t.Fatalf("SetBudget did not trim: resident %d > budget %d", got, budget)
	}
	life := lifecycle(st.Store)
	if life["evicted"] == 0 || life["resident"]+life["evicted"] != 64 {
		t.Fatalf("lifecycle after trim = %v", life)
	}
	// New writes keep the store under budget via the synchronous sweep,
	// those to evicted servers faulting them in first.
	for i := 0; i < 64; i++ {
		id := feedback.EntityID(fmt.Sprintf("s%02d", i))
		if _, err := st.Add(rec(id, "cx", true, 1000+int64(i))); err != nil {
			t.Fatalf("add under budget: %v", err)
		}
		if got := st.ResidentBytes(); got > budget {
			t.Fatalf("write pushed store over budget: %d > %d", got, budget)
		}
	}
	stubs := 0
	for _, srv := range st.Servers() {
		if isStub(st.Store, srv) {
			stubs++
		}
	}
	if evicted := lifecycle(st.Store)["evicted"]; int64(stubs) != evicted {
		t.Fatalf("%d stubs != evicted count %d", stubs, evicted)
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
	st := newBacked(2)
	for i := 0; i < 40; i++ {
		fillServer(t, st, feedback.EntityID(fmt.Sprintf("s%02d", i)), 4)
	}
	// Writes set the clock bit on every server; age them all out, then
	// re-touch the "hot" half via reads. The sweep's second-chance pass
	// should prefer the cold half.
	clearTouched(st.Store)
	for i := 0; i < 20; i++ {
		st.Snapshot(feedback.EntityID(fmt.Sprintf("s%02d", i)))
	}
	// Evict roughly half the store.
	st.EvictUntil(st.ResidentBytes() / 2)
	hotEvicted, coldEvicted := 0, 0
	for i := 0; i < 40; i++ {
		if isStub(st.Store, feedback.EntityID(fmt.Sprintf("s%02d", i))) {
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
	st := newBacked(2)
	fillServer(t, st, "pinned", 4)
	fillServer(t, st, "other", 4)
	st.SetEvictGuard(func(s feedback.EntityID) bool { return s == "pinned" })
	if st.EvictServer("pinned") {
		t.Fatal("guard must block EvictServer")
	}
	st.EvictUntil(0)
	if isStub(st.Store, "pinned") {
		t.Fatal("guard must block the sweep")
	}
	if !isStub(st.Store, "other") {
		t.Fatal("unguarded server must be evicted by EvictUntil(0)")
	}

	// Preference: with plenty of candidates, the preferred victims go first.
	st2 := newBacked(2)
	for i := 0; i < 30; i++ {
		fillServer(t, st2, feedback.EntityID(fmt.Sprintf("p%02d", i)), 4)
	}
	st2.SetEvictPreference(func(s feedback.EntityID) bool { return s >= "p15" })
	clearTouched(st2.Store) // preferred pass only takes untouched victims
	st2.EvictUntil(st2.ResidentBytes() / 2)
	owned, foreign := 0, 0
	for i := 0; i < 30; i++ {
		if isStub(st2.Store, feedback.EntityID(fmt.Sprintf("p%02d", i))) {
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
	for _, k := range []string{"enabled", "resident", "evicted", "resident_bytes", "budget_bytes",
		"evictions", "reinstates", "fault_waits", "fault_errors"} {
		switch v := reg.Value("lifecycle." + k).(type) {
		case bool:
			if v {
				life[k] = 1
			}
		case int64:
			life[k] = v
		case uint64:
			life[k] = int64(v)
		}
	}
	return life
}

// TestLineageFollowsRebuilds: a server's snapshots keep one lineage while
// its history only grows at the end, and draw another when the store
// rebuilds it — around an out-of-order record, or faulted back in after an
// eviction by a loader that gathers the records afresh, as the ledger's does.
func TestLineageFollowsRebuilds(t *testing.T) {
	b := newBacked(4)
	b.SetBudget(0, func(server feedback.EntityID) (*feedback.History, error) {
		twin, err := b.twin.History(server)
		if err != nil {
			return nil, err
		}
		h := feedback.NewHistory(server)
		for _, r := range twin.Records() {
			if err := h.Append(r); err != nil {
				return nil, err
			}
		}
		return h, nil
	})
	const s = feedback.EntityID("srv")
	fillServer(t, b, s, 20)
	lineage := func() uint64 {
		h, err := b.History(s)
		if err != nil {
			t.Fatal(err)
		}
		return h.Lineage()
	}
	first := lineage()
	if _, err := b.Add(rec(s, "c-end", true, 100)); err != nil {
		t.Fatal(err)
	}
	if got := lineage(); got != first {
		t.Fatalf("an append at the end: lineage %d, want %d", got, first)
	}
	if _, err := b.Add(rec(s, "c-early", false, 0)); err != nil {
		t.Fatal(err)
	}
	rebuilt := lineage()
	if rebuilt == first {
		t.Fatalf("an out-of-order insert kept lineage %d", first)
	}
	if !b.EvictServer(s) {
		t.Fatal("not evicted")
	}
	if got := lineage(); got == rebuilt || got == first {
		t.Fatalf("a fault-in kept lineage %d", got)
	}
}
