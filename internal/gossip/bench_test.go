package gossip

import (
	"fmt"
	"testing"
	"time"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/repserver"
	"honestplayer/internal/trust"
)

// BenchmarkRoundInSync measures the steady-state cost of a gossip round:
// one summary round trip, no record transfer.
func BenchmarkRoundInSync(b *testing.B) {
	tp, err := core.NewTwoPhase(nil, trust.Average{})
	if err != nil {
		b.Fatal(err)
	}
	mk := func(name string) (*repserver.Server, *Reconciler) {
		srv, err := repserver.New("127.0.0.1:0", repserver.Config{Assessor: tp})
		if err != nil {
			b.Fatal(err)
		}
		srv.Start()
		n, err := New(Config{Name: name, Node: srv, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return srv, n
	}
	srvA, a := mk("a")
	srvB, peer := mk("b")
	defer func() { _ = a.Close(); _ = srvA.Close() }()
	defer func() { _ = peer.Close(); _ = srvB.Close() }()
	a.AddPeer(srvB.Addr())
	recs := make([]feedback.Feedback, 1000)
	for i := range recs {
		recs[i] = feedback.Feedback{
			Time: time.Unix(int64(i), 0).UTC(), Server: "srv",
			Client: feedback.EntityID(fmt.Sprintf("c%d", i%50)), Rating: feedback.Positive,
		}
	}
	for _, srv := range []*repserver.Server{srvA, srvB} {
		if _, err := srv.Seed(recs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.RoundOnce(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if a.InSyncRounds() == 0 {
		b.Fatal("rounds were not in-sync")
	}
}
