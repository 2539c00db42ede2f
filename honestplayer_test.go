package honestplayer_test

import (
	"errors"
	"testing"
	"time"

	"honestplayer"
)

// sharedCal keeps facade tests fast.
var sharedCal = honestplayer.NewCalibrator(honestplayer.CalibrationConfig{Seed: 1, Replicates: 200}, 0)

func testerCfg() honestplayer.TesterConfig {
	return honestplayer.TesterConfig{Calibrator: sharedCal}
}

func TestFacadeQuickstartFlow(t *testing.T) {
	rng := honestplayer.NewRNG(1)
	h := honestplayer.NewHistory("seller-42")
	for i := 0; i < 300; i++ {
		if err := h.AppendOutcome("buyer", rng.Bernoulli(0.95), time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	tester, err := honestplayer.NewMultiTester(testerCfg())
	if err != nil {
		t.Fatal(err)
	}
	assessor, err := honestplayer.NewTwoPhase(tester, honestplayer.Average{})
	if err != nil {
		t.Fatal(err)
	}
	ok, a, err := assessor.Accept(h, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || a.Suspicious {
		t.Fatalf("honest seller rejected: %+v", a)
	}
}

func TestFacadeDetectsHibernator(t *testing.T) {
	rng := honestplayer.NewRNG(2)
	h, err := honestplayer.GenHibernating("attacker", 400, 0.95, 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	tester, err := honestplayer.NewMultiTester(testerCfg())
	if err != nil {
		t.Fatal(err)
	}
	assessor, err := honestplayer.NewTwoPhase(tester, honestplayer.Average{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := assessor.Assess(h)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Suspicious {
		t.Fatal("hibernating attacker not flagged through the facade")
	}
}

func TestFacadeShortHistoryPolicy(t *testing.T) {
	h := honestplayer.NewHistory("new-seller")
	_ = h.AppendOutcome("c", true, time.Unix(0, 0))
	tester, err := honestplayer.NewSingleTester(testerCfg())
	if err != nil {
		t.Fatal(err)
	}
	strict, err := honestplayer.NewTwoPhase(tester, honestplayer.Beta{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := strict.Assess(h)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Suspicious || !a.ShortHistory {
		t.Fatalf("RejectShort: %+v", a)
	}
	lenient, err := honestplayer.NewTwoPhase(tester, honestplayer.Beta{},
		honestplayer.WithShortHistoryPolicy(honestplayer.AllowShort))
	if err != nil {
		t.Fatal(err)
	}
	a, err = lenient.Assess(h)
	if err != nil {
		t.Fatal(err)
	}
	if a.Suspicious || a.Trust == 0 {
		t.Fatalf("AllowShort: %+v", a)
	}
}

func TestFacadeNetworkRoundTrip(t *testing.T) {
	tester, err := honestplayer.NewMultiTester(testerCfg())
	if err != nil {
		t.Fatal(err)
	}
	assessor, err := honestplayer.NewTwoPhase(tester, honestplayer.Average{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := honestplayer.NewServer("127.0.0.1:0", honestplayer.ServerConfig{Assessor: assessor})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	client, err := honestplayer.DialServer(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	rng := honestplayer.NewRNG(3)
	for i := 0; i < 200; i++ {
		rating := honestplayer.Negative
		if rng.Bernoulli(0.95) {
			rating = honestplayer.Positive
		}
		if _, err := client.Submit(honestplayer.Feedback{
			Time: time.Unix(int64(i), 0).UTC(), Server: "srv", Client: "c", Rating: rating,
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := client.Assess("srv", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Assessment.Suspicious {
		t.Fatalf("honest server flagged over the network: %+v", resp.Assessment)
	}
}

func TestFacadeErrInsufficientHistory(t *testing.T) {
	tester, err := honestplayer.NewSingleTester(testerCfg())
	if err != nil {
		t.Fatal(err)
	}
	h := honestplayer.NewHistory("s")
	_ = h.AppendOutcome("c", true, time.Unix(0, 0))
	if _, err := tester.Test(h); !errors.Is(err, honestplayer.ErrInsufficientHistory) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeScenario(t *testing.T) {
	tester, err := honestplayer.NewMultiTester(testerCfg())
	if err != nil {
		t.Fatal(err)
	}
	assessor, err := honestplayer.NewTwoPhase(tester, honestplayer.Average{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := honestplayer.RunScenario(honestplayer.ScenarioConfig{
		Seed: 4, Steps: 200, Clients: 40, Threshold: 0.9, Warmup: 120,
		Servers: []honestplayer.ServerSpec{
			{ID: "good", Kind: honestplayer.HonestServer, P: 0.95},
			{ID: "bad", Kind: honestplayer.HibernatingServer, P: 0.95, PrepLen: 150},
		},
	}, assessor)
	if err != nil {
		t.Fatal(err)
	}
	if m.Transactions == 0 {
		t.Fatal("no transactions")
	}
}

func TestFacadeGossipPair(t *testing.T) {
	assessor, err := honestplayer.NewTwoPhase(nil, honestplayer.Average{})
	if err != nil {
		t.Fatal(err)
	}
	peer := func(name string, seed uint64) (*honestplayer.Server, *honestplayer.GossipNode) {
		srv, err := honestplayer.NewServer("127.0.0.1:0", honestplayer.ServerConfig{Assessor: assessor})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(func() { _ = srv.Close() })
		g, err := honestplayer.NewGossipNode(honestplayer.GossipConfig{Name: name, Node: srv, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = g.Close() })
		return srv, g
	}
	a, ga := peer("a", 1)
	b, _ := peer("b", 2)
	ga.AddPeer(b.Addr())
	if _, err := b.Seed([]honestplayer.Feedback{{
		Time: time.Unix(1, 0).UTC(), Server: "s", Client: "c", Rating: honestplayer.Positive,
	}}); err != nil {
		t.Fatal(err)
	}
	if err := ga.RoundOnce(); err != nil {
		t.Fatal(err)
	}
	if a.Store().Len() != 1 {
		t.Fatalf("gossip did not deliver: %d", a.Store().Len())
	}
}

func TestFacadeCUSUM(t *testing.T) {
	c, err := honestplayer.NewCUSUM(0.95, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Observe(false)
	}
	if !c.Alarmed() {
		t.Fatal("CUSUM did not alarm on an all-bad burst")
	}
}

func TestFacadeSubmitBatch(t *testing.T) {
	assessor, err := honestplayer.NewTwoPhase(nil, honestplayer.Average{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := honestplayer.NewServer("127.0.0.1:0", honestplayer.ServerConfig{Assessor: assessor})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() { _ = srv.Close() }()
	client, err := honestplayer.DialServer(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	recs := make([]honestplayer.Feedback, 100)
	for i := range recs {
		recs[i] = honestplayer.Feedback{
			Time: time.Unix(int64(i), 0).UTC(), Server: "s", Client: "c",
			Rating: honestplayer.Positive,
		}
	}
	stored, dups, err := client.SubmitBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 100 || dups != 0 {
		t.Fatalf("batch: %d/%d", stored, dups)
	}
}

func TestFacadePersistentStore(t *testing.T) {
	path := t.TempDir() + "/ledger.jsonl"
	ps, err := honestplayer.OpenPersistentStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Add(honestplayer.Feedback{
		Time: time.Unix(1, 0).UTC(), Server: "s", Client: "c", Rating: honestplayer.Positive,
	}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := honestplayer.OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d", len(recs))
	}
}
