// Streaming: the incremental assessment engine under a live write stream.
// A reputation server runs with Incremental enabled, so every stored
// feedback record is folded into a per-server accumulator as it arrives and
// each assess request is answered in O(windows) from the accumulator —
// bit-identical to recomputing over the whole history, but without touching
// it. Two providers are streamed side by side: an honest seller and a
// hibernating attacker that builds reputation and then spends it. The
// client re-assesses both every 200 transactions; the attacker's burst is
// flagged while its trust ratio still looks healthy. The final stats dump
// shows the engine's counters: every assessment was served incrementally.
package main

import (
	"fmt"
	"log"
	"time"

	"honestplayer"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tester, err := honestplayer.NewMultiTester(honestplayer.TesterConfig{
		// Continuous re-assessment over a growing history multi-tests many
		// suffixes per call; the familywise correction keeps the honest
		// seller's false-positive rate at the calibrated 5%.
		FamilywiseCorrection: true,
	})
	if err != nil {
		return err
	}
	assessor, err := honestplayer.NewTwoPhase(tester, honestplayer.Average{})
	if err != nil {
		return err
	}
	srv, err := honestplayer.NewServer("127.0.0.1:0", honestplayer.ServerConfig{
		Assessor:    assessor,
		Store:       honestplayer.NewShardedStore(4),
		Incremental: true,
	})
	if err != nil {
		return err
	}
	srv.Start()
	defer func() {
		if err := srv.Close(); err != nil {
			log.Printf("close server: %v", err)
		}
	}()

	cli, err := honestplayer.DialServer(srv.Addr())
	if err != nil {
		return err
	}
	defer func() {
		if err := cli.Close(); err != nil {
			log.Printf("close client: %v", err)
		}
	}()

	honestRNG := honestplayer.NewRNG(7)
	attackRNG := honestplayer.NewRNG(11)
	honest := func(i int) bool { return honestRNG.Bernoulli(0.95) }
	// Hibernating attack: 800 honest transactions to build a reputation,
	// then a cheating burst.
	attacker := func(i int) bool {
		if i >= 800 && i < 860 {
			return false
		}
		return attackRNG.Bernoulli(0.95)
	}
	providers := []struct {
		name    honestplayer.EntityID
		outcome func(int) bool
	}{
		{"honest-seller", honest},
		{"sleeper-agent", attacker},
	}

	fmt.Println("  txn | honest-seller              | sleeper-agent")
	fmt.Println("------+----------------------------+----------------------------")
	for i := 0; i < 1200; i++ {
		for _, p := range providers {
			rating := honestplayer.Negative
			if p.outcome(i) {
				rating = honestplayer.Positive
			}
			if _, err := cli.Submit(honestplayer.Feedback{
				Time:   time.Unix(int64(i), 0),
				Server: p.name,
				Client: honestplayer.EntityID(fmt.Sprintf("client-%d", i%17)),
				Rating: rating,
			}); err != nil {
				return err
			}
		}
		if (i+1)%200 != 0 {
			continue
		}
		fmt.Printf(" %4d |", i+1)
		for _, name := range []honestplayer.EntityID{"honest-seller", "sleeper-agent"} {
			resp, err := cli.Assess(name, 0.9)
			if err != nil {
				return err
			}
			status := "ok        "
			if resp.Assessment.Suspicious {
				status = "SUSPICIOUS"
			}
			fmt.Printf(" %s trust=%.3f incr=%-5v |", status, resp.Assessment.Trust, resp.Incremental)
		}
		fmt.Println()
	}

	m := srv.Metrics()
	fmt.Printf("\nengine stats: tracked=%v served=%v fallbacks=%v\n", m.Value("incremental.servers_tracked"),
		m.Value("incremental.served"), m.Value("incremental.fallbacks"))
	fmt.Println()
	fmt.Println("Every assess was answered from the per-server accumulator (incr=true,")
	fmt.Println("fallbacks=0): appends cost amortised O(1) and assessments O(windows),")
	fmt.Println("independent of how long the history has grown. The sleeper agent's")
	fmt.Println("burst at transaction 800 is caught by the behaviour test while its")
	fmt.Println("overall good ratio still looks healthy.")
	return nil
}
