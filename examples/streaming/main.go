// Streaming: two-phase assessment under a live write stream. Two providers
// are streamed side by side into a reputation server: an honest seller and
// a hibernating attacker that builds reputation and then spends it. The
// client re-assesses both every 200 transactions; the attacker's burst is
// flagged while its trust ratio still looks healthy.
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
		Assessor: assessor,
		Store:    honestplayer.NewShardedStore(4),
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

	fmt.Println("  txn | honest-seller                     | sleeper-agent")
	fmt.Println("------+-----------------------------------+-----------------------------------")
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
			a := resp.Assessment
			fmt.Printf(" %s good=%.3f trust=%.3f |", status, float64(a.Good)/float64(a.Records), a.Trust)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("The sleeper agent's burst at transaction 800 is caught by the behaviour")
	fmt.Println("test while its overall good ratio still looks healthy.")
	return nil
}
