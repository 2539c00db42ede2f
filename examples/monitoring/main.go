// Monitoring: the continuous-deployment shape of the two-phase mechanism.
// A Monitor consumes a provider's transaction stream, re-assessing every 10
// transactions. The provider behaves honestly, turns malicious at
// transaction 500, and — once flagged and starved of victims — returns to
// honest behaviour; the monitor's alert log captures both transitions.
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
		// Continuous re-assessment needs the familywise correction; see
		// the ablation-correction experiment.
		FamilywiseCorrection: true,
	})
	if err != nil {
		return err
	}
	assessor, err := honestplayer.NewTwoPhase(tester, honestplayer.Average{})
	if err != nil {
		return err
	}
	monitor, err := honestplayer.NewMonitor(assessor, "provider-7", 10)
	if err != nil {
		return err
	}

	rng := honestplayer.NewRNG(23)
	outcome := func(i int) bool {
		switch {
		case i < 500:
			return rng.Bernoulli(0.95) // honest
		case i < 540:
			return false // attack burst
		default:
			return rng.Bernoulli(0.95) // back to honest (laundering attempt)
		}
	}
	for i := 0; i < 1600; i++ {
		a, err := monitor.Record("client", outcome(i), time.Unix(int64(i), 0))
		if err != nil {
			return err
		}
		_ = a
	}

	fmt.Printf("stream of %d transactions processed; final status: suspicious=%v\n",
		monitor.History().Len(), monitor.Suspicious())
	fmt.Println("alert log:")
	for _, alert := range monitor.Alerts() {
		status := "cleared"
		if alert.Suspicious {
			status = "SUSPICIOUS"
		}
		fmt.Printf("  txn %4d: %-10s (trust so far %.3f)\n",
			alert.Transaction, status, alert.Assessment.Trust)
	}
	fmt.Println()
	fmt.Println("The burst at transaction 500 is flagged within a few windows. Note how")
	fmt.Println("long the flag persists after the attacker resumes honest behaviour: the")
	fmt.Println("bad windows stay in the recent suffixes until they age out — reputation")
	fmt.Println("laundering is slow by construction.")
	return nil
}
