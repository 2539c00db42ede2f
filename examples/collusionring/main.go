// Collusionring: a ring of five colluders props up an attacker's
// reputation with fake positive feedback. The plain behaviour test cannot
// see it — the time-ordered outcome pattern looks binomial — but the
// collusion-resilient test re-orders the history by feedback issuer and the
// fake-feedback structure jumps out. The example then runs the strategic
// colluding attacker against both defences and compares its real cost.
package main

import (
	"fmt"
	"log"

	"honestplayer"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := honestplayer.NewRNG(11)
	colluders := []honestplayer.EntityID{"ring-0", "ring-1", "ring-2", "ring-3", "ring-4"}

	// Preparation: reputation 0.95 built entirely from colluder feedback.
	h, err := honestplayer.PrepareByColluders("shady", 400, 0.95, colluders, rng)
	if err != nil {
		return err
	}
	fmt.Printf("attacker %q: %d transactions, good ratio %.3f, %d distinct feedback issuers\n",
		h.Server(), h.Len(), h.GoodRatio(), h.DistinctClients())

	cfg := honestplayer.TesterConfig{}
	plain, err := honestplayer.NewMultiTester(cfg)
	if err != nil {
		return err
	}
	resilient, err := honestplayer.NewCollusionMultiTester(cfg)
	if err != nil {
		return err
	}

	// The attacker now cheats 20 times while maintaining its reputation.
	for name, tester := range map[string]honestplayer.Tester{
		"multi-testing (time order)":  plain,
		"collusion-resilient testing": resilient,
	} {
		assessor, err := honestplayer.NewTwoPhase(tester, honestplayer.Average{})
		if err != nil {
			return err
		}
		pop, err := honestplayer.NewPopulation("client", 95, 0, 0, 0, honestplayer.NewRNG(5))
		if err != nil {
			return err
		}
		attacker := &honestplayer.ColludingAttacker{
			Assessor:  assessor,
			Threshold: 0.9,
			GoalBad:   20,
			Colluders: colluders,
			MaxSteps:  20000,
		}
		cost, err := attacker.Run(h.Clone(), pop)
		if err != nil {
			fmt.Printf("%-30s attack aborted: %v (after %d genuine services, %d fakes)\n",
				name+":", err, cost.Good, cost.Colluded)
			continue
		}
		fmt.Printf("%-30s 20 attacks cost %d genuine good services + %d colluder fakes\n",
			name+":", cost.Good, cost.Colluded)
	}
	fmt.Println()
	fmt.Println("Against plain testing the ring makes the attack nearly free; the")
	fmt.Println("issuer-reordered test forces the attacker to actually serve real clients.")
	return nil
}
