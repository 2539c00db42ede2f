package attack

import (
	"fmt"
	"slices"
	"strconv"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// ClientSource supplies the non-colluder clients arriving at the attacker's
// service, and receives the outcome each served client experienced. The
// simulation package implements it with the paper's probabilistic arrival
// model (a₁·p for new clients, a₂ after a good service, a₃ after a bad one).
type ClientSource interface {
	// Next returns the next arriving non-colluder client given the server's
	// current reputation.
	Next(reputation float64) feedback.EntityID
	// Observe records the outcome the client experienced, which drives its
	// future arrival probability.
	Observe(c feedback.EntityID, good bool)
}

// Colluding is the strategic attacker of §5.2. For each transaction it
// chooses between cheating on a real client, providing a good service to a
// real client, or obtaining a fake positive feedback from one of its
// colluders, consulting the deployed assessor before acting:
//
//  1. Cheat if the victim would accept now and the post-cheat history stays
//     unsuspicious.
//  2. Otherwise compare, by bounded lookahead, how many colluder fakes vs.
//     how many genuine good services it would take to unlock the next
//     cheat. Fakes are free, so they win ties: against issuer-blind
//     defences (trust functions, plain behaviour testing) fakes repair
//     trust and distribution equally well and the attack costs nothing
//     real; against the issuer-reordering collusion test fakes never
//     unlock a cheat, and the attacker is forced to genuinely serve
//     clients outside its ring.
type Colluding struct {
	// Assessor is the deployed two-phase assessor. It must have an
	// incremental form (core.TwoPhase.SupportsIncremental).
	Assessor *core.TwoPhase
	// Threshold is the clients' trust threshold (paper: 0.9).
	Threshold float64
	// GoalBad is the number of bad transactions the attacker wants.
	GoalBad int
	// Colluders are the attacker's accomplices (paper: 5 of 100 clients).
	Colluders []feedback.EntityID
	// MaxSteps bounds the attack phase; 0 means 1000 × GoalBad.
	MaxSteps int
}

func (c *Colluding) maxSteps() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	return 1000 * c.GoalBad
}

func (c *Colluding) validate() error {
	if c.Assessor == nil {
		return fmt.Errorf("%w: nil assessor", ErrBadParams)
	}
	if c.Threshold < 0 || c.Threshold > 1 || c.GoalBad < 1 || len(c.Colluders) == 0 || slices.Contains(c.Colluders, "") {
		return fmt.Errorf("%w: threshold=%v goal=%d colluders=%q",
			ErrBadParams, c.Threshold, c.GoalBad, c.Colluders)
	}
	return nil
}

// lookaheadDepth bounds the unlock search. The weighted function needs at
// most ~4 positives to recover above a 0.9 threshold and the average
// function's deficits after a cheat are similarly shallow, so a depth of 12
// comfortably covers the repair horizons that occur in practice.
const lookaheadDepth = 12

// decide picks the attacker's next action against the arriving victim, given
// the assessment state sa of its history. For a Cheat it also returns the
// post-cheat state.
func (c *Colluding) decide(sa *core.ServerAccumulator, victim feedback.EntityID) (Action, *core.ServerAccumulator, error) {
	// 1. Direct cheat: victim accepts now and H′ stays unsuspicious.
	cheated, err := cheatAllowed(sa, victim, c.Threshold)
	if err != nil {
		return 0, nil, err
	}
	if cheated != nil {
		return Cheat, cheated, nil
	}
	// 2. Unlock race: fakes vs. genuine services.
	byFakes, err := c.stepsToUnlock(sa, victim, func(i int) feedback.EntityID {
		return c.Colluders[i%len(c.Colluders)]
	})
	if err != nil {
		return 0, nil, err
	}
	if byFakes <= lookaheadDepth {
		byGoods, err := c.stepsToUnlock(sa, victim, func(i int) feedback.EntityID {
			return feedback.EntityID("probe-" + strconv.Itoa(i))
		})
		if err != nil {
			return 0, nil, err
		}
		if byFakes <= byGoods {
			return ColludeFake, nil, nil
		}
		return ServeGood, nil, nil
	}
	// Fakes cannot unlock a cheat within the horizon: only genuine service
	// to clients outside the ring repairs the issuer-ordered distribution
	// (and grows the supporter base).
	return ServeGood, nil, nil
}

// stepsToUnlock returns the smallest number of positive feedbacks from the
// issuer sequence client(0), client(1), … after which a cheat on victim
// becomes allowed, or lookaheadDepth+1 when the horizon is exhausted. The
// feedbacks go to one clone of sa, which is then dropped.
func (c *Colluding) stepsToUnlock(sa *core.ServerAccumulator, victim feedback.EntityID, client func(int) feedback.EntityID) (int, error) {
	probe := sa.Clone()
	for i := 1; i <= lookaheadDepth; i++ {
		probe.Append(feedback.Feedback{Time: logicalTime(probe.Len()), Server: probe.Server(), Client: client(i - 1), Rating: feedback.Positive})
		cheated, err := cheatAllowed(probe, victim, c.Threshold)
		if err != nil {
			return 0, err
		}
		if cheated != nil {
			return i, nil
		}
	}
	return lookaheadDepth + 1, nil
}

// Run mutates h through the attack phase until GoalBad bad transactions
// succeed, drawing victims from clients, and returns the attacker's cost.
// Cost.Good counts only genuine services to non-colluders — the paper's
// "true cost" metric of Figs. 5 and 6.
func (c *Colluding) Run(h *feedback.History, clients ClientSource) (Cost, error) {
	if err := c.validate(); err != nil {
		return Cost{}, err
	}
	if clients == nil {
		return Cost{}, fmt.Errorf("%w: nil client source", ErrBadParams)
	}
	sa, err := accumulate(c.Assessor, h)
	if err != nil {
		return Cost{}, err
	}
	var cost Cost
	colluderIdx := 0
	for cost.Bad < c.GoalBad {
		if cost.Steps >= c.maxSteps() {
			return cost, fmt.Errorf("%w after %d steps (%d/%d bad)",
				ErrGoalUnreachable, cost.Steps, cost.Bad, c.GoalBad)
		}
		victim := clients.Next(h.GoodRatio())
		action, cheated, err := c.decide(sa, victim)
		if err != nil {
			return cost, err
		}
		switch action {
		case Cheat:
			if err := h.AppendOutcome(victim, false, logicalTime(h.Len())); err != nil {
				return cost, err
			}
			sa = cheated
			clients.Observe(victim, false)
			cost.Bad++
		case ColludeFake:
			if err := step(h, sa, c.Colluders[colluderIdx%len(c.Colluders)], true); err != nil {
				return cost, err
			}
			colluderIdx++
			cost.Colluded++
		case ServeGood:
			if err := step(h, sa, victim, true); err != nil {
				return cost, err
			}
			clients.Observe(victim, true)
			cost.Good++
		}
		cost.Steps++
	}
	return cost, nil
}

// UniformClients is a minimal ClientSource drawing victims uniformly from a
// fixed pool, ignoring reputation. It serves tests and examples; the full
// arrival model lives in the sim package.
type UniformClients struct {
	// Pool is the number of distinct clients.
	Pool int
	// RNG drives the selection.
	RNG *stats.RNG
}

var _ ClientSource = (*UniformClients)(nil)

// Next implements ClientSource.
func (u *UniformClients) Next(float64) feedback.EntityID {
	return feedback.EntityID("client-" + strconv.Itoa(u.RNG.Intn(u.Pool)))
}

// Observe implements ClientSource.
func (u *UniformClients) Observe(feedback.EntityID, bool) {}
