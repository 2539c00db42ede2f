// Package attack implements the adversary models of the paper's evaluation:
// the generic hibernating and periodic attacks (§3), the strategic attacker
// of §5.1 that consults the deployed trust assessment before every
// transaction, the colluding strategic attacker of §5.2, and the
// cheat-and-run attacker of §3.1.
//
// The attackers here are "white-box" adversaries: they know the trust
// function and the behaviour-testing algorithm in use and adapt optimally
// against them, which is the strongest threat model the paper considers.
package attack

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// Action is the attacker's choice for its next transaction.
type Action int

const (
	// ServeGood provides a genuinely good service to a real client.
	ServeGood Action = iota + 1
	// Cheat conducts a bad transaction against a real client.
	Cheat
	// ColludeFake obtains a fake positive feedback from a colluder without
	// providing any real service.
	ColludeFake
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ServeGood:
		return "serve-good"
	case Cheat:
		return "cheat"
	case ColludeFake:
		return "collude-fake"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Errors returned by attack runners.
var (
	// ErrGoalUnreachable reports that the attacker hit the step budget
	// before completing its attack goal — the defence forced an unbounded
	// (within budget) cost.
	ErrGoalUnreachable = errors.New("attack: goal not reached within step budget")
	// ErrBadParams reports invalid attacker parameters.
	ErrBadParams = errors.New("attack: invalid parameters")
)

// Cost accounts the price an attacker paid to reach its goal. The paper's
// strength metric for a defence scheme is the number of good transactions
// the attacker is forced to conduct to land M bad ones (§5).
type Cost struct {
	// Good is the number of genuinely good services provided to real
	// (non-colluder) clients during the attack phase.
	Good int `json:"good"`
	// Colluded is the number of fake positive feedbacks obtained from
	// colluders during the attack phase.
	Colluded int `json:"colluded"`
	// Bad is the number of successful bad transactions (== the goal when
	// the run completes).
	Bad int `json:"bad"`
	// Steps is the total number of attack-phase transactions.
	Steps int `json:"steps"`
}

// PrepareHistory builds the attacker's preparation phase: n transactions
// behaving as an honest player with trustworthiness p (§5.1 uses p = 0.95).
// Feedback issuers are drawn uniformly from clientPool distinct client IDs
// so the prepared history also looks plausible to issuer-based tests.
func PrepareHistory(server feedback.EntityID, n int, p float64, clientPool int, rng *stats.RNG) (*feedback.History, error) {
	if n < 0 || p < 0 || p > 1 || clientPool < 1 {
		return nil, fmt.Errorf("%w: n=%d p=%v pool=%d", ErrBadParams, n, p, clientPool)
	}
	h := feedback.NewHistory(server)
	for i := 0; i < n; i++ {
		c := feedback.EntityID("prep-" + strconv.Itoa(rng.Intn(clientPool)))
		if err := h.AppendOutcome(c, rng.Bernoulli(p), logicalTime(i)); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// PrepareByColluders builds the §5.2 preparation phase: the attacker builds
// its reputation entirely through colluders' fake positive feedback, with a
// 1−p fraction of fillers rated negative so the resulting reputation is p.
func PrepareByColluders(server feedback.EntityID, n int, p float64, colluders []feedback.EntityID, rng *stats.RNG) (*feedback.History, error) {
	if n < 0 || p < 0 || p > 1 || len(colluders) == 0 {
		return nil, fmt.Errorf("%w: n=%d p=%v colluders=%d", ErrBadParams, n, p, len(colluders))
	}
	h := feedback.NewHistory(server)
	for i := 0; i < n; i++ {
		c := colluders[rng.Intn(len(colluders))]
		if err := h.AppendOutcome(c, rng.Bernoulli(p), logicalTime(i)); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// logicalTime maps a transaction index to a strictly increasing timestamp;
// simulations care about order, not wall-clock values.
func logicalTime(i int) time.Time {
	return time.Unix(int64(i), 0).UTC()
}

// Strategic is the adaptive attacker of §5.1. Before each transaction it
// hypothesises conducting a bad one. It cheats only when both hold:
//
//   - its *current* trust value meets the clients' threshold (that is when
//     the victim agrees to transact — the weighted function drops below the
//     threshold immediately after any bad transaction, so a post-cheat trust
//     requirement would make every attack impossible, contradicting the
//     paper's Fig. 4 where the attacker pays 2–3 good transactions per bad);
//   - the post-cheat history H′ stays consistent with the honest-player
//     model, so the attacker remains unsuspicious to future clients.
//
// Otherwise it provides a good service.
type Strategic struct {
	// Assessor is the exact two-phase assessor the defenders run.
	Assessor *core.TwoPhase
	// Threshold is the clients' trust threshold (paper: 0.9).
	Threshold float64
	// GoalBad is the number of bad transactions the attacker wants (M,
	// paper: 20).
	GoalBad int
	// MaxSteps bounds the attack phase; 0 means 1000 × GoalBad.
	MaxSteps int
}

func (s *Strategic) maxSteps() int {
	if s.MaxSteps > 0 {
		return s.MaxSteps
	}
	return 1000 * s.GoalBad
}

func (s *Strategic) validate() error {
	if s.Assessor == nil {
		return fmt.Errorf("%w: nil assessor", ErrBadParams)
	}
	if s.Threshold < 0 || s.Threshold > 1 || s.GoalBad < 1 {
		return fmt.Errorf("%w: threshold=%v goal=%d", ErrBadParams, s.Threshold, s.GoalBad)
	}
	return nil
}

// cheatAllowed evaluates the strategic cheating rule on h: the victim
// accepts (current trust meets the threshold and h is not suspicious) and
// the post-cheat history H′ stays consistent with the honest-player model.
// H′ is a fork of h (History.Clone, of a lineage of its own), so the
// hypothetical record never reaches h.
func cheatAllowed(tp *core.TwoPhase, h *feedback.History, victim feedback.EntityID, threshold float64) (bool, error) {
	accepted, _, err := tp.Accept(h, threshold)
	if err != nil || !accepted {
		return false, err
	}
	cheated := h.Clone()
	if err := cheated.AppendOutcome(victim, false, logicalTime(h.Len())); err != nil {
		return false, err
	}
	a, err := tp.Assess(cheated)
	return err == nil && !a.Suspicious, err
}

// Run mutates h through the attack phase until GoalBad bad transactions
// succeed, and returns the attacker's cost. Victims get fresh client IDs so
// issuer-based defences see genuine supporter-base growth only when the
// attacker actually serves distinct clients well.
func (s *Strategic) Run(h *feedback.History) (Cost, error) {
	if err := s.validate(); err != nil {
		return Cost{}, err
	}
	var cost Cost
	for cost.Bad < s.GoalBad {
		if cost.Steps >= s.maxSteps() {
			return cost, fmt.Errorf("%w after %d steps (%d/%d bad)", ErrGoalUnreachable, cost.Steps, cost.Bad, s.GoalBad)
		}
		victim := feedback.EntityID("victim-" + strconv.Itoa(cost.Steps))
		cheat, err := cheatAllowed(s.Assessor, h, victim, s.Threshold)
		if err != nil {
			return cost, err
		}
		// Cheat when the hypothetical bad transaction stays under the radar;
		// otherwise invest a good service.
		if err := h.AppendOutcome(victim, !cheat, logicalTime(h.Len())); err != nil {
			return cost, err
		}
		if cheat {
			cost.Bad++
		} else {
			cost.Good++
		}
		cost.Steps++
	}
	return cost, nil
}
