// Command attacksim runs a single adversary scenario against a chosen
// defence and reports the attacker's cost and transaction timeline — the
// interactive counterpart of the batch experiments in cmd/reprobench.
//
// Usage:
//
//	attacksim -attack strategic -scheme multi -trust average -prep 400
//	attacksim -attack colluding -scheme collusion-multi -goal 20
//	attacksim -attack periodic -window 40
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"honestplayer/internal/attack"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/sim"
	"honestplayer/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "attacksim:", err)
		os.Exit(1)
	}
}

type options struct {
	attackKind string
	scheme     string
	trustName  string
	lambda     float64
	prep       int
	prepP      float64
	goal       int
	threshold  float64
	window     int
	seed       uint64
	colluders  int
	clients    int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("attacksim", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.attackKind, "attack", "strategic", "attack: strategic | colluding | hibernating | periodic | cheatandrun")
	fs.StringVar(&o.scheme, "scheme", "multi", "behaviour testing: none | single | multi | collusion | collusion-multi")
	fs.StringVar(&o.trustName, "trust", "average", "trust function: average | weighted | beta")
	fs.Float64Var(&o.lambda, "lambda", 0.5, "lambda for the weighted trust function")
	fs.IntVar(&o.prep, "prep", 400, "preparation-phase length (transactions)")
	fs.Float64Var(&o.prepP, "prep-p", 0.95, "preparation-phase trustworthiness")
	fs.IntVar(&o.goal, "goal", 20, "bad transactions the attacker wants")
	fs.Float64Var(&o.threshold, "threshold", 0.9, "clients' trust threshold")
	fs.IntVar(&o.window, "window", 40, "attack window for -attack periodic")
	fs.Uint64Var(&o.seed, "seed", 42, "random seed")
	fs.IntVar(&o.colluders, "colluders", 5, "colluders for -attack colluding")
	fs.IntVar(&o.clients, "clients", 100, "total client pool for -attack colluding")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// -window is the periodic attack's, so m stays the behaviour default;
	// -seed drives both the calibration and the attack's randomness.
	assessor, err := core.Spec{Scheme: o.scheme, Trust: o.trustName, Lambda: o.lambda, Seed: o.seed}.Build()
	if err != nil {
		return err
	}
	rng := stats.NewRNG(o.seed)
	switch o.attackKind {
	case "strategic":
		return runStrategic(o, assessor, rng, out)
	case "colluding":
		return runColluding(o, assessor, rng, out)
	case "hibernating", "periodic", "cheatandrun":
		return runGenerated(o, assessor, rng, out)
	default:
		return fmt.Errorf("unknown attack %q", o.attackKind)
	}
}

func runStrategic(o options, assessor *core.TwoPhase, rng *stats.RNG, out io.Writer) error {
	h, err := attack.PrepareHistory("attacker", o.prep, o.prepP, 50, rng)
	if err != nil {
		return err
	}
	s := &attack.Strategic{Assessor: assessor, Threshold: o.threshold, GoalBad: o.goal}
	cost, err := s.Run(h)
	unreachable := errors.Is(err, attack.ErrGoalUnreachable)
	if err != nil && !unreachable {
		return err
	}
	fmt.Fprintf(out, "strategic attacker vs %s (threshold %.2f)\n", assessor.Name(), o.threshold)
	fmt.Fprintf(out, "preparation: %d transactions at %.0f%%\n", o.prep, o.prepP*100)
	printCost(out, cost, o.goal, unreachable)
	printTimeline(out, h, o.prep)
	return nil
}

func runColluding(o options, assessor *core.TwoPhase, rng *stats.RNG, out io.Writer) error {
	colluders := make([]feedback.EntityID, o.colluders)
	for i := range colluders {
		colluders[i] = feedback.EntityID("colluder-" + strconv.Itoa(i))
	}
	h, err := attack.PrepareByColluders("attacker", o.prep, o.prepP, colluders, rng)
	if err != nil {
		return err
	}
	pop, err := sim.NewPopulation("client", o.clients-o.colluders, 0, 0, 0, rng.Split())
	if err != nil {
		return err
	}
	c := &attack.Colluding{
		Assessor: assessor, Threshold: o.threshold, GoalBad: o.goal, Colluders: colluders,
	}
	cost, err := c.Run(h, pop)
	unreachable := errors.Is(err, attack.ErrGoalUnreachable)
	if err != nil && !unreachable {
		return err
	}
	fmt.Fprintf(out, "colluding attacker (%d colluders of %d clients) vs %s\n",
		o.colluders, o.clients, assessor.Name())
	fmt.Fprintf(out, "preparation: %d colluder-backed transactions at %.0f%%\n", o.prep, o.prepP*100)
	printCost(out, cost, o.goal, unreachable)
	fmt.Fprintf(out, "colluder fakes used: %d\n", cost.Colluded)
	printTimeline(out, h, o.prep)
	return nil
}

func runGenerated(o options, assessor *core.TwoPhase, rng *stats.RNG, out io.Writer) error {
	var (
		h   *feedback.History
		err error
	)
	switch o.attackKind {
	case "hibernating":
		h, err = attack.GenHibernating("attacker", o.prep, o.prepP, o.goal, rng)
	case "periodic":
		h, err = attack.GenPeriodic("attacker", o.prep+o.goal*10, o.window, 0.1, rng)
	case "cheatandrun":
		h, err = attack.GenCheatAndRun("attacker", o.prep, rng)
	}
	if err != nil {
		return err
	}
	a, err := assessor.Assess(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s history (%d transactions, good ratio %.3f) vs %s\n",
		o.attackKind, h.Len(), h.GoodRatio(), assessor.Name())
	if a.Suspicious {
		worst := a.Verdict.Worst()
		fmt.Fprintf(out, "verdict: SUSPICIOUS (L1 %.3f > eps %.3f over last %d txns)\n",
			worst.Distance, worst.Threshold, worst.Transactions)
	} else {
		fmt.Fprintf(out, "verdict: passes behaviour testing, trust %.3f\n", a.Trust)
	}
	printTimeline(out, h, 0)
	return nil
}

func printCost(out io.Writer, cost attack.Cost, goal int, unreachable bool) {
	if unreachable {
		fmt.Fprintf(out, "RESULT: goal NOT reached within the step budget (%d/%d bad)\n", cost.Bad, goal)
	} else {
		fmt.Fprintf(out, "RESULT: %d attacks achieved\n", cost.Bad)
	}
	fmt.Fprintf(out, "cost: %d genuine good transactions over %d steps\n", cost.Good, cost.Steps)
}

// printTimeline renders the attack phase as one character per transaction
// ('.' good, 'X' bad), 80 per line.
func printTimeline(out io.Writer, h *feedback.History, from int) {
	fmt.Fprintln(out, "attack-phase timeline (. good, X bad):")
	var sb strings.Builder
	for i := from; i < h.Len(); i++ {
		if h.At(i).Good() {
			sb.WriteByte('.')
		} else {
			sb.WriteByte('X')
		}
		if (i-from+1)%80 == 0 {
			sb.WriteByte('\n')
		}
	}
	fmt.Fprintln(out, strings.TrimRight(sb.String(), "\n"))
}
