package sim

import (
	"errors"
	"fmt"
	"time"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// ServerKind classifies a simulated service provider.
type ServerKind int

const (
	// Honest providers deliver good service with probability P.
	Honest ServerKind = iota + 1
	// Hibernating providers behave honestly for PrepLen transactions, then
	// always cheat (§3's hibernating attack).
	Hibernating
	// Periodic providers cheat on a fixed fraction of transactions within
	// every attack window (§3's periodic attack).
	Periodic
	// Colluding providers always cheat real clients and inject fake
	// positive feedback from a colluder ring every step (§4's threat).
	Colluding
)

// String implements fmt.Stringer.
func (k ServerKind) String() string {
	switch k {
	case Honest:
		return "honest"
	case Hibernating:
		return "hibernating"
	case Periodic:
		return "periodic"
	case Colluding:
		return "colluding"
	default:
		return fmt.Sprintf("ServerKind(%d)", int(k))
	}
}

// ServerSpec describes one provider in a scenario.
type ServerSpec struct {
	// ID is the provider's identity.
	ID feedback.EntityID
	// Kind selects the behaviour model.
	Kind ServerKind
	// P is the service quality of the honest phase (all kinds).
	P float64
	// PrepLen is the honest preparation length for Hibernating providers.
	PrepLen int
	// AttackWindow and BadFrac shape Periodic providers: ⌈window·frac⌉ bad
	// transactions per window of AttackWindow transactions.
	AttackWindow int
	BadFrac      float64
	// Colluders is the ring size for Colluding providers.
	Colluders int
}

func (s ServerSpec) validate() error {
	if s.ID == "" {
		return errors.New("sim: server spec without ID")
	}
	if s.P < 0 || s.P > 1 {
		return fmt.Errorf("sim: server %s P=%v", s.ID, s.P)
	}
	switch s.Kind {
	case Honest:
	case Hibernating:
		if s.PrepLen < 0 {
			return fmt.Errorf("sim: server %s PrepLen=%d", s.ID, s.PrepLen)
		}
	case Periodic:
		if s.AttackWindow < 1 || s.BadFrac < 0 || s.BadFrac > 1 {
			return fmt.Errorf("sim: server %s window=%d badFrac=%v", s.ID, s.AttackWindow, s.BadFrac)
		}
	case Colluding:
		if s.Colluders < 1 {
			return fmt.Errorf("sim: server %s colluders=%d", s.ID, s.Colluders)
		}
	default:
		return fmt.Errorf("sim: server %s unknown kind %d", s.ID, int(s.Kind))
	}
	return nil
}

// Config describes a marketplace scenario.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Steps is the number of client service requests to simulate.
	Steps int
	// Clients is the number of distinct clients issuing requests.
	Clients int
	// Threshold is the clients' trust threshold.
	Threshold float64
	// Servers are the competing providers.
	Servers []ServerSpec
	// Warmup transactions are granted to every server before assessment
	// starts, so new servers can build an assessable history (the paper's
	// remark on short histories, §7). Zero means 100.
	Warmup int
}

// ServerMetrics aggregates per-provider outcomes. Transactions and
// BadServed cover only the assessed phase; the unassessed warmup phase is
// reported separately so harm comparisons between policies are not diluted
// by identical warmup noise.
type ServerMetrics struct {
	Kind               ServerKind `json:"kind"`
	Transactions       int        `json:"transactions"`
	BadServed          int        `json:"badServed"`
	Flagged            int        `json:"flagged"`      // times phase 1 reported it suspicious
	FakeFeedback       int        `json:"fakeFeedback"` // colluder fakes injected
	WarmupTransactions int        `json:"warmupTransactions"`
	WarmupBad          int        `json:"warmupBad"`
}

// Metrics aggregates a scenario run.
type Metrics struct {
	Transactions int                                     `json:"transactions"`
	BadServed    int                                     `json:"badServed"`
	WarmupBad    int                                     `json:"warmupBad"`
	NoProvider   int                                     `json:"noProvider"`
	PerServer    map[feedback.EntityID]ServerMetrics     `json:"perServer"`
	Histories    map[feedback.EntityID]*feedback.History `json:"-"`
}

// serverState is the mutable runtime of one provider: its history and, in
// step with it, the assessment state clients consult (ADR 0016).
type serverState struct {
	spec    ServerSpec
	history *feedback.History
	acc     *core.ServerAccumulator
	served  int
	metrics ServerMetrics
}

// outcome produces the provider's next transaction quality.
func (s *serverState) outcome(rng *stats.RNG) bool {
	defer func() { s.served++ }()
	switch s.spec.Kind {
	case Colluding:
		return false // real clients are always cheated; fakes come separately
	case Hibernating:
		if s.served >= s.spec.PrepLen {
			return false
		}
		return rng.Bernoulli(s.spec.P)
	case Periodic:
		bad := int(float64(s.spec.AttackWindow)*s.spec.BadFrac + 0.999999)
		if s.served%s.spec.AttackWindow < bad {
			return false
		}
		return rng.Bernoulli(s.spec.P)
	default:
		return rng.Bernoulli(s.spec.P)
	}
}

// Run simulates the marketplace: at each step one client requests a
// service, assesses every provider with the given assessor, and transacts
// with the acceptable provider of highest trust (ties broken at random).
// The transaction outcome is produced by the provider's behaviour model and
// fed back into its history. Each provider's verdicts come from its own
// accumulator, so the assessor must have an incremental form
// (core.TwoPhase.SupportsIncremental), as every built-in one does.
func Run(cfg Config, assessor *core.TwoPhase) (*Metrics, error) {
	if assessor == nil {
		return nil, errors.New("sim: nil assessor")
	}
	if cfg.Steps < 0 || cfg.Clients < 1 || cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("sim: steps=%d clients=%d threshold=%v", cfg.Steps, cfg.Clients, cfg.Threshold)
	}
	if len(cfg.Servers) == 0 {
		return nil, errors.New("sim: no servers")
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 100
	}
	rng := stats.NewRNG(cfg.Seed)
	states := make([]*serverState, 0, len(cfg.Servers))
	for _, spec := range cfg.Servers {
		if err := spec.validate(); err != nil {
			return nil, err
		}
		acc, err := assessor.NewServerAccumulator(spec.ID)
		if err != nil {
			return nil, err
		}
		states = append(states, &serverState{spec: spec, history: feedback.NewHistory(spec.ID), acc: acc,
			metrics: ServerMetrics{Kind: spec.Kind}})
	}

	clock := 0
	record := func(st *serverState, client feedback.EntityID, good bool) error {
		if err := st.history.AppendOutcome(client, good, time.Unix(int64(clock), 0).UTC()); err != nil {
			return err
		}
		clock++
		st.acc.Append(st.history.At(st.history.Len() - 1))
		return nil
	}
	colluder := func(st *serverState) feedback.EntityID {
		return feedback.EntityID(fmt.Sprintf("%s-ring-%d", st.spec.ID, rng.Intn(st.spec.Colluders)))
	}
	transact := func(st *serverState, client feedback.EntityID, warmup bool) error {
		good := st.outcome(rng)
		if err := record(st, client, good); err != nil {
			return err
		}
		n, bad := &st.metrics.Transactions, &st.metrics.BadServed
		if warmup {
			n, bad = &st.metrics.WarmupTransactions, &st.metrics.WarmupBad
		}
		*n++
		if !good {
			*bad++
		}
		return nil
	}

	// Warmup: every provider builds cfg.Warmup transactions unassessed.
	// Colluding providers prep entirely through their ring, as in §5.2 —
	// the whole point is that their preparation costs nothing real.
	for _, st := range states {
		for i := 0; i < cfg.Warmup; i++ {
			if st.spec.Kind == Colluding {
				if err := record(st, colluder(st), rng.Bernoulli(st.spec.P)); err != nil {
					return nil, err
				}
				st.metrics.WarmupTransactions++
				st.metrics.FakeFeedback++
				continue
			}
			client := feedback.EntityID(fmt.Sprintf("client-%d", rng.Intn(cfg.Clients)))
			if err := transact(st, client, true); err != nil {
				return nil, err
			}
		}
	}

	m := &Metrics{
		PerServer: make(map[feedback.EntityID]ServerMetrics, len(states)),
		Histories: make(map[feedback.EntityID]*feedback.History, len(states)),
	}
	for step := 0; step < cfg.Steps; step++ {
		// Colluding providers inject one fake positive per step, keeping
		// their ratio high without serving anyone.
		for _, st := range states {
			if st.spec.Kind == Colluding {
				if err := record(st, colluder(st), true); err != nil {
					return nil, err
				}
				st.metrics.FakeFeedback++
			}
		}
		client := feedback.EntityID(fmt.Sprintf("client-%d", rng.Intn(cfg.Clients)))
		var (
			best      *serverState
			bestTrust float64
		)
		for _, st := range states {
			ok, a, err := st.acc.Accept(cfg.Threshold)
			if err != nil {
				return nil, fmt.Errorf("assess %s: %w", st.spec.ID, err)
			}
			if a.Suspicious {
				st.metrics.Flagged++
			}
			if !ok {
				continue
			}
			if best == nil || a.Trust > bestTrust || (a.Trust == bestTrust && rng.Bernoulli(0.5)) {
				best, bestTrust = st, a.Trust
			}
		}
		if best == nil {
			m.NoProvider++
			continue
		}
		if err := transact(best, client, false); err != nil {
			return nil, err
		}
	}
	for _, st := range states {
		m.PerServer[st.spec.ID] = st.metrics
		m.Histories[st.spec.ID] = st.history
		m.Transactions += st.metrics.Transactions
		m.BadServed += st.metrics.BadServed
		m.WarmupBad += st.metrics.WarmupBad
	}
	return m, nil
}
