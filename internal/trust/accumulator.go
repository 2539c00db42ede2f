package trust

// Accumulator is the serving-path wrapper around a Tracker: it consumes
// transaction outcomes in O(1) like the tracker, but reproduces the owning
// Func's Evaluate contract exactly — including ErrEmptyHistory before the
// first update — and keeps the good/total counts the assessment layer needs
// for Wilson confidence intervals. After consuming a history's outcomes in
// order, Value returns bit-identically what Evaluate returns on that
// history.
type Accumulator struct {
	fn      Func
	tracker Tracker
	n, good int
}

// NewAccumulator returns an incremental accumulator for fn, or (nil, false)
// when fn does not implement TrackerFunc. All built-in trust functions do.
func NewAccumulator(fn Func) (*Accumulator, bool) {
	tf, ok := fn.(TrackerFunc)
	if !ok {
		return nil, false
	}
	return &Accumulator{fn: fn, tracker: tf.NewTracker()}, true
}

// Name returns the name of the wrapped trust function.
func (a *Accumulator) Name() string { return a.fn.Name() }

// Update consumes the outcome of the next transaction in O(1).
func (a *Accumulator) Update(good bool) {
	a.n++
	if good {
		a.good++
	}
	a.tracker.Update(good)
}

// Value returns the current trust value, mirroring Func.Evaluate: it
// returns ErrEmptyHistory before the first update.
func (a *Accumulator) Value() (float64, error) {
	if a.n == 0 {
		return 0, ErrEmptyHistory
	}
	return a.tracker.Value(), nil
}

// Counts returns the number of consumed outcomes and how many were good —
// the inputs of the Wilson score interval around the trust value.
func (a *Accumulator) Counts() (n, good int) { return a.n, a.good }

// SizeBytes returns the approximate resident heap footprint of the
// accumulator. Trust trackers are small fixed-size counters (running sums,
// weighted averages, beta parameters), so a flat estimate covers the wrapper
// struct plus the tracker allocation; the behaviour-side accumulator is where
// per-server memory actually varies.
func (a *Accumulator) SizeBytes() int {
	const accSize = 64 // wrapper struct + interface boxes + counter tracker
	return accSize
}

// Clone returns an independent copy of the accumulator: updating either
// leaves the other as it was.
func (a *Accumulator) Clone() *Accumulator {
	c := *a
	c.tracker = a.tracker.clone()
	return &c
}
