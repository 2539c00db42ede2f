package behavior

// Resident-size self-reporting for the memory-budget governor. SizeBytes must
// be cheap enough to run on every accepted write (the store recomputes a
// server's accounted size under the shard lock after each append), so it
// derives the footprint from lengths and capacities in O(1).

const (
	szAccStruct = 128 // Accumulator struct itself (counters, slice headers)
	szCounter   = 4   // an entry of prefRing, counts or sums
)

// SizeBytes returns the approximate resident heap footprint of the
// accumulator: the per-phase window histograms and sums, the window string
// (one byte per record at m ≤ 255), and the collusion modes' history of
// their records. The threshold grid is not in it: it belongs to the
// calibrator.
// The estimate is computed from capacities — all variable-size members grow
// in uniform strides — so the cost is O(1) regardless of how much history
// the accumulator has consumed. It is an accounting figure, not an exact
// allocator measurement: the governor compares these figures against a byte
// budget, and a uniform small bias cancels out of that comparison.
func (a *Accumulator) SizeBytes() int {
	size := szAccStruct
	size += (cap(a.prefRing) + cap(a.counts) + cap(a.sums)) * szCounter
	size += cap(a.wins)
	if a.hist != nil {
		size += a.hist.SizeBytes()
	}
	return size
}
