package behavior

import (
	"math"
	"sync"
	"sync/atomic"

	"honestplayer/internal/stats"
)

// The B(m, p̂) PMF memo. A PMF table is a pure function of (m, p̂), not of the
// server it is read for, so one memo per tester serves every accumulator
// minted from it: a read over a w-window history touches ≈w distinct p̂
// values, equal good-count ratios over different suffix lengths divide to the
// same float64 (IEEE division is correctly rounded), and a node's servers
// drift over the same few thousand ratios.
//
// A generation is an open-addressing table whose payloads live in one flat
// float64 array (slot i's PMF occupies the i-th stride), so it carries no
// pointers for the garbage collector to scan. Slots are write-once: a miss
// fills the payload of a free slot and then publishes its key with an atomic
// store, so a hit is a lock-free probe and a PMF slice handed to a reader is
// never written again. The table doubles while its load passes half, up to
// the Config.ArenaCap-derived size; at the cap the current generation retires
// to prev and a freshly allocated one takes over. Lookups that miss the fresh
// table migrate their entry from prev with a copy — cheaper than the ~2m
// multiplications of a refill — while entries idle for a whole
// generation fall off with it. Growth and rotation never recycle buffers, so
// readers still holding slices of a retired array keep valid data. Any
// eviction or migration policy is result-neutral, the PMF being a pure
// function of its key.

// DefaultArenaCap is the default PMF-memo size cap in entries per generation
// (2^15). See Config.ArenaCap for the memory arithmetic.
const DefaultArenaCap = 1 << 15

const (
	pmfMinBits = 10
	// pmfCapMinBits floors the configured cap: a generation never runs
	// smaller than one probe window, or every miss would thrash the whole
	// table.
	pmfCapMinBits = 4
	pmfProbeLimit = 16
)

// pmfKey maps p̂ to its table key: the complement of its float64 bits, so the
// zero value of a slot means free. p̂ ∈ [0, 1] has bit patterns of at most
// 0x3FF0…0, whose complements are never zero.
func pmfKey(pHat float64) uint64 { return ^math.Float64bits(pHat) }

// pmfGen is one generation of the memo.
type pmfGen struct {
	shift  uint // 64 − table bits
	stride int  // m + 1 floats per slot
	keys   []atomic.Uint64
	pmfs   []float64 // len(keys)·stride
}

func newPMFGen(bits uint, stride int) *pmfGen {
	return &pmfGen{
		shift:  64 - bits,
		stride: stride,
		keys:   make([]atomic.Uint64, 1<<bits),
		pmfs:   make([]float64, (1<<bits)*stride),
	}
}

func (g *pmfGen) slot(i uint64) []float64 {
	off := int(i) * g.stride
	return g.pmfs[off : off+g.stride : off+g.stride]
}

// probe walks key's probe window. It returns the key's PMF when present;
// otherwise free is the first free slot of the window, or −1 when the window
// is full.
func (g *pmfGen) probe(key uint64) (pmf []float64, free int) {
	if g == nil {
		return nil, -1
	}
	mask := uint64(len(g.keys) - 1)
	base := (key * 0x9e3779b97f4a7c15) >> g.shift
	for p := uint64(0); p < pmfProbeLimit; p++ {
		i := (base + p) & mask
		switch g.keys[i].Load() {
		case key:
			return g.slot(i), -1
		case 0:
			return nil, int(i)
		}
	}
	return nil, -1
}

// pmfTables is the pair of generations readers see, published as one value.
type pmfTables struct {
	cur, prev *pmfGen
}

// pmfMemo is one tester's PMF memo. The zero value with m and maxBits set is
// ready; the first table is allocated by the first miss, so a tester that
// never mints an accumulator costs nothing.
type pmfMemo struct {
	m       int
	maxBits uint
	tables  atomic.Pointer[pmfTables]

	mu        sync.Mutex // serialises misses: slot claims, growth, rotation
	used      int        // published slots of the current generation
	prevUsed  int        // published slots of the previous generation
	bytes     int64      // resident size of the published tables
	rotations uint64
}

func newPMFMemo(m, arenaCap int) *pmfMemo {
	bits := uint(pmfCapMinBits)
	for 1<<bits < arenaCap {
		bits++
	}
	return &pmfMemo{m: m, maxBits: bits}
}

// get returns the PMF table of B(m, p̂). The returned slice is shared and
// must not be written. The fill is stats.BinomialPMFInto, the same code path
// a reference tester's scratch table takes, so memoising on the exact p̂ bits
// changes nothing about results.
func (c *pmfMemo) get(pHat float64) ([]float64, error) {
	key := pmfKey(pHat)
	if t := c.tables.Load(); t != nil {
		if pmf, _ := t.cur.probe(key); pmf != nil {
			return pmf, nil
		}
	}
	return c.miss(key, pHat)
}

// miss resolves a current-generation miss: it keeps the load under half
// (growing below the cap, rotating generations at it), migrates the entry
// from the previous generation when present, and fills afresh otherwise.
func (c *pmfMemo) miss(key uint64, pHat float64) ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tables.Load()
	if t == nil {
		bits := uint(pmfMinBits)
		if bits > c.maxBits {
			bits = c.maxBits
		}
		t = c.publish(&pmfTables{cur: newPMFGen(bits, c.m+1)})
	}
	pmf, free := t.cur.probe(key)
	if pmf != nil {
		return pmf, nil // another reader filled it while we waited
	}
	for free < 0 || c.used >= len(t.cur.keys)/2 {
		t = c.makeRoom(t)
		_, free = t.cur.probe(key)
	}
	dst := t.cur.slot(uint64(free))
	if prev, _ := t.prev.probe(key); prev != nil {
		copy(dst, prev)
	} else if err := stats.BinomialPMFInto(dst, c.m, pHat); err != nil {
		return nil, err
	}
	t.cur.keys[free].Store(key)
	c.used++
	return dst, nil
}

// makeRoom publishes a roomier current generation: double the size with the
// entries reinserted below the cap, empty at it (the old one retiring to
// prev). Entries that lose the probe race after rehashing are dropped. The
// caller repeats it until the key's probe window has a free slot, which an
// empty generation always has.
func (c *pmfMemo) makeRoom(t *pmfTables) *pmfTables {
	bits := 64 - t.cur.shift
	if bits >= c.maxBits {
		c.rotations++
		c.prevUsed, c.used = c.used, 0
		return c.publish(&pmfTables{cur: newPMFGen(bits, c.m+1), prev: t.cur})
	}
	grown := newPMFGen(bits+1, c.m+1)
	c.used = 0
	for i := range t.cur.keys {
		key := t.cur.keys[i].Load()
		if key == 0 {
			continue
		}
		if _, free := grown.probe(key); free >= 0 {
			copy(grown.slot(uint64(free)), t.cur.slot(uint64(i)))
			grown.keys[free].Store(key)
			c.used++
		}
	}
	return c.publish(&pmfTables{cur: grown}) // below the cap nothing has retired yet
}

func (c *pmfMemo) publish(t *pmfTables) *pmfTables {
	size := 0
	for _, g := range []*pmfGen{t.cur, t.prev} {
		if g != nil {
			size += len(g.keys)*8 + len(g.pmfs)*8
		}
	}
	c.bytes = int64(size)
	c.tables.Store(t)
	return t
}

// MemoStats describes a tester's shared PMF memo for metrics and memory
// accounting.
type MemoStats struct {
	// Bytes is the resident size of both generations' tables.
	Bytes int64
	// Entries counts the PMF tables currently memoised.
	Entries int
	// Rotations counts generation rotations since start.
	Rotations uint64
}

func (c *pmfMemo) stats() MemoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return MemoStats{Bytes: c.bytes, Entries: c.used + c.prevUsed, Rotations: c.rotations}
}
