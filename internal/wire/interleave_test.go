package wire

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
)

// TestConnectionInterleavings checks the connection's order rules on a
// bounded scope, with the test as the scheduler: it calls Encode, WriteV2
// or a drop, Commit at both ends and DecodePayload in every order that k ≤ 3
// frames a direction allow, and starts no goroutine. Down the connection go
// a node's verdicts on two servers whose histories grow or are rebuilt (a new
// lineage), and a keyed verdict on two grid points. Up it go a client's
// requests naming the two servers and two clients. Frame i is encoded before
// frame i+1; a frame is dropped (encoded, never written) or written after its
// encode and committed by its writer after the write. serve commits a
// response as it writes it, and repclient's send may let other frames be
// written between its write and its commit. The reader commits the frames
// in the order they were written. It decodes each frame once right after its
// own commit, and once more after every frame has committed, newest first.
// In every schedule:
//
//  1. every written frame decodes to what was sent;
//  2. no commit fails;
//  3. both ends' tables are equal once every written frame has committed;
//  4. an encode commits nothing, so a dropped frame changes nothing.
//
// A node plans a frame before the frame written ahead of it has committed in
// some schedules, which serve never does. In those:
//
//  5. either every frame commits and decodes to what was sent, or the
//     node's commit of a frame planned against slots it no longer holds
//     fails, its end refuses every commit after that, and every frame the
//     client committed before that frame still decodes to what was sent.
//
// The refused frame has been written by the time its commit fails: the
// client commits it, and may decode it against bits the node never held.
// The log counts those frames.
func TestConnectionInterleavings(t *testing.T) {
	x := newInterleaver(t)
	for _, d := range x.directions() {
		t.Run(d.name, func(t *testing.T) {
			x.sections(t, d)
			x.misread = 0
			schedules, served, refused := 0, 0, 0
			eachWord(len(d.letters), 3, func(word []int) bool {
				eachSchedule(len(word), d.split, func(written []bool, steps []step) {
					schedules++
					switch x.run(t, d, word, written, steps) {
					case inOrder:
						served++
					case refusedStale:
						refused++
					}
				})
				return !t.Failed()
			})
			t.Logf("%d schedules: %d in serve's order; of the rest, %d refused at the writer's commit, in which the reader decoded %d frames to other than was sent", schedules, served, refused, x.misread)
		})
	}
}

// step is one event of a writer's schedule: frame i's encode ('e'), its
// write ('w'), its commit at the writer ('c'), or its write and commit
// together ('W').
type step struct {
	op byte
	i  int
}

// eachWord calls visit with every sequence of 1 to k letters of an alphabet
// of n, until visit returns false.
func eachWord(n, k int, visit func([]int) bool) {
	var walk func(word []int) bool
	walk = func(word []int) bool {
		if len(word) > 0 && !visit(word) {
			return false
		}
		for l := range n {
			if len(word) == k || !walk(append(word, l)) {
				return len(word) == k
			}
		}
		return true
	}
	walk(make([]int, 0, k))
}

// eachSchedule calls visit with every schedule of k frames: each subset of
// them written, the rest dropped, and every order of the steps in which
// frame i is encoded before frame i+1 and a written frame is written after
// its encode and committed after its write — at once, unless split.
func eachSchedule(k int, split bool, visit func(written []bool, steps []step)) {
	written := make([]bool, k)
	stage := make([]byte, k) // 0, then 'e', 'w' and 'c' as each is done
	var steps []step
	var walk func(next int)
	walk = func(next int) {
		done := next == k
		for i := range next {
			done = done && (!written[i] || stage[i] == 'c')
		}
		if done {
			visit(written, steps)
			return
		}
		try := func(i int, op, to byte) {
			from := stage[i]
			stage[i], steps = to, append(steps, step{op, i})
			walk(max(next, i+1))
			stage[i], steps = from, steps[:len(steps)-1]
		}
		if next < k {
			try(next, 'e', 'e')
		}
		for i := range next {
			switch {
			case !written[i]:
			case stage[i] == 'e' && !split:
				try(i, 'W', 'c')
			case stage[i] == 'e':
				try(i, 'w', 'w')
			case stage[i] == 'w':
				try(i, 'c', 'c')
			}
		}
	}
	for mask := range 1 << k {
		for i := range written {
			written[i] = mask>>i&1 != 0
		}
		walk(0)
	}
}

// interleaver holds what every schedule shares: the assessor, each history
// lineage it has grown and the verdicts it has judged.
type interleaver struct {
	tb      testing.TB
	tp      *core.TwoPhase
	a, b    *line
	lines   map[uint64]*line // by lineage
	judged  map[*feedback.History][2]AssessBatchItem
	a0, b0  int // the records A and B start with
	servers [2]feedback.EntityID
	misread int // frames a writer's commit refused that a reader decoded to other than was sent
}

// line is one lineage of a server's history, grown on demand, with its view
// at each length it has passed and the lineages rebuilt from it.
type line struct {
	h       *feedback.History
	views   map[int]*feedback.History
	rebuilt map[int]*line
}

func newInterleaver(tb testing.TB) *interleaver {
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	x := &interleaver{tb: tb, tp: tp, lines: map[uint64]*line{}, judged: map[*feedback.History][2]AssessBatchItem{},
		a0: 60, b0: 56, servers: [2]feedback.EntityID{"s-a", "s-b"}}
	x.a = x.newLine(feedback.NewHistory(x.servers[0]))
	x.b = x.newLine(feedback.NewHistory(x.servers[1]))
	x.at(x.a, x.a0)
	x.at(x.b, x.b0)
	return x
}

func (x *interleaver) newLine(h *feedback.History) *line {
	l := &line{h: h, views: map[int]*feedback.History{h.Len(): h.SnapshotView()}, rebuilt: map[int]*line{}}
	x.lines[h.Lineage()] = l
	return l
}

// at returns l's view at n records, growing it to n: record j is bad when
// j·7 mod 10 is 3, and comes a second after the one before.
func (x *interleaver) at(l *line, n int) *feedback.History {
	for l.h.Len() < n {
		j, at := l.h.Len(), time.Unix(1000, 0)
		if j > 0 {
			at = l.h.At(j - 1).Time.Add(time.Second)
		}
		if err := l.h.AppendOutcome(feedback.EntityID(fmt.Sprint("c", j%4)), j*7%10 != 3, at); err != nil {
			x.tb.Fatal(err)
		}
		l.views[l.h.Len()] = l.h.SnapshotView()
	}
	return l.views[n]
}

// rebuild returns l's history at n records rebuilt around a bad record older
// than its first (rebuilt): a lineage of n + 1 records, every bit moved.
func (x *interleaver) rebuild(l *line, n int) *line {
	if l.rebuilt[n] == nil {
		l.rebuilt[n] = x.newLine(rebuilt(x.tb, x.at(l, n)))
	}
	return l.rebuilt[n]
}

// item is the verdict on view, as a node sends it and as a client reads it.
func (x *interleaver) item(view *feedback.History) (sent, read AssessBatchItem) {
	if got, ok := x.judged[view]; ok {
		return got[0], got[1]
	}
	accept, a, err := x.tp.Accept(view, 0.9)
	if err != nil {
		x.tb.Fatal(err)
	}
	read = AssessBatchItem{Server: view.Server(), AssessResponse: AssessResponse{Assessment: a, Accept: accept}}
	sent = read
	sent.Judged = view
	x.judged[view] = [2]AssessBatchItem{sent, read}
	return sent, read
}

// world is one schedule's servers: the lineage each history is of and its
// records.
type world struct {
	a, b   *line
	an, bn int
}

// letter is a frame of a direction's alphabet: its type, and the payload a
// writer sends and a reader decodes, planned on the world as the frame's
// encode finds it.
type letter struct {
	typ  MsgType
	plan func(x *interleaver, w *world) (sent, want any)
}

// direction is one way across the connection: its alphabet, whether its
// writer may let other frames be written between a frame's write and its
// commit, whether its frames carry grid bindings and mirror rows, and the
// bounds of both ends' tables.
type direction struct {
	name     string
	letters  []letter
	split    bool
	verdicts bool
	lim      limits
}

// codec returns a binary connection end within d's bounds.
func (d direction) codec() Codec { return Codec{st: newConnState(d.lim)} }

func (x *interleaver) directions() []direction {
	single := func(x *interleaver, h *feedback.History) (any, any) {
		sent, read := x.item(h)
		return sent.AssessResponse, read.AssessResponse
	}
	down := []letter{
		{TypeAssessR, func(x *interleaver, w *world) (any, any) { // A grows
			w.an++
			return single(x, x.at(w.a, w.an))
		}},
		{TypeAssessBR, func(x *interleaver, w *world) (any, any) { // B grows, then A and B in one batch
			w.bn++
			sb, rb := x.item(x.at(w.b, w.bn))
			sa, ra := x.item(x.at(w.a, w.an))
			return AssessBatchResponse{Items: []AssessBatchItem{sb, sa}}, AssessBatchResponse{Items: []AssessBatchItem{rb, ra}}
		}},
		{TypeAssessR, func(x *interleaver, w *world) (any, any) { // A rebuilt
			w.a = x.rebuild(w.a, w.an)
			w.an++
			return single(x, x.at(w.a, w.an))
		}},
		{TypeAssessR, func(*interleaver, *world) (any, any) { // keyed rows on two grid points, and one past the grid
			a := AssessResponse{Assessment: testAssessment()}
			a.Assessment.Verdict.Suffixes = append(a.Assessment.Verdict.Suffixes,
				behavior.SuffixResult{Transactions: 50000, Windows: 5000, PHat: 0.9, Distance: 0.01, Threshold: 0.02, Pass: true})
			return a, a
		}},
	}
	record := func(i int, server, client feedback.EntityID) feedback.Feedback {
		f := testRecord(i)
		f.Server, f.Client = server, client
		return f
	}
	same := func(p any) func(*interleaver, *world) (any, any) {
		return func(*interleaver, *world) (any, any) { return p, p }
	}
	sa, sb := x.servers[0], x.servers[1]
	up := []letter{
		{TypeAssessB, same(AssessBatchRequest{Servers: []feedback.EntityID{sa, sb}, Threshold: 0.9})},
		{TypeSubmitB, same(BatchRequest{Records: []feedback.Feedback{record(1, sa, "u-1"), record(2, sb, "u-2")}})},
		{TypeSubmit, same(SubmitRequest{Feedback: record(3, sb, "u-1")})},
	}
	// Each table's bound scaled down, so that the alphabet passes it: past
	// the mirror's slots a server takes the slot of the one written least
	// recently, or its chain writes its counts; past its bits a row evicts;
	// past the name table's names or bytes a name rides literal.
	few := func(f func(*limits)) limits {
		lim := connLimits
		f(&lim)
		return lim
	}
	return []direction{
		{name: "down", letters: down, verdicts: true, lim: connLimits},
		{name: "up", letters: up, split: true, lim: connLimits},
		{name: "down past one mirror slot", letters: down, verdicts: true, lim: few(func(l *limits) { l.mirrorSlots = 1 })},
		{name: "down past 100 mirror bits", letters: down, verdicts: true, lim: few(func(l *limits) { l.mirrorBits = 100 })},
		{name: "up past three names", letters: up, split: true, lim: few(func(l *limits) { l.nameSlots = 3 })},
		{name: "up past 8 name bytes", letters: up, split: true, lim: few(func(l *limits) { l.nameBytes = 8 })},
	}
}

// sections checks that d's alphabet, one letter after another on one
// connection, writes every section a direction of its kind carries, and
// passes every bound d scales down: a name rides literal, or a mirror row
// evicts a slot or takes another server's.
func (x *interleaver) sections(t *testing.T, d direction) {
	c, w := d.codec(), &world{a: x.a, b: x.b, an: x.a0, bn: x.b0}
	out := &c.st.out
	var names, bindings, mirror, passed bool
	for i, l := range d.letters {
		sent, _ := l.plan(x, w)
		env, err := c.Encode(l.typ, uint64(i+1), sent)
		if env.plan.sections != nil {
			passed = passed || len(env.plan.evict) > 0
			for _, r := range env.plan.rows {
				passed = passed || r.reset && int(r.slot) < len(out.mirror.sent) && out.mirror.sent[r.slot].server != r.server
			}
		}
		if err == nil {
			err = c.Commit(&env)
		}
		if err != nil {
			t.Fatal(err)
		}
		names, bindings, mirror = names || env.Names, bindings || env.Bindings, mirror || env.Mirror
	}
	if !names || bindings != d.verdicts || mirror != d.verdicts {
		t.Fatalf("%s: the alphabet writes name sections %v, binding sections %v, mirror sections %v", d.name, names, bindings, mirror)
	}
	passed = passed || len(out.names.slot) < len(x.names(d))
	if bounded := d.lim != connLimits; passed != bounded {
		t.Fatalf("%s: the alphabet passes a table's bound: %v", d.name, passed)
	}
}

// names is the names d's alphabet writes.
func (x *interleaver) names(d direction) map[string]bool {
	names := map[string]bool{string(x.servers[0]): true, string(x.servers[1]): true}
	if d.verdicts {
		a := testAssessment()
		names[string(a.Server)], names[a.Tester], names[a.TrustFunc] = true, true, true
	} else {
		names["u-1"], names["u-2"] = true, true
	}
	return names
}

// A schedule's kind: in serve's order, every written frame encoded after the
// frames written before it committed; out of it, with every commit holding
// or with a frame the writer's commit refused.
const (
	inOrder = iota
	outOfOrder
	refusedStale
)

// run plays one schedule of the frames word names on a fresh connection,
// checks it and returns its kind.
func (x *interleaver) run(t *testing.T, d direction, word []int, written []bool, steps []step) (kind int) {
	t.Helper()
	k := len(word)
	where := func() string {
		var s strings.Builder
		for _, l := range word {
			fmt.Fprintf(&s, "%c", 'a'+l)
		}
		s.WriteString(":")
		for _, st := range steps {
			fmt.Fprintf(&s, " %c%d", st.op, st.i)
		}
		return s.String()
	}
	wr := d.codec()
	w := &world{a: x.a, b: x.b, an: x.a0, bn: x.b0}
	envs, wants, frames := make([]Envelope, k), make([]any, k), make([][]byte, k)
	seen := make([]map[int]bool, k) // the frames committed when frame i was encoded
	committed := map[int]bool{}
	var order []int // the written frames, in write order
	strict, stopped := true, -1
	commit := func(i int) {
		if err := wr.Commit(&envs[i]); err != nil {
			if strict {
				t.Fatalf("%s: frame %d: commit at the writer: %v", where(), i, err)
			}
			stopped = i // serve stops at a failed commit
			return
		}
		committed[i] = true
	}
	for _, s := range steps {
		i := s.i
		if stopped >= 0 {
			break
		}
		switch s.op {
		case 'e':
			before := x.tables(wr, true, d.verdicts)
			l := d.letters[word[i]]
			sent, want := l.plan(x, w)
			env, err := wr.Encode(l.typ, uint64(i+1), sent)
			if err != nil || !env.Binary {
				t.Fatalf("%s: frame %d: encode: binary=%v, %v", where(), i, env.Binary, err)
			}
			if after := x.tables(wr, true, d.verdicts); !reflect.DeepEqual(before, after) {
				t.Fatalf("%s: frame %d: an encode changed the writer's tables:\n%v\n%v", where(), i, before, after)
			}
			envs[i], wants[i], seen[i] = env, want, maps.Clone(committed)
		case 'w', 'W':
			for _, j := range order {
				strict = strict && seen[i][j]
			}
			var buf bytes.Buffer
			if err := WriteV2(&buf, envs[i]); err != nil {
				t.Fatal(err)
			}
			frames[i], order = buf.Bytes(), append(order, i)
			if s.op == 'W' {
				commit(i)
			}
		case 'c':
			commit(i)
		}
	}
	strict = strict || !d.verdicts // names are planned in any order
	switch {
	case strict:
		kind = inOrder
	case stopped >= 0:
		kind = refusedStale
	default:
		kind = outOfOrder
	}
	// The first frame past which the client's bits may differ from the
	// node's: the frame the node's commit refused.
	trusted := len(order)
	if stopped >= 0 {
		for p, i := range order {
			if i == stopped {
				trusted = p
			}
		}
		late := order[len(order)-1]
		if err := wr.Commit(&envs[late]); err == nil {
			t.Fatalf("%s: the writer refused frame %d, then committed frame %d", where(), stopped, late)
		}
	}
	// A node whose commits all held has written nothing the client reads
	// differently.
	strict = strict || stopped < 0
	for _, newestFirst := range []bool{false, true} {
		rd := d.codec()
		envsRead := make([]Envelope, len(order))
		broken := false
		decode := func(p int) {
			i := order[p]
			out := newPayload(wants[i])
			err := rd.DecodePayload(envsRead[p], out)
			switch {
			case p >= trusted: // the refused frame and those after it: anything but a commit
				if err == nil && !newestFirst && !reflect.DeepEqual(reflect.ValueOf(out).Elem().Interface(), wants[i]) {
					x.misread++
				}
			case err != nil && broken && !strict:
			case err != nil:
				t.Fatalf("%s: frame %d (%s): decode at the reader: %v", where(), i, envs[i].Type, err)
			case !reflect.DeepEqual(reflect.ValueOf(out).Elem().Interface(), wants[i]):
				t.Fatalf("%s: frame %d (%s) decodes to other than was sent", where(), i, envs[i].Type)
			}
			broken = broken || err != nil
		}
		for p, i := range order {
			env, err := ReadV2(bytes.NewReader(frames[i]))
			if err == nil {
				err = rd.Commit(&env)
			}
			envsRead[p] = env
			switch {
			case err == nil && broken:
				t.Fatalf("%s: frame %d: the reader committed after it refused a frame", where(), i)
			case err != nil && strict:
				t.Fatalf("%s: frame %d (%s): commit at the reader: %v", where(), i, env.Type, err)
			case err != nil:
				broken = true
			case !newestFirst:
				decode(p)
			}
		}
		if newestFirst {
			for p := len(order) - 1; p >= 0; p-- {
				decode(p)
			}
		}
		if strict {
			if mine, theirs := x.tables(wr, true, d.verdicts), x.tables(rd, false, d.verdicts); !reflect.DeepEqual(mine, theirs) {
				t.Fatalf("%s: the ends' tables differ at quiescence:\nwriter %v\nreader %v", where(), mine, theirs)
			}
		}
	}
	return kind
}

// connTables is what one direction of a connection holds at one end, in a
// form the two ends compare: each name slot's name, each grid slot's
// threshold bits and each mirror slot's good bits ('1' good).
type connTables struct {
	names  map[uint32]string
	grid   map[uint32]uint64
	mirror map[uint32]string
}

// tables is what c holds of the direction it writes (writer) or reads: at
// the writer, what its commits say the reader holds. Grid slots and mirror
// rows are read only for a direction that carries verdicts.
func (x *interleaver) tables(c Codec, writer, verdicts bool) connTables {
	ct := connTables{names: map[uint32]string{}, grid: map[uint32]uint64{}, mirror: map[uint32]string{}}
	s := &c.st.in
	if writer {
		s = &c.st.out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for r := range s.names.rows {
		if row := s.names.rows[r].Load(); row != nil {
			for j := range row {
				if held := row[j].Load(); held != nil {
					ct.names[uint32(r*nameRowLen+j)] = held.name
				}
			}
		}
	}
	if !verdicts {
		return ct
	}
	for r := range s.grid.rows {
		if row := s.grid.rows[r].Load(); row != nil {
			for j := range *row {
				if v := (*row)[j].Load(); v != 0 {
					ct.grid[uint32(r*gridP+j)] = ^v
				}
			}
		}
	}
	bitsOf := func(g goodSource, n int) string {
		var b strings.Builder
		for j := range n {
			b.WriteByte('0' + byte(g.GoodInRange(j, j+1)))
		}
		return b.String()
	}
	for slot, sent := range s.mirror.sent {
		if sent.n > 0 {
			ct.mirror[uint32(slot)] = bitsOf(x.lines[sent.lineage].h, sent.n)
		}
	}
	for slot, g := range s.mirror.held {
		if g.n > 0 {
			ct.mirror[uint32(slot)] = bitsOf(&g, g.n)
		}
	}
	return ct
}
