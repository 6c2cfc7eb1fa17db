package rlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

// twin drives the window Log and the map-based reference model with the
// same calls and fails the test on the first observable difference.
type twin struct {
	t      *testing.T
	w      *Log
	r      *refLog
	smW    *kvstore.Store
	smR    *kvstore.Store
	rng    *rand.Rand
	belowF int // CompactTo calls that left an unexecuted entry below the floor
	far    int // successful accepts far beyond nextSlot
	past   int // snapshots whose floor lay past the log tail
}

func newTwin(t *testing.T, seed int64) *twin {
	return &twin{t: t, w: New(), r: newRef(), smW: kvstore.New(), smR: kvstore.New(), rng: rand.New(rand.NewSource(seed))}
}

func (p *twin) accept(slot uint64, b ids.Ballot, cmds []kvstore.Command) {
	next := p.r.nextSlot
	gw, gr := p.w.Accept(slot, b, cmds), p.r.Accept(slot, b, cmds)
	if gw != gr {
		p.t.Fatalf("Accept(%d, %d) = %v, reference %v", slot, b, gw, gr)
	}
	if gr && slot > next+100 {
		p.far++
	}
	p.check(fmt.Sprintf("Accept(%d, %d)", slot, b))
}

func (p *twin) commit(slot uint64, b ids.Ballot, cmds []kvstore.Command) {
	p.w.Commit(slot, b, cmds)
	p.r.Commit(slot, b, cmds)
	p.check(fmt.Sprintf("Commit(%d, %d)", slot, b))
}

func (p *twin) watermark(w uint64, b ids.Ballot) {
	nw, nr := p.w.CommitAccepted(w, b), p.r.CommitAccepted(w, b)
	if nw != nr {
		p.t.Fatalf("CommitAccepted(%d, %d) committed %d, reference %d", w, b, nw, nr)
	}
	p.check(fmt.Sprintf("CommitAccepted(%d, %d)", w, b))
}

func (p *twin) execute() {
	type step struct {
		slot uint64
		idx  int
	}
	var sw, sr []step
	nw := p.w.ExecuteReady(p.smW, func(s uint64, i int, _ kvstore.Command, _ kvstore.Result) { sw = append(sw, step{s, i}) })
	nr := p.r.ExecuteReady(p.smR, func(s uint64, i int, _ kvstore.Command, _ kvstore.Result) { sr = append(sr, step{s, i}) })
	if nw != nr || fmt.Sprint(sw) != fmt.Sprint(sr) {
		p.t.Fatalf("ExecuteReady ran %d %v, reference %d %v", nw, sw, nr, sr)
	}
	if p.smW.Checksum() != p.smR.Checksum() {
		p.t.Fatal("state machines diverged")
	}
	p.check("ExecuteReady")
}

func (p *twin) compact(slot uint64) {
	nw, nr := p.w.CompactTo(slot), p.r.CompactTo(slot)
	if nw != nr {
		p.t.Fatalf("CompactTo(%d) dropped %d, reference %d", slot, nw, nr)
	}
	for s, e := range p.r.entries {
		if s < p.r.firstSlot && !e.Executed {
			p.belowF++
			break
		}
	}
	p.check(fmt.Sprintf("CompactTo(%d)", slot))
}

func (p *twin) snapshot(floor uint64) {
	if floor > p.r.nextSlot {
		p.past++
	}
	p.w.InstallSnapshot(floor)
	p.r.InstallSnapshot(floor)
	p.check(fmt.Sprintf("InstallSnapshot(%d)", floor))
}

func sameEntry(a, b *Entry) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Ballot == b.Ballot && a.Committed == b.Committed && a.Executed == b.Executed &&
		slices.EqualFunc(a.Commands, b.Commands, func(x, y kvstore.Command) bool {
			return x.Op == y.Op && x.Key == y.Key && x.ClientID == y.ClientID && x.Seq == y.Seq && bytes.Equal(x.Value, y.Value)
		})
}

// check compares every observable of the two logs, plus the window's own
// invariants: base never passes the floor, a nonempty window's last page
// starts below nextSlot, and every allocated page holds an entry.
func (p *twin) check(op string) {
	p.t.Helper()
	w, r := p.w, p.r
	if w.Len() != len(r.entries) || w.CommittedCount() != r.CommittedCount() ||
		w.FirstSlot() != r.firstSlot || w.ExecuteCursor() != r.execCur || w.PeekNextSlot() != r.nextSlot {
		p.t.Fatalf("after %s: len %d/%d committed %d/%d first %d/%d exec %d/%d next %d/%d (window/reference)", op,
			w.Len(), len(r.entries), w.CommittedCount(), r.CommittedCount(), w.FirstSlot(), r.firstSlot,
			w.ExecuteCursor(), r.execCur, w.PeekNextSlot(), r.nextSlot)
	}
	for s, e := range r.entries {
		if !sameEntry(w.Get(s), e) {
			p.t.Fatalf("after %s: Get(%d) = %+v, reference %+v", op, s, w.Get(s), e)
		}
	}
	// Len agrees and every reference entry is present, so the window holds
	// no extras; probe the edges for nil agreement anyway.
	for _, s := range []uint64{0, w.base - 1, w.base, w.firstSlot, w.execCur, w.nextSlot, w.nextSlot + 1, w.end()} {
		if !sameEntry(w.Get(s), r.Get(s)) {
			p.t.Fatalf("after %s: Get(%d) = %+v, reference %+v", op, s, w.Get(s), r.Get(s))
		}
	}
	from := uint64(p.rng.Int63n(int64(r.nextSlot) + 3))
	uw, ur := w.Uncommitted(from), r.Uncommitted(from)
	if len(uw) != len(ur) {
		p.t.Fatalf("after %s: Uncommitted(%d) has %d slots, reference %d", op, from, len(uw), len(ur))
	}
	for i := range uw {
		if uw[i].Slot != ur[i].Slot || !sameEntry(&uw[i].Entry, &ur[i].Entry) {
			p.t.Fatalf("after %s: Uncommitted(%d)[%d] = %+v, reference %+v", op, from, i, uw[i], ur[i])
		}
	}
	if w.base > w.firstSlot || len(w.pages) > 0 && w.end()-pageSize >= w.nextSlot {
		p.t.Fatalf("after %s: window [%d, %d) outside [base ≤ first=%d, next=%d]", op,
			w.base, w.end(), w.firstSlot, w.nextSlot)
	}
	if a, h := w.pageUse(); a != h || (w.held == 0) != (w.pages == nil) {
		p.t.Fatalf("after %s: %d pages allocated, %d hold entries, %d in the table", op, a, h, len(w.pages))
	}
}

// end is the slot just past the window's last page.
func (l *Log) end() uint64 { return l.base + uint64(len(l.pages))*pageSize }

// pageUse counts the allocated pages and the pages that hold an entry.
func (l *Log) pageUse() (allocated, holding int) {
	for _, pg := range l.pages {
		if pg == nil {
			continue
		}
		allocated++
		for i := range pg {
			if pg[i].held {
				holding++
				break
			}
		}
	}
	return allocated, holding
}

// randomStep applies one random call, biased toward the slots a replica
// actually touches: just below the floor, around the execution cursor and
// just past the tail, with occasional far accepts, compactions above the
// execution cursor and snapshots past the tail.
func (p *twin) randomStep() {
	rng, r := p.rng, p.r
	near := func() uint64 {
		lo := r.firstSlot
		if lo > 3 {
			lo -= 3
		}
		return lo + uint64(rng.Int63n(int64(r.nextSlot+5-lo)))
	}
	ballot := bal(1 + rng.Intn(4))
	cmds := [][]kvstore.Command{nil, one(uint64(rng.Intn(8))), {cmd(1), cmd(uint64(rng.Intn(8)))}}[rng.Intn(3)]
	switch x := rng.Intn(100); {
	case x < 28:
		p.accept(near(), ballot, cmds)
	case x < 30:
		p.accept(r.nextSlot+101+uint64(rng.Intn(2000)), ballot, cmds)
	case x < 45:
		p.commit(r.execCur+uint64(rng.Intn(4)), ballot, cmds)
	case x < 55:
		p.commit(near(), ballot, cmds)
	case x < 64:
		p.execute()
	case x < 72:
		p.watermark(r.execCur+uint64(rng.Intn(int(r.nextSlot-r.execCur)+3)), ballot)
	case x < 82:
		lo := r.firstSlot
		if lo > 2 {
			lo -= 2
		}
		p.compact(lo + uint64(rng.Intn(int(r.execCur+6-lo))))
	case x < 86:
		floor := r.firstSlot + uint64(rng.Int63n(int64(max(r.nextSlot, r.firstSlot)-r.firstSlot)+1))
		if rng.Intn(3) == 0 {
			floor = r.nextSlot + 1 + uint64(rng.Intn(100))
		}
		p.snapshot(floor)
	case x < 93:
		if a, b := p.w.NextSlot(), p.r.NextSlot(); a != b {
			p.t.Fatalf("NextSlot = %d, reference %d", a, b)
		}
		p.check("NextSlot")
	default:
		s := r.nextSlot + uint64(rng.Intn(5))
		p.w.BumpNextSlot(s)
		p.r.BumpNextSlot(s)
		p.check(fmt.Sprintf("BumpNextSlot(%d)", s))
	}
}

// TestWindowMatchesReference drives the window log and the map-based
// reference with random call sequences and requires identical observables
// after every call.
func TestWindowMatchesReference(t *testing.T) {
	var belowF, far, past int
	for seed := int64(1); seed <= 40; seed++ {
		p := newTwin(t, seed)
		for i := 0; i < 1500; i++ {
			p.randomStep()
		}
		belowF += p.belowF
		far += p.far
		past += p.past
	}
	if belowF == 0 || far == 0 || past == 0 {
		t.Fatalf("edge cases not exercised: unexecuted-below-floor %d, far accepts %d, snapshots past tail %d", belowF, far, past)
	}
}

// TestWindowEdgeCases pins the three window edge cases in a fixed sequence
// against the reference.
func TestWindowEdgeCases(t *testing.T) {
	p := newTwin(t, 1)
	// An unexecuted entry below a CompactTo floor stays, and so does the
	// window's head with it.
	p.accept(1, bal(1), one(1))
	for s := uint64(2); s <= 6; s++ {
		p.commit(s, bal(1), one(s))
	}
	p.execute()
	p.compact(5)
	if p.belowF != 1 || p.w.Get(1) == nil || p.w.base != 1 {
		t.Fatalf("unexecuted slot 1 below floor 5: belowF=%d base=%d", p.belowF, p.w.base)
	}
	p.commit(1, bal(1), one(1)) // below the floor: ignored
	p.execute()                 // slot 1 still uncommitted: nothing runs
	// An accept far beyond nextSlot grows the window to span it.
	p.accept(5000, bal(2), one(9))
	if a, _ := p.w.pageUse(); p.far != 1 || p.w.end() != 1+20*pageSize || a != 2 {
		t.Fatalf("far accept: far=%d window ends at %d with %d pages", p.far, p.w.end(), a)
	}
	// A snapshot floor past the tail empties the log and its window.
	p.snapshot(6000)
	if p.past != 1 || p.w.Len() != 0 || p.w.pages != nil || p.w.base != 6000 {
		t.Fatalf("snapshot past tail: past=%d len=%d pages=%d base=%d", p.past, p.w.Len(), len(p.w.pages), p.w.base)
	}
	p.commit(6000, bal(2), one(3))
	p.execute()
}

// TestWindowMemoryBound documents the window's memory: a page table entry
// per pageSize slots of span from the oldest held entry to the highest slot
// seen, plus a page per run of pageSize slots that holds an entry. Compaction
// and snapshots release both.
func TestWindowMemoryBound(t *testing.T) {
	l := New()
	sm := kvstore.New()
	const n = 10 * pageSize
	for s := uint64(1); s <= n; s++ {
		l.Accept(s, bal(1), one(s))
		l.Commit(s, bal(1), one(s))
	}
	l.ExecuteReady(sm, nil)
	if a, _ := l.pageUse(); a != 10 || len(l.pages) != 10 {
		t.Fatalf("%d slots on %d pages in a %d-page table, want 10", n, a, len(l.pages))
	}
	// Compaction frees the pages it empties and cuts the table's head.
	l.CompactTo(n - 9)
	if a, _ := l.pageUse(); a != 1 || len(l.pages) != 1 || l.base != 1+9*pageSize {
		t.Fatalf("after compaction: base=%d, %d pages in a %d-page table", l.base, a, len(l.pages))
	}
	// A far accept costs a table entry per page of span and one page...
	far := uint64(n + 1_000_000)
	l.Accept(far, bal(1), one(1))
	if a, _ := l.pageUse(); a != 2 || l.end() <= far || l.end()-pageSize > far {
		t.Fatalf("far accept: %d pages, window ends at %d", a, l.end())
	}
	// ...and a snapshot past it releases everything.
	l.InstallSnapshot(far + 1)
	if l.Len() != 0 || l.pages != nil {
		t.Fatalf("snapshot kept %d entries in a %d-page table", l.Len(), len(l.pages))
	}
	// An unexecuted entry pins the table's head until a snapshot covers it;
	// the pages between hold nothing and stay unallocated.
	l = New()
	l.Accept(1, bal(1), one(1))
	l.Accept(n, bal(1), one(1))
	l.CompactTo(n)
	if a, _ := l.pageUse(); a != 2 || len(l.pages) != 10 {
		t.Fatalf("slot 1 held: %d pages in a %d-page table, want 2 in 10", a, len(l.pages))
	}
	l.InstallSnapshot(n)
	if a, _ := l.pageUse(); a != 1 || len(l.pages) != 1 || l.base != 1+9*pageSize {
		t.Fatalf("after snapshot: base=%d, %d pages in a %d-page table", l.base, a, len(l.pages))
	}
}
