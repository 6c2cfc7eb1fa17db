// Package rlog implements the replicated command log shared by Paxos and
// PigPaxos replicas: a paged slot-indexed window with commit tracking and an
// in-order execution cursor that tolerates gaps (commands execute only once
// every lower slot has executed, per Paxos phase-3 semantics).
//
// Each slot holds a command *batch*: the leader may pack several client
// commands into one consensus instance, amortizing the fan-out round over
// the whole batch. A one-element batch is the unbatched degenerate case; a
// nil batch is a no-op filler slot (leader-change gap anchoring).
package rlog

import (
	"fmt"
	"slices"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wal"
)

// Entry is one slot of the replicated log.
type Entry struct {
	Ballot    ids.Ballot        // ballot under which the batch was accepted
	Commands  []kvstore.Command // the accepted command batch (nil = no-op)
	Committed bool              // leader anchored the batch
	Executed  bool              // applied to the state machine

	held bool // the slot holds an entry; false marks a hole in the window
}

// pageSize is how many consecutive slots one page of the window holds.
const (
	pageBits = 8
	pageSize = 1 << pageBits
)

type page [pageSize]Entry

// Log is a single replica's view of the replicated log. It is not safe for
// concurrent use; each replica's event loop owns its log.
//
// Entries live in a window of fixed-size pages: pages[i] holds slots
// [base+i·pageSize, base+(i+1)·pageSize), and a page is allocated only while
// it holds an entry. Accept and Commit only touch slots at or above the
// compaction floor, and base never passes the floor, so the window only
// grows at its tail; CompactTo and InstallSnapshot free the pages they
// empty and cut the window's head. Memory is one pointer per pageSize slots
// of span, from the oldest held entry to the highest slot seen, plus one
// page per run of pageSize slots that holds an entry. Entries never move,
// so a pointer from Get stays valid until its entry is dropped.
type Log struct {
	pages     []*page
	base      uint64 // first slot of pages[0]; never above firstSlot
	held      int    // live entries
	firstSlot uint64 // lowest slot that may still be unexecuted
	nextSlot  uint64 // next slot a leader would propose into
	execCur   uint64 // next slot to execute
	// commitCur is the committed-prefix cursor: every entry in
	// [execCur, commitCur) is committed, so CommitAccepted starts past them.
	commitCur uint64

	// st, when attached, journals every Accept and Commit so the log is
	// reconstructible after a crash. Attached only after boot replay, so
	// replaying records does not re-journal them.
	st wal.Storage
}

// New creates an empty log whose first slot is 1.
func New() *Log {
	return &Log{base: 1, firstSlot: 1, nextSlot: 1, execCur: 1, commitCur: 1}
}

// Attach turns on journaling: every subsequent Accept and Commit is
// appended to st (buffered; the replica decides when to Sync). Callers
// replay st into the log first, then attach.
func (l *Log) Attach(st wal.Storage) { l.st = st }

// InstallSnapshot positions the log on top of a state-machine snapshot
// covering every slot below floor: entries below floor are dropped and all
// cursors advance to at least floor. Handles a snapshot newer than the log
// tail (floor beyond nextSlot) — the log simply becomes empty at floor.
func (l *Log) InstallSnapshot(floor uint64) {
	l.dropBelow(floor, func(*Entry) bool { return true })
	if floor > l.firstSlot {
		l.firstSlot = floor
	}
	if floor > l.execCur {
		l.execCur = floor
	}
	if floor > l.nextSlot {
		l.nextSlot = floor
	}
	l.trim()
}

// NextSlot returns the next unproposed slot and advances the proposal cursor.
func (l *Log) NextSlot() uint64 {
	s := l.nextSlot
	l.nextSlot++
	return s
}

// PeekNextSlot returns the next unproposed slot without advancing.
func (l *Log) PeekNextSlot() uint64 { return l.nextSlot }

// BumpNextSlot ensures the proposal cursor is strictly beyond slot. Called
// when a replica learns of higher slots (e.g. a new leader recovering state).
func (l *Log) BumpNextSlot(slot uint64) {
	if slot >= l.nextSlot {
		l.nextSlot = slot + 1
	}
}

// Accept records batch cmds as accepted in slot under ballot b, overwriting
// any previously accepted value with a lower ballot. It returns false when
// the slot already holds a value under a higher ballot (the accept is stale)
// or the slot has already committed a different proposal.
func (l *Log) Accept(slot uint64, b ids.Ballot, cmds []kvstore.Command) bool {
	if slot < l.firstSlot {
		// Compacted ⇒ committed and executed: any new proposal for the slot
		// is necessarily stale. Accepting it as a fresh entry would let a
		// lagging leader quorum a no-op over an anchored batch.
		return false
	}
	e := l.Get(slot)
	if e == nil {
		e = l.add(slot)
		e.Ballot, e.Commands = b, cmds
		l.accepted(slot, e)
		return true
	}
	if e.Committed {
		// Same-ballot re-delivery is fine; conflicting commit is a bug
		// upstream, refuse to overwrite.
		return e.Ballot == b
	}
	if b < e.Ballot {
		return false
	}
	e.Ballot = b
	e.Commands = cmds
	l.accepted(slot, e)
	return true
}

// accepted finishes an Accept that left uncommitted entry e at slot.
func (l *Log) accepted(slot uint64, e *Entry) {
	l.commitCur = min(l.commitCur, slot)
	l.BumpNextSlot(slot)
	l.journal(wal.KindAccept, slot, e.Ballot, e.Commands)
}

// journal appends one record to the attached storage (buffered until the
// replica syncs). Append on the provided implementations cannot fail; an
// I/O error from a file-backed journal is fatal — continuing would
// acknowledge state that was never persisted.
func (l *Log) journal(kind wal.Kind, slot uint64, b ids.Ballot, cmds []kvstore.Command) {
	if l.st == nil {
		return
	}
	if err := l.st.Append(wal.Record{Kind: kind, Ballot: b, Slot: slot, Cmds: cmds}); err != nil {
		panic(fmt.Sprintf("rlog: journal append failed: %v", err))
	}
}

// Commit marks slot committed with batch cmds. Commit is authoritative:
// phase-3 messages carry the anchored batch, so the entry is overwritten
// even if a different value was accepted locally under an older ballot.
func (l *Log) Commit(slot uint64, b ids.Ballot, cmds []kvstore.Command) {
	if slot < l.firstSlot {
		return // compacted: already committed and executed here
	}
	e := l.Get(slot)
	if e == nil {
		e = l.add(slot)
	}
	if e.Executed {
		return
	}
	e.Ballot = b
	e.Commands = cmds
	e.Committed = true
	l.BumpNextSlot(slot)
	l.journal(wal.KindCommit, slot, b, cmds)
}

// CommitAccepted commits, in slot order, every uncommitted entry below w
// that was accepted under ballot b — the commit-watermark rule: such values
// are necessarily the anchored ones. It returns how many it committed. The
// scan starts at the committed-prefix cursor rather than the execution
// cursor, so a follower stalled on a gap does not rescan its committed tail
// on every watermark.
func (l *Log) CommitAccepted(w uint64, b ids.Ballot) int {
	n := 0
	slot := max(l.execCur, l.commitCur)
	cur := w // first slot below w left uncommitted, if any
	for ; slot < w; slot++ {
		e := l.Get(slot)
		if e == nil || e.Committed {
			continue
		}
		if e.Ballot != b {
			cur = min(cur, slot)
			continue
		}
		l.Commit(slot, b, e.Commands)
		n++
		if !e.Committed {
			cur = min(cur, slot) // held below the floor: Commit refuses it
		}
	}
	if cur > l.commitCur {
		l.commitCur = cur
	}
	return n
}

// Get returns the entry at slot, or nil.
func (l *Log) Get(slot uint64) *Entry {
	if slot < l.base {
		return nil
	}
	off := slot - l.base
	if p := off >> pageBits; p < uint64(len(l.pages)) && l.pages[p] != nil {
		if e := &l.pages[p][off%pageSize]; e.held {
			return e
		}
	}
	return nil
}

// add returns a fresh entry for slot, which must hold none and lie at or
// above base, growing the window's tail to reach it.
func (l *Log) add(slot uint64) *Entry {
	off := slot - l.base
	p := off >> pageBits
	if n := uint64(len(l.pages)); p >= n {
		l.pages = slices.Grow(l.pages, int(p+1-n))[:p+1]
	}
	if l.pages[p] == nil {
		l.pages[p] = new(page)
	}
	e := &l.pages[p][off%pageSize]
	e.held = true
	l.held++
	return e
}

// each calls fn for every entry at or above slot from, in slot order.
func (l *Log) each(from uint64, fn func(slot uint64, e *Entry)) {
	for p, pg := range l.pages {
		start := l.base + uint64(p)<<pageBits
		if pg == nil || start+pageSize <= from {
			continue
		}
		for i := range pg {
			if s := start + uint64(i); pg[i].held && s >= from {
				fn(s, &pg[i])
			}
		}
	}
}

// dropBelow removes the entries below slot that drop selects, frees the
// pages it empties and cuts the window's head; it returns how many it
// removed.
func (l *Log) dropBelow(slot uint64, drop func(*Entry) bool) int {
	n := 0
	for p, pg := range l.pages {
		start := l.base + uint64(p)<<pageBits
		if start >= slot {
			break
		}
		if pg == nil {
			continue
		}
		left := 0
		for i := range pg {
			if e := &pg[i]; e.held {
				if start+uint64(i) < slot && drop(e) {
					*e = Entry{}
					n++
				} else {
					left++
				}
			}
		}
		if left == 0 {
			l.pages[p] = nil
		}
	}
	l.held -= n
	return n
}

// trim cuts the window's leading unallocated pages below firstSlot, keeping
// base at or below it; an empty log drops its page table and restarts the
// window at firstSlot.
func (l *Log) trim() {
	if l.held == 0 {
		l.pages, l.base = nil, l.firstSlot
		return
	}
	k := 0
	for l.pages[k] == nil && l.base+uint64(k+1)<<pageBits <= l.firstSlot {
		k++
	}
	l.pages = l.pages[k:]
	l.base += uint64(k) << pageBits
}

// ExecuteReady applies every contiguous committed-but-unexecuted batch
// starting at the execution cursor to sm, invoking fn (if non-nil) with the
// slot, the command's index within its batch, and the result. It stops at
// the first gap or uncommitted slot and returns the number of commands
// executed (no-op slots advance the cursor without executing anything).
func (l *Log) ExecuteReady(sm *kvstore.Store, fn func(slot uint64, idx int, cmd kvstore.Command, res kvstore.Result)) int {
	n := 0
	for {
		e := l.Get(l.execCur)
		if e == nil || !e.Committed {
			return n
		}
		for i, cmd := range e.Commands {
			res := sm.Apply(cmd)
			if fn != nil {
				fn(l.execCur, i, cmd, res)
			}
			n++
		}
		e.Executed = true
		l.execCur++
	}
}

// ExecuteCursor returns the next slot awaiting execution.
func (l *Log) ExecuteCursor() uint64 { return l.execCur }

// SlotEntry pairs a slot number with its entry for ordered iteration.
type SlotEntry struct {
	Slot  uint64
	Entry Entry
}

// Uncommitted returns the slots in [from, l.nextSlot) that hold accepted but
// uncommitted proposals, in ascending slot order. (Phase-1 recovery walks
// the log directly to include committed entries; this remains as a
// diagnostic helper.)
func (l *Log) Uncommitted(from uint64) []SlotEntry {
	var out []SlotEntry
	l.each(from, func(slot uint64, e *Entry) {
		if !e.Committed {
			out = append(out, SlotEntry{Slot: slot, Entry: *e})
		}
	})
	return out
}

// CommittedCount returns how many slots have committed (for tests/metrics).
func (l *Log) CommittedCount() int {
	n := 0
	l.each(0, func(_ uint64, e *Entry) {
		if e.Committed {
			n++
		}
	})
	return n
}

// CompactTo discards executed entries below slot to bound memory. Slots are
// only discarded if executed; callers typically pass the cluster-wide
// minimum execution cursor.
func (l *Log) CompactTo(slot uint64) int {
	n := l.dropBelow(slot, func(e *Entry) bool { return e.Executed })
	if slot > l.firstSlot {
		l.firstSlot = slot
	}
	l.trim()
	return n
}

// Len returns the number of live entries.
func (l *Log) Len() int { return l.held }

// FirstSlot returns the compaction floor: the lowest slot the log may still
// hold. Requests for slots below it need snapshot-based catch-up.
func (l *Log) FirstSlot() uint64 { return l.firstSlot }

// String summarizes the log state.
func (l *Log) String() string {
	return fmt.Sprintf("log{next=%d exec=%d entries=%d}", l.nextSlot, l.execCur, l.held)
}
