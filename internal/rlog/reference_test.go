package rlog

import (
	"sort"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

// refLog is a sparse map-based model of Log: the reference the
// differential test drives side by side with the window. It omits
// journaling, which does not affect log state.
type refLog struct {
	entries   map[uint64]*Entry
	firstSlot uint64
	nextSlot  uint64
	execCur   uint64
}

func newRef() *refLog {
	return &refLog{entries: make(map[uint64]*Entry), firstSlot: 1, nextSlot: 1, execCur: 1}
}

func (l *refLog) InstallSnapshot(floor uint64) {
	for s := range l.entries {
		if s < floor {
			delete(l.entries, s)
		}
	}
	l.firstSlot = max(l.firstSlot, floor)
	l.execCur = max(l.execCur, floor)
	l.nextSlot = max(l.nextSlot, floor)
}

func (l *refLog) NextSlot() uint64 {
	s := l.nextSlot
	l.nextSlot++
	return s
}

func (l *refLog) BumpNextSlot(slot uint64) {
	if slot >= l.nextSlot {
		l.nextSlot = slot + 1
	}
}

func (l *refLog) Accept(slot uint64, b ids.Ballot, cmds []kvstore.Command) bool {
	if slot < l.firstSlot {
		return false
	}
	e, ok := l.entries[slot]
	if !ok {
		l.entries[slot] = &Entry{Ballot: b, Commands: cmds}
		l.BumpNextSlot(slot)
		return true
	}
	if e.Committed {
		return e.Ballot == b
	}
	if b < e.Ballot {
		return false
	}
	e.Ballot = b
	e.Commands = cmds
	l.BumpNextSlot(slot)
	return true
}

func (l *refLog) Commit(slot uint64, b ids.Ballot, cmds []kvstore.Command) {
	if slot < l.firstSlot {
		return
	}
	e, ok := l.entries[slot]
	if !ok {
		e = &Entry{}
		l.entries[slot] = e
	}
	if e.Executed {
		return
	}
	e.Ballot = b
	e.Commands = cmds
	e.Committed = true
	l.BumpNextSlot(slot)
}

// CommitAccepted scans without a committed-prefix cursor: every slot from
// the execution cursor up.
func (l *refLog) CommitAccepted(w uint64, b ids.Ballot) int {
	n := 0
	for slot := l.execCur; slot < w; slot++ {
		e := l.Get(slot)
		if e == nil || e.Committed || e.Ballot != b {
			continue
		}
		l.Commit(slot, b, e.Commands)
		n++
	}
	return n
}

func (l *refLog) Get(slot uint64) *Entry { return l.entries[slot] }

func (l *refLog) ExecuteReady(sm *kvstore.Store, fn func(slot uint64, idx int, cmd kvstore.Command, res kvstore.Result)) int {
	n := 0
	for {
		e, ok := l.entries[l.execCur]
		if !ok || !e.Committed {
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

func (l *refLog) Uncommitted(from uint64) []SlotEntry {
	var out []SlotEntry
	for s, e := range l.entries {
		if s >= from && !e.Committed {
			out = append(out, SlotEntry{Slot: s, Entry: *e})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

func (l *refLog) CommittedCount() int {
	n := 0
	for _, e := range l.entries {
		if e.Committed {
			n++
		}
	}
	return n
}

func (l *refLog) CompactTo(slot uint64) int {
	n := 0
	for s, e := range l.entries {
		if s < slot && e.Executed {
			delete(l.entries, s)
			n++
		}
	}
	l.firstSlot = max(l.firstSlot, slot)
	return n
}
