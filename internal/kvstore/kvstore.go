// Package kvstore implements the in-memory key-value state machine that all
// protocols replicate, equivalent to Paxi's StateMachine: a map of byte-
// string keys to versioned byte-string values, mutated by applying committed
// commands in log order.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Op enumerates the command operations the state machine understands.
type Op uint8

const (
	// Get reads the current value of a key.
	Get Op = iota
	// Put overwrites the value of a key.
	Put
	// Delete removes a key.
	Delete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Get:
		return "GET"
	case Put:
		return "PUT"
	case Delete:
		return "DELETE"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// IsRead reports whether the operation leaves the state machine unchanged.
func (o Op) IsRead() bool { return o == Get }

// Command is one state machine operation. ClientID/Seq identify the request
// for at-most-once semantics and reply routing.
type Command struct {
	Op       Op
	Key      uint64
	Value    []byte
	ClientID uint64
	Seq      uint64
}

// Empty reports whether the command is the zero command (an empty log slot).
func (c Command) Empty() bool {
	return c.Op == Get && c.Key == 0 && c.Value == nil && c.ClientID == 0 && c.Seq == 0
}

// IsRead reports whether the command is a read-only operation.
func (c Command) IsRead() bool { return c.Op.IsRead() }

// ConflictsWith reports whether two commands must be ordered with respect to
// each other: they touch the same key and at least one of them writes. This
// is the conflict relation EPaxos uses on its dependency attributes.
func (c Command) ConflictsWith(o Command) bool {
	if c.Key != o.Key {
		return false
	}
	return !c.IsRead() || !o.IsRead()
}

// String implements fmt.Stringer.
func (c Command) String() string {
	return fmt.Sprintf("%s k=%d len=%d cl=%d seq=%d", c.Op, c.Key, len(c.Value), c.ClientID, c.Seq)
}

// Result is the outcome of applying one command.
type Result struct {
	Exists bool
	Value  []byte
}

// Store is the replicated key-value state machine. It is safe for concurrent
// use; protocols apply committed commands through Apply and serve local
// reads through Get.
type Store struct {
	mu      sync.RWMutex
	keys    map[uint64]*keyState
	live    int    // keys holding a value
	applied uint64 // total commands applied, for metrics/tests
}

// keyState is everything the store knows about one key. A key enters the
// map on its first write and stays after a Delete: its write-version still
// matters to quorum reads.
type keyState struct {
	value   []byte
	live    bool   // the key holds value (false once deleted)
	version uint64 // writes applied to the key
}

// New creates an empty store.
func New() *Store {
	return &Store{keys: make(map[uint64]*keyState)}
}

// write counts one more write to key and returns its state, creating it on
// first use.
func (s *Store) write(key uint64) *keyState {
	k := s.keys[key]
	if k == nil {
		k = &keyState{}
		s.keys[key] = k
	}
	k.version++
	return k
}

// Apply executes cmd against the state machine and returns its result.
func (s *Store) Apply(cmd Command) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied++
	switch cmd.Op {
	case Get:
		v, ok := s.get(cmd.Key)
		return Result{Exists: ok, Value: v}
	case Put:
		k := s.write(cmd.Key)
		if !k.live {
			k.live = true
			s.live++
		}
		// Copy so callers may reuse their buffers. A fresh slice, never
		// the old one's: earlier results and reads still hold that.
		k.value = make([]byte, len(cmd.Value))
		copy(k.value, cmd.Value)
		return Result{Exists: true, Value: nil}
	case Delete:
		k := s.write(cmd.Key)
		ok := k.live
		if ok {
			k.live = false
			k.value = nil
			s.live--
		}
		return Result{Exists: ok}
	default:
		return Result{}
	}
}

// Get reads the current value of key without going through the log. Used by
// local/leased read paths and tests.
func (s *Store) Get(key uint64) (value []byte, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.get(key)
}

func (s *Store) get(key uint64) ([]byte, bool) {
	if k := s.keys[key]; k != nil && k.live {
		return k.value, true
	}
	return nil, false
}

// Version returns the write-version of a key (number of writes applied to
// it), used by Paxos Quorum Reads to compare replica freshness.
func (s *Store) Version(key uint64) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if k := s.keys[key]; k != nil {
		return k.version
	}
	return 0
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Applied returns the total number of commands applied.
func (s *Store) Applied() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.applied
}

// Checksum folds the full store state into a single value. Two replicas that
// applied the same command sequence have equal checksums; tests use it to
// assert state machine convergence.
func (s *Store) Checksum() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var h uint64 = 14695981039346656037 // FNV offset basis
	// XOR per-key hashes so iteration order does not matter.
	var acc uint64
	for key, k := range s.keys {
		if !k.live {
			continue
		}
		kh := fnvMix(h, key)
		for _, b := range k.value {
			kh = (kh ^ uint64(b)) * 1099511628211
		}
		kh = fnvMix(kh, k.version)
		acc ^= kh
	}
	return acc
}

// Serialize appends the full store state to b in a deterministic layout
// (keys sorted ascending), so every replica serializes identical state to
// identical bytes — snapshots can be compared and shipped between nodes.
// The version section lists every key ever written, including keys whose
// data was deleted (their write-versions still matter to quorum reads); the
// data section lists the live keys.
func (s *Store) Serialize(b []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b = binary.LittleEndian.AppendUint64(b, s.applied)
	keys := make([]uint64, 0, len(s.keys))
	for key := range s.keys {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, key := range keys {
		b = binary.LittleEndian.AppendUint64(b, key)
		b = binary.LittleEndian.AppendUint64(b, s.keys[key].version)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(s.live))
	for _, key := range keys {
		if k := s.keys[key]; k.live {
			b = binary.LittleEndian.AppendUint64(b, key)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(k.value)))
			b = append(b, k.value...)
		}
	}
	return b
}

// Restore replaces the store's contents with a state previously produced by
// Serialize, returning the number of bytes consumed. A data key missing from
// the version section (which Serialize never emits) restores at version 0
// and is listed in the version section when serialized again.
func (s *Store) Restore(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	off := 0
	u64 := func() (uint64, bool) {
		if off+8 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v, true
	}
	u32 := func() (uint32, bool) {
		if off+4 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v, true
	}
	fail := func() (int, error) {
		return 0, fmt.Errorf("kvstore: truncated snapshot at offset %d", off)
	}
	applied, ok := u64()
	if !ok {
		return fail()
	}
	nVer, ok := u32()
	if !ok {
		return fail()
	}
	keys := make(map[uint64]*keyState, nVer)
	for i := uint32(0); i < nVer; i++ {
		k, ok1 := u64()
		v, ok2 := u64()
		if !ok1 || !ok2 {
			return fail()
		}
		keys[k] = &keyState{version: v}
	}
	nData, ok := u32()
	if !ok {
		return fail()
	}
	live := 0
	for i := uint32(0); i < nData; i++ {
		key, ok1 := u64()
		n, ok2 := u32()
		if !ok1 || !ok2 || off+int(n) > len(b) {
			return fail()
		}
		v := make([]byte, n)
		copy(v, b[off:off+int(n)])
		off += int(n)
		k := keys[key]
		if k == nil {
			k = &keyState{}
			keys[key] = k
		}
		if !k.live {
			k.live = true
			live++
		}
		k.value = v
	}
	s.applied = applied
	s.keys = keys
	s.live = live
	return off, nil
}

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * 1099511628211
		x >>= 8
	}
	return h
}
