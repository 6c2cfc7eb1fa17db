package kvstore

import (
	"encoding/hex"
	"testing"
)

// goldenOps is a fixed command sequence covering overwrite, delete of a live
// key, delete of a never-written key, an empty value and extreme keys.
var goldenOps = []Command{
	{Op: Put, Key: 5, Value: []byte("five")},
	{Op: Put, Key: 1, Value: []byte("one")},
	{Op: Put, Key: 300, Value: []byte{0, 1, 2, 0xff}},
	{Op: Put, Key: 1, Value: []byte("uno")},
	{Op: Get, Key: 1},
	{Op: Delete, Key: 5},
	{Op: Delete, Key: 42},
	{Op: Get, Key: 5},
	{Op: Put, Key: 7, Value: []byte{}},
	{Op: Put, Key: 1 << 63, Value: []byte("big")},
	{Op: Delete, Key: 300},
	{Op: Put, Key: 300, Value: []byte("back")},
	{Op: Put, Key: 0, Value: []byte("z")},
}

// The bytes and checksum the sequence must produce. Snapshots are persisted
// by the WAL and shipped between replicas in SnapInstall, so the layout is
// fixed whatever the store's in-memory representation.
const (
	goldenSnapshot = "0d0000000000000007000000000000000000000001000000000000000100000000000000020000000000000005000000000000000200000000000000070000000000000001000000000000002a0000000000000001000000000000002c01000000000000030000000000000000000000000000800100000000000000050000000000000000000000010000007a010000000000000003000000756e6f0700000000000000000000002c01000000000000040000006261636b000000000000008003000000626967"
	goldenChecksum = uint64(0x87c8f9aaab05d733)
)

func TestGoldenSnapshot(t *testing.T) {
	s := New()
	for _, c := range goldenOps {
		s.Apply(c)
	}
	got := s.Serialize(nil)
	if h := hex.EncodeToString(got); h != goldenSnapshot {
		t.Errorf("snapshot bytes moved:\n got %s\nwant %s", h, goldenSnapshot)
	}
	if c := s.Checksum(); c != goldenChecksum {
		t.Errorf("checksum = %#x, want %#x", c, goldenChecksum)
	}
	// The golden bytes restore to the same state.
	want, _ := hex.DecodeString(goldenSnapshot)
	r := New()
	n, err := r.Restore(want)
	if err != nil || n != len(want) {
		t.Fatalf("Restore = %d, %v; want %d, nil", n, err, len(want))
	}
	if r.Checksum() != goldenChecksum || hex.EncodeToString(r.Serialize(nil)) != goldenSnapshot {
		t.Error("restored golden snapshot does not reproduce itself")
	}
	if r.Len() != 5 || r.Version(1) != 2 || r.Version(5) != 2 || r.Version(42) != 1 || r.Version(300) != 3 {
		t.Errorf("restored state: len=%d versions 1:%d 5:%d 42:%d 300:%d",
			r.Len(), r.Version(1), r.Version(5), r.Version(42), r.Version(300))
	}
	if v, ok := r.Get(7); !ok || len(v) != 0 {
		t.Errorf("empty value lost: %q, %v", v, ok)
	}
	if _, ok := r.Get(5); ok {
		t.Error("deleted key restored live")
	}
}
