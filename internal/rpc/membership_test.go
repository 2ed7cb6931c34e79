package rpc

import (
	"sync/atomic"
	"testing"

	"locofs/internal/netsim"
	"locofs/internal/wire"
)

func testClusterMap(ver uint64) *wire.ClusterMap {
	return &wire.ClusterMap{
		Ver: ver,
		FMS: []wire.Member{{ID: 0, Addr: "fms-0"}, {ID: 1, Addr: "fms-1"}},
	}
}

// TestSetMembershipEpochGuard: an install with an older version, or with
// the installed version but different contents, is refused; a repeat of
// the installed map and a newer version are accepted, and Epoch and
// ClusterMap track the installed map.
func TestSetMembershipEpochGuard(t *testing.T) {
	s := NewServer()
	if s.Epoch() != 0 {
		t.Fatalf("fresh server version = %d", s.Epoch())
	}
	if m := s.ClusterMap(); m != nil {
		t.Fatalf("fresh server map = %+v", m)
	}
	if !s.SetClusterMap(testClusterMap(3), "fms-0") {
		t.Fatal("install version 3 refused")
	}
	if s.SetClusterMap(testClusterMap(2), "fms-0") {
		t.Error("older version accepted")
	}
	if !s.SetClusterMap(testClusterMap(3), "fms-0") {
		t.Error("equal version refused (re-push must be idempotent)")
	}
	other := testClusterMap(3)
	other.FMS = other.FMS[:1]
	if s.SetClusterMap(other, "fms-0") {
		t.Error("different map of the installed version accepted (racing changes must be told apart)")
	}
	if m := s.ClusterMap(); len(m.FMS) != 2 {
		t.Errorf("refused map replaced the installed one: %+v", m)
	}
	if !s.SetClusterMap(testClusterMap(4), "fms-1") {
		t.Error("newer version refused")
	}
	if s.Epoch() != 4 {
		t.Errorf("version = %d, want 4", s.Epoch())
	}
	if m := s.ClusterMap(); m == nil || m.Ver != 4 {
		t.Errorf("map = %+v, want version 4", m)
	}
	if _, known := s.OwnsKey([]byte("k")); !known {
		t.Error("FMS listed in the installed map reported unknown ownership")
	}
}

// TestMembershipOverWire: OpSetClusterMap/OpGetClusterMap round trip over
// the transport: a newer map is installed, a retried push of it acks OK,
// an older version or a different map of the same version is refused with
// ESTALE, the held map is served, and responses carry its version in the
// header, observed through CallSpec.OnEpoch.
func TestMembershipOverWire(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	s := NewServer()
	l, _ := n.Listen("srv")
	go s.Serve(l)
	t.Cleanup(s.Shutdown)
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setMap := func(m *wire.ClusterMap) wire.Status {
		st, _, _, err := c.Do(CallSpec{Op: wire.OpSetClusterMap,
			Body: wire.EncodeSetClusterMap(m, "fms-1")})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	set := func(ver uint64) wire.Status { return setMap(testClusterMap(ver)) }

	if st, _, _, _ := c.Do(CallSpec{Op: wire.OpGetClusterMap}); st != wire.StatusNotFound {
		t.Fatalf("get before any set = %v, want ENOENT", st)
	}
	if st := set(5); st != wire.StatusOK {
		t.Fatalf("set version 5 = %v", st)
	}
	if st := set(5); st != wire.StatusOK {
		t.Errorf("retried set of version 5 = %v, want OK", st)
	}
	if st := set(4); st != wire.StatusStale {
		t.Errorf("set version 4 over 5 = %v, want ESTALE", st)
	}
	other := testClusterMap(5)
	other.Prev = other.FMS[:1]
	if st := setMap(other); st != wire.StatusStale {
		t.Errorf("set of a different version-5 map = %v, want ESTALE", st)
	}
	var seen atomic.Uint64
	st, body, _, err := c.Do(CallSpec{Op: wire.OpGetClusterMap, OnEpoch: func(v uint64) { seen.Store(v) }})
	if err != nil || st != wire.StatusOK {
		t.Fatalf("get = %v %v", st, err)
	}
	if got, err := wire.DecodeClusterMap(body); err != nil || got.Ver != 5 || len(got.FMS) != 2 {
		t.Errorf("served map = %+v err=%v, want version 5 with 2 FMS", got, err)
	}
	if seen.Load() != 5 || s.Epoch() != 5 {
		t.Errorf("header version %d, server version %d, want 5", seen.Load(), s.Epoch())
	}
}
