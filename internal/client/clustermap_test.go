package client

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"locofs/internal/dms"
	"locofs/internal/dms/partition"
	"locofs/internal/flight"
	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/rpc"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// The cluster-map protocol end to end: codec, a DMS replica's reaction to
// an install, a push retried after its response was lost, and the
// client's single-flight refresh. The server-side version guard is tested
// in package rpc.

func testClusterMap(ver uint64) *wire.ClusterMap {
	return &wire.ClusterMap{
		Ver:    ver,
		FMS:    []wire.Member{{ID: 0, Addr: "fms-0"}, {ID: 1, Addr: "fms-1"}, {ID: 4, Addr: "fms-4"}},
		Prev:   []wire.Member{{ID: 0, Addr: "fms-0"}, {ID: 1, Addr: "fms-1"}},
		Cuts:   []wire.PartCut{{Dir: "/b", PID: 1}},
		Groups: [][]string{{"p0-l", "p0-f"}, {"p1-l"}},
	}
}

// TestClusterMapCodecRoundTrip: every field survives the codec, and Next
// derives an independent copy one version up.
func TestClusterMapCodecRoundTrip(t *testing.T) {
	m := testClusterMap(7)
	got, err := wire.DecodeClusterMap(wire.EncodeClusterMap(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Ver != 7 || len(got.FMS) != 3 || got.FMS[2] != m.FMS[2] || len(got.Prev) != 2 ||
		len(got.Cuts) != 1 || got.Cuts[0] != m.Cuts[0] ||
		len(got.Groups) != 2 || got.Groups[0][1] != "p0-f" || got.Groups[1][0] != "p1-l" {
		t.Errorf("round trip = %+v", got)
	}
	next := m.Next()
	next.Groups[0] = next.Groups[0][1:]
	next.FMS[0].Addr = "moved"
	if next.Ver != 8 || m.Leader(0) != "p0-l" || m.FMS[0].Addr != "fms-0" {
		t.Errorf("Next shares state with its source: %+v", m)
	}
}

// TestClusterMapDecodeRejectsGarbage: a truncated body, trailing bytes and
// a body that is not a map at all are errors, never a half-built map.
func TestClusterMapDecodeRejectsGarbage(t *testing.T) {
	enc := wire.EncodeClusterMap(testClusterMap(3))
	for n := 0; n < len(enc); n++ {
		if _, err := wire.DecodeClusterMap(enc[:n]); err == nil {
			t.Fatalf("map truncated to %d of %d bytes decoded without error", n, len(enc))
		}
	}
	if _, err := wire.DecodeClusterMap(append(enc, 0)); err == nil {
		t.Error("map with a trailing byte decoded without error")
	}
	garbage := []byte("GET / HTTP/1.1\r\nHost: dms\r\n\r\n")
	if _, err := wire.DecodeClusterMap(garbage); err == nil {
		t.Error("garbage decoded as a map")
	}
	if _, _, err := wire.DecodeSetClusterMap(garbage); err == nil {
		t.Error("garbage decoded as a set request")
	}
}

// TestFMSOnlyMapChangeLeavesDMSReplicaAlone: a map that changes only the
// FMS set is installed on a DMS replica without touching its replication
// role: no promotion, no catch-up pass — even on a follower that is behind
// its leader, which a change of its own group would send to catch up.
func TestFMSOnlyMapChangeLeavesDMSReplicaAlone(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	j := flight.NewJournal(0)
	m1 := &wire.ClusterMap{Ver: 1, FMS: []wire.Member{{ID: 0, Addr: "fms-0"}}, Groups: [][]string{{"l", "f"}}}
	for _, addr := range m1.Groups[0] {
		node := partition.New(partition.Config{
			Self: addr, Map: m1, Dialer: n, Journal: j, Source: addr,
			DMS:        dms.New(dms.Options{Store: kv.Instrument(kv.NewBTreeStore(), kv.RAM), ServerID: partition.ServerID(0)}),
			RepTimeout: 60 * time.Millisecond,
		})
		rs := rpc.NewServer()
		node.Attach(rs)
		l, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go rs.Serve(l)
		t.Cleanup(rs.Shutdown)
		t.Cleanup(node.Close)
	}
	call := func(addr string, op wire.Op, body []byte) wire.Status {
		cl, err := rpc.Dial(n, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, _, _, err := cl.Do(rpc.CallSpec{Op: op, Body: body, Req: 1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Leave the follower one entry behind: blackholed, it is excluded.
	n.SetFault("f", netsim.FaultConfig{Blackhole: true})
	if st := call("l", wire.OpMkdir, wire.NewEnc().Str("/d").U32(0o755).U32(0).U32(0).Bytes()); st != wire.StatusOK {
		t.Fatalf("mkdir: %v", st)
	}
	n.ClearFault("f")

	m2 := m1.Next()
	m2.FMS = append(m2.FMS, wire.Member{ID: 1, Addr: "fms-1"})
	for _, addr := range m2.Groups[0] {
		if st := call(addr, wire.OpSetClusterMap, wire.EncodeSetClusterMap(m2, addr)); st != wire.StatusOK {
			t.Fatalf("install at %s: %v", addr, st)
		}
	}
	time.Sleep(100 * time.Millisecond) // a catch-up pass would have started by now
	for _, ev := range j.Recent(0) {
		if ev.Kind == flight.KindPartition && (ev.Op == "promoted" || ev.Op == "catchup_started") {
			t.Errorf("FMS-only map change triggered %s on %s", ev.Op, ev.Source)
		}
	}
}

// TestMapPushRetrySurvivesDroppedResponse: the response to a map push is
// lost, the push is retried with the same body, and the server, which
// already installed that map, acks the repeat. The change completes
// instead of reading its own first install as a lost race.
func TestMapPushRetrySurvivesDroppedResponse(t *testing.T) {
	n, cfg := testCluster(t, 2)
	seed := dialTest(t, cfg)
	if err := seed.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	var files []string
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/d/f%d", i)
		if err := seed.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, p)
	}

	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	admin := dialTest(t, cfg,
		WithOpTimeout(200*time.Millisecond),
		WithRetry(RetryPolicy{Max: 1, Base: time.Millisecond}))
	// The first message fms-1 sends is its answer to the window-opening
	// push.
	n.SetFault("fms-1", netsim.FaultConfig{DropResponses: 1})
	rep, err := admin.RemoveFMS(1)
	if err != nil {
		t.Fatalf("remove FMS with one dropped push response: %v", err)
	}
	if got := testCounter(reg, MetricRetries); got < 1 {
		t.Errorf("retries counter = %d, want >= 1", got)
	}
	if admin.Epoch() != rep.ToEpoch {
		t.Errorf("admin map version = %d, want %d", admin.Epoch(), rep.ToEpoch)
	}

	fresh := dialTest(t, cfg)
	if n := fresh.FMSCount(); n != 1 {
		t.Errorf("fresh client routes over %d FMS, want 1", n)
	}
	for _, p := range files {
		if _, err := fresh.StatFile(p); err != nil {
			t.Errorf("stat %s: %v", p, err)
		}
	}
}

// gatedDialer blocks every dial until gate closes, then fails it.
type gatedDialer struct {
	gate  chan struct{}
	mu    sync.Mutex
	dials int
}

func (d *gatedDialer) Dial(string) (netsim.Conn, error) {
	d.mu.Lock()
	d.dials++
	d.mu.Unlock()
	<-d.gate
	return nil, errors.New("test dialer: no fabric")
}

// TestMapRefreshSingleFlight: concurrent refresh calls — the shape a
// failover produces, when every in-flight request trips EWRONGPART or a
// dead leader at once — coalesce into one fetch. Callers that queued
// behind the running fetch return without issuing their own, counted by
// the suppressed-fetch metric.
func TestMapRefreshSingleFlight(t *testing.T) {
	d := &gatedDialer{gate: make(chan struct{})}
	c := &Client{
		telem:  &clientTelem{reg: telemetry.NewRegistry()},
		eps:    map[string]*endpoint{},
		res:    newResilience(0, RetryPolicy{Max: -1}, BreakerConfig{}, nil),
		static: &wire.ClusterMap{FMS: []wire.Member{{ID: 0, Addr: "fms-0"}}, Groups: [][]string{{"p0-l"}}},
	}
	c.newEp = func(addr string, pid uint32) *endpoint {
		return newEndpoint(d, addr, netsim.LinkConfig{}, c.telem, c.res, nil, nil)
	}
	c.install(c.static)

	inFetch := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(inFetch)
		c.refresh(opCtx{}, "") // the one real fetch, held at the gate
	}()
	<-inFetch
	time.Sleep(20 * time.Millisecond) // let the first fetch reach the gate

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- c.refresh(opCtx{}, "")
		}()
	}
	// Give the followers time to read the generation and queue on the lock,
	// then release the fetch.
	time.Sleep(50 * time.Millisecond)
	close(d.gate)
	wg.Wait()

	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("suppressed refresh returned %v, want nil (reuse the completed fetch)", err)
		}
	}
	if d.dials != 1 {
		t.Errorf("dial attempts = %d, want 1 (followers must not fetch again)", d.dials)
	}
	if got := c.telem.reg.Counter(MetricMapRefreshSuppressed).Load(); got != 2 {
		t.Errorf("suppressed counter = %d, want 2", got)
	}
}
