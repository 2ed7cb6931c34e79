package rpc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"locofs/internal/chash"
	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// startEcho builds a server on a fresh loopback network with an echo op.
func startEcho(t *testing.T) (*netsim.Network, *Server) {
	t.Helper()
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	s := NewServer()
	s.Handle(wire.Op(0x0F00), func(body []byte) (wire.Status, []byte) {
		out := append([]byte("echo:"), body...)
		return wire.StatusOK, out
	})
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	return n, s
}

func TestCallRoundTrip(t *testing.T) {
	n, _ := startEcho(t)
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, body, err := c.Call(wire.Op(0x0F00), []byte("hi"))
	if err != nil || st != wire.StatusOK || string(body) != "echo:hi" {
		t.Errorf("Call = %v %q %v", st, body, err)
	}
	if c.Trips() != 1 {
		t.Errorf("Trips = %d, want 1", c.Trips())
	}
}

func TestUnknownOp(t *testing.T) {
	n, _ := startEcho(t)
	c, _ := Dial(n, "srv")
	defer c.Close()
	st, _, err := c.Call(wire.Op(0x7777), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != wire.StatusInval {
		t.Errorf("unknown op status = %v, want EINVAL", st)
	}
}

func TestPingHandlerDefault(t *testing.T) {
	n, _ := startEcho(t)
	c, _ := Dial(n, "srv")
	defer c.Close()
	st, body, err := c.Call(wire.OpPing, []byte("p"))
	if err != nil || st != wire.StatusOK || string(body) != "p" {
		t.Errorf("ping = %v %q %v", st, body, err)
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	n := netsim.NewNetwork(netsim.LinkConfig{RTT: time.Millisecond})
	defer n.Close()
	s := NewServer()
	s.Handle(wire.Op(1), func(body []byte) (wire.Status, []byte) {
		return wire.StatusOK, body
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, _ := Dial(n, "srv")
	defer c.Close()

	const callers = 16
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf("caller-%d", w))
			st, out, err := c.Call(wire.Op(1), body)
			if err != nil || st != wire.StatusOK || string(out) != string(body) {
				t.Errorf("caller %d: %v %q %v", w, st, out, err)
			}
		}(w)
	}
	wg.Wait()
	// Calls share the connection: 16 concurrent 1ms-RTT calls must take far
	// less than 16 sequential round trips.
	if elapsed := time.Since(start); elapsed > 8*time.Millisecond {
		t.Errorf("16 concurrent calls took %v — not multiplexed?", elapsed)
	}
	if c.Trips() != callers {
		t.Errorf("Trips = %d, want %d", c.Trips(), callers)
	}
}

func TestServerCountsServed(t *testing.T) {
	n, s := startEcho(t)
	c, _ := Dial(n, "srv")
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Call(wire.OpPing, nil)
	}
	if got := s.Served.Load(); got != 5 {
		t.Errorf("Served = %d, want 5", got)
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	s := NewServer()
	block := make(chan struct{})
	s.Handle(wire.Op(2), func(body []byte) (wire.Status, []byte) {
		<-block
		return wire.StatusOK, nil
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, _ := Dial(n, "srv")
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Call(wire.Op(2), nil)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("pending call succeeded after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("pending call not released by Close")
	}
	close(block)
	s.Shutdown()
}

func TestCallAfterClose(t *testing.T) {
	n, _ := startEcho(t)
	c, _ := Dial(n, "srv")
	c.Close()
	// The readLoop records the failure asynchronously; poll briefly.
	deadline := time.Now().Add(time.Second)
	for {
		_, _, err := c.Call(wire.OpPing, nil)
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Call kept succeeding after Close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestShutdownStopsAccept(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	s := NewServer()
	l, _ := n.Listen("srv")
	served := make(chan struct{})
	go func() {
		s.Serve(l)
		close(served)
	}()
	c, _ := Dial(n, "srv")
	c.Call(wire.OpPing, nil)
	c.Close()
	s.Shutdown()
	select {
	case <-served:
	case <-time.After(time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := n.Dial("srv"); err == nil {
		t.Error("listener still reachable after Shutdown")
	}
}

// TestShutdownReleasesRequestGoroutines: request goroutines park between
// requests to be reused, and Shutdown releases every one of them — the
// goroutine count returns to where it was before the server started.
func TestShutdownReleasesRequestGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	n := netsim.NewNetwork(netsim.Loopback)
	s := NewServer()
	const conc = 16
	var started sync.WaitGroup
	release := make(chan struct{})
	s.Handle(wire.Op(1), func(body []byte) (wire.Status, []byte) {
		started.Done()
		<-release
		return wire.StatusOK, body
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	// conc requests in flight at once need conc request goroutines; once
	// they finish, the goroutines park and serve the sequential calls
	// that follow without the count growing.
	started.Add(conc)
	var done sync.WaitGroup
	for i := 0; i < conc; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			if st, _, err := c.Call(wire.Op(1), nil); err != nil || st != wire.StatusOK {
				t.Errorf("call = %v, %v", st, err)
			}
		}()
	}
	started.Wait()
	close(release)
	done.Wait()
	peak := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		started.Add(1)
		if _, _, err := c.Call(wire.Op(1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got > peak {
		t.Errorf("goroutines grew from %d to %d over sequential calls; parked ones were not reused", peak, got)
	}
	c.Close()
	s.Shutdown()
	n.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Shutdown, want <= %d (before the server started)", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestManySequentialCalls(t *testing.T) {
	n, _ := startEcho(t)
	c, _ := Dial(n, "srv")
	defer c.Close()
	for i := 0; i < 2000; i++ {
		st, _, err := c.Call(wire.OpPing, []byte{byte(i)})
		if err != nil || st != wire.StatusOK {
			t.Fatalf("call %d: %v %v", i, st, err)
		}
	}
	if c.Trips() != 2000 {
		t.Errorf("Trips = %d", c.Trips())
	}
}

// TestOwnsKey: with a cluster map installed the server answers ownership
// exactly as the equivalent client-side ring would; without one (or when
// the map does not list the server as an FMS) ownership is unknowable.
func TestOwnsKey(t *testing.T) {
	m := &wire.ClusterMap{
		Ver: 1,
		FMS: []wire.Member{{ID: 0, Addr: "fms-0"}, {ID: 1, Addr: "fms-1"}},
	}
	s := NewServer()
	if _, known := s.OwnsKey([]byte("k")); known {
		t.Error("static topology reported known ownership")
	}
	s.SetClusterMap(m, "fms-1")
	ring := chash.NewRing(0, 0, 1)
	agree := 0
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		owns, known := s.OwnsKey([]byte(k))
		if !known {
			t.Fatalf("ownership unknown for %q", k)
		}
		if owns == (ring.Locate([]byte(k)) == 1) {
			agree++
		}
	}
	if agree != 8 {
		t.Errorf("OwnsKey disagrees with ring on %d/8 keys", 8-agree)
	}
	// A server the map does not list as an FMS tracks the version but not
	// ownership.
	s2 := NewServer()
	s2.SetClusterMap(m, "dms")
	if _, known := s2.OwnsKey([]byte("k")); known {
		t.Error("non-FMS server reported known ownership")
	}
	if s2.Epoch() != 1 {
		t.Errorf("non-FMS map version = %d, want 1", s2.Epoch())
	}
}
