package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"locofs/internal/client"
	"locofs/internal/wire"
)

// startShardedCluster boots a sharded cluster (first cut at /shard) and one
// default client.
func startShardedCluster(t *testing.T, partitions, replicas int) (*Cluster, *client.Client) {
	t.Helper()
	cuts := make([]string, partitions-1)
	for i := range cuts {
		if i == 0 {
			cuts[i] = "/shard"
		} else {
			cuts[i] = fmt.Sprintf("/shard%d", i+1)
		}
	}
	c, err := Start(Options{DMSPartitions: partitions, DMSCuts: cuts, DMSReplicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fs, err := c.NewClient(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return c, fs
}

// TestShardedClusterEndToEnd: a 2-partition, 2-replica cluster serves the
// whole namespace — both sides of the cut, listings spanning it, and
// cross-partition directory renames.
func TestShardedClusterEndToEnd(t *testing.T) {
	c, err := Start(Options{DMSPartitions: 2, DMSCuts: []string{"/shard"}, DMSReplicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.NewClient(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	if err := fs.Mkdir("/shard", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/local", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/shard/d%d", i), 0o755); err != nil {
			t.Fatalf("mkdir on cut partition: %v", err)
		}
		if err := fs.Create(fmt.Sprintf("/shard/d%d/f", i), 0o644); err != nil {
			t.Fatalf("create on cut partition: %v", err)
		}
	}
	ents, err := fs.Readdir("/shard")
	if err != nil || len(ents) != 8 {
		t.Fatalf("readdir across the cut: %d entries, %v", len(ents), err)
	}
	// The root listing includes the cut directory itself (inode on
	// partition 0, listing containing it too).
	ents, err = fs.Readdir("/")
	if err != nil || len(ents) != 2 {
		t.Fatalf("root readdir: %d entries, %v", len(ents), err)
	}
	// Both DMS partitions served traffic.
	if got := c.DMSOpsServed(); got == 0 {
		t.Fatal("no DMS ops recorded")
	}
	p1 := c.Metrics[dmsAddr(1, 0)]
	if p1 == nil {
		t.Fatal("no registry for partition 1 leader")
	}

	// Cross-partition rename: /local/src (partition 0) → /shard/dst
	// (partition 1), files riding along.
	if err := fs.Mkdir("/local/src", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/local/src/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if moved, err := fs.RenameDir("/local/src", "/shard/dst"); err != nil || moved != 1 {
		t.Fatalf("cross-partition rename: moved=%d err=%v", moved, err)
	}
	if _, err := fs.StatFile("/shard/dst/f"); err != nil {
		t.Fatalf("file after cross-partition rename: %v", err)
	}
	if _, err := fs.StatDir("/local/src"); err == nil {
		t.Fatal("source directory survived its rename")
	}
	// The cut directory is a fixture: removing or renaming it is refused.
	if err := fs.Rmdir("/shard"); err == nil {
		t.Fatal("rmdir of the cut directory succeeded")
	}
	if _, err := fs.RenameDir("/shard", "/elsewhere"); err == nil {
		t.Fatal("rename of the cut directory succeeded")
	}
}

// TestShardedFailoverNoAckedMutationLost kills partition 1's leader in the
// middle of a create workload. Every mutation the cluster acknowledged
// before, during, or after the failover must still be visible afterwards —
// acked means replicated — and the cluster must resume serving.
func TestShardedFailoverNoAckedMutationLost(t *testing.T) {
	c, fs := startShardedCluster(t, 2, 2)

	if err := fs.Mkdir("/shard", 0o755); err != nil {
		t.Fatal(err)
	}
	const total = 40
	var (
		mu    sync.Mutex
		acked []string
	)
	half := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			path := fmt.Sprintf("/shard/w%02d", i)
			if err := fs.Mkdir(path, 0o755); err == nil {
				mu.Lock()
				acked = append(acked, path)
				mu.Unlock()
			}
			if i == total/2 {
				close(half)
			}
		}
	}()
	<-half
	if err := c.FailoverDMS(1); err != nil {
		t.Fatalf("failover: %v", err)
	}
	<-done

	// The cluster must have resumed: new mutations and reads succeed.
	if err := fs.Mkdir("/shard/after", 0o755); err != nil {
		t.Fatalf("mkdir after failover: %v", err)
	}
	// Every acked mutation survived, observed through a fresh client with
	// a cold cache (no stale-view flattery).
	fresh, err := c.NewClient(ClientConfig{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(acked) < total/2 {
		t.Fatalf("only %d/%d creates acked — failover wedged the workload", len(acked), total)
	}
	for _, p := range acked {
		if _, err := fresh.StatDir(p); err != nil {
			t.Errorf("acked mkdir %s lost after failover: %v", p, err)
		}
	}
}

// TestCrossPartitionRenameCrashBeforePrepareDecision: the coordinator dies
// after logging intent on both partitions but before any decision. The
// promoted source leader presumes abort: the source subtree is intact, the
// destination clean and unfrozen, and the rename can simply be retried.
func TestCrossPartitionRenameCrashBeforePrepareDecision(t *testing.T) {
	c, fs := startShardedCluster(t, 2, 2)
	if err := fs.Mkdir("/shard", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/src", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/src/f", 0o644); err != nil {
		t.Fatal(err)
	}

	// /src lives on partition 0, so its leader coordinates.
	c.DMSNodes[0][0].CrashAfterPrepare.Store(true)
	if _, err := fs.RenameDir("/src", "/shard/dst"); err == nil {
		t.Fatal("rename succeeded through a crashing coordinator")
	}
	if err := c.FailoverDMS(0); err != nil {
		t.Fatalf("failover: %v", err)
	}

	// Recovery presumed abort: source intact (with its file), destination
	// absent, nothing orphaned or duplicated.
	if _, err := fs.StatDir("/src"); err != nil {
		t.Fatalf("source lost after aborted rename: %v", err)
	}
	if _, err := fs.StatFile("/src/f"); err != nil {
		t.Fatalf("source file lost after aborted rename: %v", err)
	}
	if _, err := fs.StatDir("/shard/dst"); err == nil {
		t.Fatal("aborted rename left a destination copy")
	}
	ents, err := fs.Readdir("/shard")
	if err != nil || len(ents) != 0 {
		t.Fatalf("destination partition not clean: %d entries, %v", len(ents), err)
	}

	// The subtree is unfrozen: the retried rename completes.
	if moved, err := fs.RenameDir("/src", "/shard/dst"); err != nil || moved != 1 {
		t.Fatalf("retried rename: moved=%d err=%v", moved, err)
	}
	if _, err := fs.StatFile("/shard/dst/f"); err != nil {
		t.Fatalf("file after retried rename: %v", err)
	}
	if _, err := fs.StatDir("/src"); err == nil {
		t.Fatal("retried rename left the source behind (duplicate subtree)")
	}
}

// TestCrossPartitionRenameCrashAfterCommit: the coordinator dies after the
// commit marker replicated on the source group but before telling the
// destination. The promoted source leader re-drives the commit, so the
// rename completes exactly once.
func TestCrossPartitionRenameCrashAfterCommit(t *testing.T) {
	c, fs := startShardedCluster(t, 2, 2)
	if err := fs.Mkdir("/shard", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/src", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/src/f", 0o644); err != nil {
		t.Fatal(err)
	}

	c.DMSNodes[0][0].CrashAfterCommit.Store(true)
	if _, err := fs.RenameDir("/src", "/shard/dst"); err == nil {
		t.Fatal("rename succeeded through a crashing coordinator")
	}
	if err := c.FailoverDMS(0); err != nil {
		t.Fatalf("failover: %v", err)
	}

	// The decision was commit: recovery finished the move. Exactly one
	// copy — destination present, source gone.
	if _, err := fs.StatDir("/shard/dst"); err != nil {
		t.Fatalf("committed rename lost after failover: %v", err)
	}
	if _, err := fs.StatFile("/shard/dst/f"); err != nil {
		t.Fatalf("file lost by re-driven commit: %v", err)
	}
	if _, err := fs.StatDir("/src"); err == nil {
		t.Fatal("committed rename left the source behind (duplicate subtree)")
	}
	ents, err := fs.Readdir("/")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name == "src" {
			t.Fatal("orphaned source entry in root listing")
		}
	}

	// The destination subtree is unfrozen and writable again.
	if err := fs.Create("/shard/dst/g", 0o644); err != nil {
		t.Fatalf("create under recovered destination: %v", err)
	}
}

// TestShardedWrongPartitionSurfacesAsStale: when routing retries are
// exhausted the wrong-partition refusal surfaces matching ErrStale's class
// (wire.StatusStale under errors.Is) — checked here at the wire layer; the
// public sentinel alias is covered in the top-level errors test.
func TestShardedWrongPartitionSurfacesAsStale(t *testing.T) {
	if !errors.Is(wire.StatusWrongPartition.Err(), wire.StatusStale.Err()) {
		t.Fatal("EWRONGPART does not match ESTALE under errors.Is")
	}
}

// TestCrossPartitionRenameRefreshesOwnCachedListings: after a client's own
// cross-partition RenameDir, that client's cached listings of both parents
// are dropped, so its next Readdir of each is right. The rename's trailer
// accounts the source partition's recalls, so nothing else would drop the
// source parent's listing; and the destination partition's recalls are not
// yet observed, so its parent's listing would pass the freshness gate.
func TestCrossPartitionRenameRefreshesOwnCachedListings(t *testing.T) {
	c, err := Start(Options{DMSPartitions: 2, DMSCuts: []string{"/p1"}, DMSReplicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.NewClient(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for _, d := range []string{"/p0", "/p1", "/p0/x", "/p0/y", "/p1/z"} {
		if err := fs.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	names := func(dir string) []string {
		t.Helper()
		ents, err := fs.Readdir(dir)
		if err != nil {
			t.Fatalf("readdir %s: %v", dir, err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name)
		}
		sort.Strings(out)
		return out
	}
	// List each parent twice: the second listing is served from the cache.
	for i := 0; i < 2; i++ {
		names("/p0")
		names("/p1")
	}
	if hits := fs.CacheDetail().ListHits; hits == 0 {
		t.Fatal("parent listings were not cached; the test would prove nothing")
	}
	if _, err := fs.RenameDir("/p0/x", "/p1/x"); err != nil {
		t.Fatal(err)
	}
	if got := names("/p0"); !reflect.DeepEqual(got, []string{"y"}) {
		t.Errorf("source parent after rename = %v, want [y]", got)
	}
	if got := names("/p1"); !reflect.DeepEqual(got, []string{"x", "z"}) {
		t.Errorf("destination parent after rename = %v, want [x z]", got)
	}
}
