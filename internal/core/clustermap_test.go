package core

import (
	"fmt"
	"testing"
	"time"

	"locofs/internal/netsim"
)

// startMapCluster boots the cluster both map tests run on: 2 FMS and a
// 2-partition, 2-replica DMS cut at /shard, with one client that creates
// /d/f0../d/f39.
func startMapCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := Start(Options{FMSCount: 2, DMSPartitions: 2, DMSCuts: []string{"/shard"}, DMSReplicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fs, err := c.NewClient(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := fs.Create(fmt.Sprintf("/d/f%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestIdleClientFollowsFMSChangeAcrossDMSFailover: a client that stays
// idle while the FMS set grows and partition 0 then fails over must route
// by the newest map when it wakes. The FMS change has to reach every DMS
// replica, not just the leader the coordinator bootstrapped from: the
// promoted follower is where the idle client fetches the map.
func TestIdleClientFollowsFMSChangeAcrossDMSFailover(t *testing.T) {
	c := startMapCluster(t)
	idle, err := c.NewClient(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	from := idle.Epoch()

	if _, err := c.AddFMS(); err != nil {
		t.Fatalf("add FMS: %v", err)
	}
	if err := c.FailoverDMS(0); err != nil {
		t.Fatalf("failover: %v", err)
	}

	for i := 0; i < 40; i++ {
		if _, err := idle.StatFile(fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Errorf("stat /d/f%d: %v", i, err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := idle.Create(fmt.Sprintf("/d/g%d", i), 0o644); err != nil {
			t.Errorf("create /d/g%d: %v", i, err)
		}
	}
	if got, want := idle.Epoch(), c.Epoch(); got != want || got != from+3 {
		t.Errorf("idle client map version = %d, cluster %d, want %d", got, want, from+3)
	}
}

// TestNewClientAfterPartitionZeroFailover: once partition 0's first leader
// is gone, the cluster dials new clients — including the admin client an
// FMS change runs through — at the promoted leader.
func TestNewClientAfterPartitionZeroFailover(t *testing.T) {
	c := startMapCluster(t)
	if err := c.FailoverDMS(0); err != nil {
		t.Fatalf("failover: %v", err)
	}
	if _, err := c.AddFMS(); err != nil {
		t.Fatalf("add FMS after failover: %v", err)
	}
	fresh, err := c.NewClient(ClientConfig{})
	if err != nil {
		t.Fatalf("new client after failover: %v", err)
	}
	defer fresh.Close()
	if n := fresh.FMSCount(); n != 3 {
		t.Errorf("fresh client routes over %d FMS, want 3", n)
	}
	for i := 0; i < 40; i++ {
		if _, err := fresh.StatFile(fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Errorf("stat /d/f%d: %v", i, err)
		}
	}
}

// TestMapChangesSkipDarkFollowers: one follower of partition 0 shut down
// and another blackholed must not stop an FMS change or a failover of
// partition 1. Their map pushes fail or time out and are skipped. Every
// other server gets the map, so the promoted leader of partition 1 serves,
// and a fresh client sees every file and creates in both partitions.
func TestMapChangesSkipDarkFollowers(t *testing.T) {
	c, err := Start(Options{FMSCount: 2, DMSPartitions: 2, DMSCuts: []string{"/shard"},
		DMSReplicas: 3, DMSRepTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fs, err := c.NewClient(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	paths := []string{}
	for _, dir := range []string{"/d", "/shard", "/shard/s"} {
		if err := fs.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		for _, dir := range []string{"/d", "/shard/s"} {
			p := fmt.Sprintf("%s/f%d", dir, i)
			if err := fs.Create(p, 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
	}
	from := c.Epoch()

	c.rsByAddr[dmsAddr(0, 1)].Shutdown()
	c.net.SetFault(dmsAddr(0, 2), netsim.FaultConfig{Blackhole: true})

	done := make(chan error, 1)
	go func() {
		if _, err := c.AddFMS(); err != nil {
			done <- fmt.Errorf("add FMS: %w", err)
			return
		}
		if err := c.FailoverDMS(1); err != nil {
			done <- fmt.Errorf("failover partition 1: %w", err)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("map changes hang on a dark follower")
	}
	if got := c.Epoch(); got != from+3 {
		t.Errorf("cluster map version = %d, want %d", got, from+3)
	}

	fresh, err := c.NewClient(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if n := fresh.FMSCount(); n != 3 {
		t.Errorf("fresh client routes over %d FMS, want 3", n)
	}
	for _, p := range paths {
		if _, err := fresh.StatFile(p); err != nil {
			t.Errorf("stat %s: %v", p, err)
		}
	}
	for _, p := range []string{"/d/g", "/shard/s/g"} {
		if err := fresh.Create(p, 0o644); err != nil {
			t.Errorf("create %s: %v", p, err)
		}
	}
	if err := fresh.Mkdir("/shard/t", 0o755); err != nil {
		t.Errorf("mkdir on partition 1's promoted leader: %v", err)
	}
}
