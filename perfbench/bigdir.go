package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"locofs"
)

// bigdir: one DMS and four FMS (locofs.Start, permission checks on). Each
// cycle both clients fill one shared directory to bigFiles files (plus a
// few subdirectories), stat and chmod a seeded sample, list it in full,
// rename and remove the subdirectories, remove every file and finally the
// directory. One cycle is one measurement window.

const (
	bigFiles     = 50000 // files per cycle, split over the clients
	bigSubdirs   = 500   // subdirectories per client per cycle
	bigStats     = 10000 // stats per client per cycle
	bigChmods    = 4000  // chmods per client per cycle
	bigListings  = 2     // full listings per client per cycle
	bigWarmFiles = 1000  // per client, in set-up
	bigWarmDir   = "/warm"
	// bigNominalCycle is one cycle's length on the reference machine (2 CPUs).
	bigNominalCycle = 20 * time.Second
)

// bigCycle is one cycle's generated names. Each cycle uses a directory of
// its own name: a client that has not heard from the DMS since the last
// cycle's directory was removed may still hold that path's cached inode for
// its lease (DESIGN.md §14), so reusing the name would send its creates to
// the removed directory.
type bigCycle struct {
	dir     string
	files   [numClients][]string
	subdirs [numClients][]string
	want    []string          // every name the full listing must return
	statIdx [numClients][]int // indexes into all files
	chmods  [numClients][]int // indexes into the client's own files
}

func newBigCycle(seed int64, cyc int) *bigCycle {
	rng := rand.New(rand.NewSource(seed*15485863 + int64(cyc)*32452843 + 7))
	b := &bigCycle{dir: fmt.Sprintf("/big%d", cyc)}
	per := bigFiles / numClients
	for ci := 0; ci < numClients; ci++ {
		for k := 0; k < per; k++ {
			b.files[ci] = append(b.files[ci], fmt.Sprintf("img-%08x-%d%05d.jpg", rng.Uint32(), ci, k))
		}
		for j := 0; j < bigSubdirs; j++ {
			b.subdirs[ci] = append(b.subdirs[ci], fmt.Sprintf("sub-%d-%03d", ci, j))
		}
		b.want = append(b.want, b.files[ci]...)
		b.want = append(b.want, b.subdirs[ci]...)
		for i := 0; i < bigStats; i++ {
			b.statIdx[ci] = append(b.statIdx[ci], rng.Intn(bigFiles))
		}
		for i := 0; i < bigChmods; i++ {
			b.chmods[ci] = append(b.chmods[ci], rng.Intn(per))
		}
	}
	return b
}

func (b *bigCycle) file(i int) string {
	per := bigFiles / numClients
	return b.dir + "/" + b.files[i/per][i%per]
}

// both collects garbage, then runs fn for every client concurrently and
// waits: the barrier between cycle phases.
func both(fn func(ci int)) {
	runtime.GC()
	var wg sync.WaitGroup
	for ci := 0; ci < numClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			fn(ci)
		}(ci)
	}
	wg.Wait()
}

func runBigDir(cfg config) (*outcome, error) {
	opts := locofs.Options{FMSCount: 4, CheckPermissions: true}
	var cluster *locofs.Cluster
	sys, setups, err := setUp(func(rep int) (*system, error) {
		sys, c, err := startCluster(opts)
		if err != nil {
			return nil, err
		}
		if err := bigWarmUp(sys); err != nil {
			sys.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		cluster = c
		return sys, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	recs := newRecorders()
	var pw *partitionWatch
	var before layerSnap
	if cfg.trace {
		pw = watchPartitions(sys.journal)
		before = sys.snapshot()
	}
	m := startMeter()
	for cyc := 0; cyc < bigCycles(cfg); cyc++ {
		tracing.Store(cfg.trace && cyc%2 == 0)
		bigRunCycle(sys, recs, newBigCycle(cfg.seed, cyc), cyc)
		tracing.Store(false)
		m.mark()
	}
	m.close()
	ws := windows(m, recs, func(i int) bool { return cfg.trace && i%2 == 0 })
	out := &outcome{setups: setups, ws: ws, recs: recs}
	if cfg.trace {
		pw.close()
		out.layers = perLayer(sys, before, sys.snapshot(), recs, ws, pw)
	}
	out.oracle = checkEmptyCluster(cluster, sys)
	return out, nil
}

// bigCycles is how many cycles a run measures: as many nominal cycles as
// fit in cfg.seconds, at least one, and two when traced (one timed, one
// not). A fixed count, rather than "until time is up", gives every run the
// same work, so a slow stretch of the machine cannot change what is
// measured.
func bigCycles(cfg config) int {
	n := int(time.Duration(cfg.seconds) * time.Second / bigNominalCycle)
	if cfg.trace && n < 2 {
		return 2
	}
	return max(n, 1)
}

// bigRunCycle runs one cycle's phases, each on both clients behind a
// barrier. A collection at each barrier starts every phase from the same
// heap state: the create and remove phases leave a large garbage debt, and
// whether its collection overlapped a short phase would otherwise decide
// that phase's latencies.
func bigRunCycle(sys *system, recs []*recorder, b *bigCycle, cyc int) {
	for _, r := range recs {
		r.win = cyc
	}
	do := func(ci int, c opClass, fn func() error) bool { return recs[ci].do(c, true, fn) == nil }
	do(0, opMkdir, func() error { return sys.clients[0].Mkdir(b.dir, 0o755) })
	both(func(ci int) {
		cl := sys.clients[ci]
		every := len(b.files[ci]) / bigSubdirs
		for k, f := range b.files[ci] {
			do(ci, opCreate, func() error { return cl.Create(b.dir+"/"+f, 0o644) })
			if k%every == every-1 {
				d := b.dir + "/" + b.subdirs[ci][k/every]
				do(ci, opMkdir, func() error { return cl.Mkdir(d, 0o755) })
			}
		}
	})
	both(func(ci int) {
		cl := sys.clients[ci]
		for _, i := range b.statIdx[ci] {
			do(ci, opStat, func() error { return wantKind(cl, b.file(i), locofs.KindFile) })
		}
		for _, i := range b.chmods[ci] {
			p := b.dir + "/" + b.files[ci][i]
			do(ci, opChmod, func() error { return cl.Chmod(p, 0o600) })
		}
	})
	both(func(ci int) {
		cl := sys.clients[ci]
		for l := 0; l < bigListings; l++ {
			var names []string
			if do(ci, opReaddir, func() error {
				ents, err := cl.Readdir(b.dir)
				names = entryNames(ents)
				return err
			}) {
				if err := expectNames(names, b.want); err != nil {
					recs[ci].failf("readdir %s: %v", b.dir, err)
				}
			}
		}
	})
	both(func(ci int) {
		cl := sys.clients[ci]
		for _, d := range b.subdirs[ci] {
			from, to := b.dir+"/"+d, b.dir+"/mv-"+d
			if do(ci, opRename, func() error { _, err := cl.RenameDir(from, to); return err }) {
				do(ci, opRmdir, func() error { return cl.Rmdir(to) })
			}
		}
	})
	both(func(ci int) {
		cl := sys.clients[ci]
		for _, f := range b.files[ci] {
			do(ci, opRemove, func() error { return cl.Remove(b.dir + "/" + f) })
		}
	})
	do(0, opRmdir, func() error { return sys.clients[0].Rmdir(b.dir) })
}

// bigWarmUp runs a small create/stat/list/remove pass on every client so
// lazy set-up (connections, caches, pools) is done before timing.
func bigWarmUp(sys *system) error {
	warm := &recorder{}
	cl0 := sys.clients[0]
	warm.do(opMkdir, false, func() error { return cl0.Mkdir(bigWarmDir, 0o755) })
	for ci, cl := range sys.clients {
		for k := 0; k < bigWarmFiles; k++ {
			p := fmt.Sprintf("%s/w%d-%05d", bigWarmDir, ci, k)
			warm.do(opCreate, false, func() error { return cl.Create(p, 0o644) })
			warm.do(opStat, false, func() error { _, err := cl.Stat(p); return err })
		}
		warm.do(opReaddir, false, func() error { _, err := cl.Readdir(bigWarmDir); return err })
		for k := 0; k < bigWarmFiles; k++ {
			p := fmt.Sprintf("%s/w%d-%05d", bigWarmDir, ci, k)
			warm.do(opRemove, false, func() error { return cl.Remove(p) })
		}
	}
	warm.do(opRmdir, false, func() error { return cl0.Rmdir(bigWarmDir) })
	if warm.failed > 0 {
		return joinErrs(warm.errs)
	}
	return nil
}
