package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"locofs"
	"locofs/internal/client"
	"locofs/internal/dms"
	"locofs/internal/flight"
	"locofs/internal/fms"
	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/rpc"
	"locofs/internal/telemetry"
)

// small-dirs-durable: the servers of `locofsd -data` (one DMS, four FMS and
// one OSS, kv.Persistent WAL stores, permission checks on) on 127.0.0.1
// TCP inside this process. Each client repeatedly builds a ~100-file
// directory in its private tree and takes it apart again.

const (
	sdFMS      = 4
	sdBranches = 8 // /c<client>/a0 .. a7
)

// durableServer is one server of the durable deployment.
type durableServer struct {
	name  string
	dir   string
	rs    *rpc.Server
	l     *netsim.TCPListener
	p     *kv.Persistent
	inner kv.Store // the engine under the WAL, for the reopen check
	tree  bool
	fms   *fms.Server
}

// durable is a running durable deployment.
type durable struct {
	sys     *system
	servers []*durableServer
}

// startDurable wires the servers exactly as cmd/locofsd -data does: the
// engine under kv.Persistent (snapshot every 100k mutations, one flushed
// WAL write per mutation, never fsynced) under kv.Instrument, served over
// TCP. The timing stores sit directly above and below kv.Persistent.
func startDurable(dir string) (*durable, error) {
	d := &durable{sys: &system{
		dmsRegs: map[string]*telemetry.Registry{}, fmsRegs: map[string]*telemetry.Registry{},
		journal: flight.NewJournal(flight.DefaultBufEvents), send: &durStat{}, replicas: 1,
		above: &kvStats{}, below: &kvStats{}, stores: map[string]*kv.Instrumented{},
		busy: map[string]*rpc.Server{}, walDir: dir,
	}}
	d.sys.close = d.close
	serve := func(name string, tree bool, attach func(store *kv.Instrumented, rs *rpc.Server, reg *telemetry.Registry) func(*rpc.Server)) (*durableServer, error) {
		var inner kv.Store = kv.NewHashStore()
		if tree {
			inner = kv.NewBTreeStore()
		}
		p, err := kv.OpenPersistent(filepath.Join(dir, name), newTimedKV(inner, d.sys.below))
		if err != nil {
			return nil, err
		}
		p.SnapshotEvery = 100000
		store := kv.Instrument(newTimedKV(p, d.sys.above), kv.RAM)
		l, err := netsim.ListenTCP("127.0.0.1:0")
		if err != nil {
			p.Close()
			return nil, err
		}
		rs := rpc.NewServer()
		reg := telemetry.NewRegistry(telemetry.L("server", name))
		rs.SetTelemetry(reg)
		rs.SetFlight(d.sys.journal, name)
		attach(store, rs, reg)(rs)
		go rs.Serve(l)
		s := &durableServer{name: name, dir: filepath.Join(dir, name), rs: rs, l: l, p: p, inner: inner, tree: tree}
		d.servers = append(d.servers, s)
		d.sys.stores[name] = store
		d.sys.busy[name] = rs
		return s, nil
	}
	dmsSrv, err := serve(bootstrapDMS, true, func(store *kv.Instrumented, rs *rpc.Server, reg *telemetry.Registry) func(*rpc.Server) {
		ds := dms.New(dms.Options{Store: store, CheckPermissions: true})
		ds.SetFlight(d.sys.journal, bootstrapDMS)
		ds.RegisterMetrics(reg)
		d.sys.dmsRegs[bootstrapDMS] = reg
		d.sys.dmsLeaders = append(d.sys.dmsLeaders, ds)
		d.sys.dmsStore = store
		return ds.Attach
	})
	if err != nil {
		d.close()
		return nil, err
	}
	var fmsAddrs []string
	for id := 1; id <= sdFMS; id++ {
		name := fmt.Sprintf("fms-%d", id)
		var f *fms.Server
		s, err := serve(name, false, func(store *kv.Instrumented, rs *rpc.Server, reg *telemetry.Registry) func(*rpc.Server) {
			f = fms.New(fms.Options{Store: store, ServerID: uint32(id), CheckPermissions: true})
			f.SetFlight(d.sys.journal, name)
			d.sys.fmsRegs[name] = reg
			return f.Attach
		})
		if err != nil {
			d.close()
			return nil, err
		}
		s.fms = f
		fmsAddrs = append(fmsAddrs, s.l.Addr())
	}
	oss, err := serve("oss", false, func(store *kv.Instrumented, rs *rpc.Server, reg *telemetry.Registry) func(*rpc.Server) {
		return objstore.New(store).Attach
	})
	if err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i < numClients; i++ {
		cl, err := locofs.Dial(locofs.DialConfig{
			Dialer:   timedDialer{inner: netsim.TCPDialer{}, send: d.sys.send},
			DMSAddr:  dmsSrv.l.Addr(),
			FMSAddrs: fmsAddrs,
			OSSAddrs: []string{oss.l.Addr()},
			UID:      1000, GID: 1000,
			Flight: d.sys.journal,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.sys.clients = append(d.sys.clients, cl)
	}
	return d, nil
}

// stop closes the clients, then every server, then every WAL.
func (d *durable) stop() error {
	for _, c := range d.sys.clients {
		c.Close()
	}
	d.sys.clients = nil
	for _, s := range d.servers {
		s.rs.Shutdown()
	}
	var first error
	for _, s := range d.servers {
		if s.p == nil {
			continue
		}
		if err := s.p.Close(); err != nil && first == nil {
			first = fmt.Errorf("close %s wal: %w", s.name, err)
		}
		s.p = nil
	}
	return first
}

func (d *durable) close() error {
	err := d.stop()
	if rerr := os.RemoveAll(d.sys.walDir); err == nil {
		err = rerr
	}
	return err
}

// checkReopen reopens every server's WAL directory into a fresh engine with
// kv.OpenPersistent and checks it holds exactly what the live engine held.
func (d *durable) checkReopen() error {
	for _, s := range d.servers {
		var fresh kv.Store = kv.NewHashStore()
		if s.tree {
			fresh = kv.NewBTreeStore()
		}
		p, err := kv.OpenPersistent(s.dir, fresh)
		if err != nil {
			return fmt.Errorf("reopen %s: %w", s.name, err)
		}
		live := map[string]string{}
		s.inner.ForEach(func(k, v []byte) bool {
			live[string(k)] = string(v)
			return true
		})
		n := 0
		var bad string
		fresh.ForEach(func(k, v []byte) bool {
			n++
			if lv, ok := live[string(k)]; !ok || lv != string(v) {
				bad = string(k)
				return false
			}
			return true
		})
		p.Close()
		err = nil
		if bad != "" {
			err = fmt.Errorf("reopened %s store differs at key %q", s.name, bad)
		} else if n != len(live) {
			err = fmt.Errorf("reopened %s store has %d keys, live store %d", s.name, n, len(live))
		}
		if err != nil {
			if _, serr := os.Stat(filepath.Join(s.dir, "store.snap")); serr == nil {
				err = fmt.Errorf("%w (the store took an automatic snapshot during the run)", err)
			}
			return err
		}
	}
	return nil
}

// sdUnit is one directory's life: mkdir, create ~100 files, stat the
// directory and every file, chmod every file, list, remove every file,
// rename the directory and remove it.
type sdUnit struct {
	dir, renamed string
	files        []string // names
}

func newSDUnit(rng *rand.Rand, ci, k int) sdUnit {
	u := sdUnit{
		dir:     fmt.Sprintf("/c%d/a%d/d%d", ci, rng.Intn(sdBranches), k),
		renamed: fmt.Sprintf("/c%d/a%d/r%d", ci, rng.Intn(sdBranches), k),
	}
	n := 90 + rng.Intn(21)
	for j := 0; j < n; j++ {
		u.files = append(u.files, fmt.Sprintf("f%03d-%06x", j, rng.Intn(1<<24)))
	}
	return u
}

// run executes the unit's ops through r; timed reports, before each op,
// whether it falls inside the measured window (setting r.win). A failed op
// ends the unit, since the rest of it depends on that op's effect.
func (u sdUnit) run(cl *client.Client, r *recorder, timed func() bool) {
	path := func(name string) string { return u.dir + "/" + name }
	step := func(c opClass, fn func() error) bool { return r.do(c, timed(), fn) == nil }
	if !step(opMkdir, func() error { return cl.Mkdir(u.dir, 0o755) }) {
		return
	}
	for _, f := range u.files {
		if !step(opCreate, func() error { return cl.Create(path(f), 0o644) }) {
			return
		}
	}
	if !step(opStat, func() error { return wantKind(cl, u.dir, locofs.KindDir) }) {
		return
	}
	for _, f := range u.files {
		if !step(opStat, func() error { return wantKind(cl, path(f), locofs.KindFile) }) {
			return
		}
	}
	for _, f := range u.files {
		if !step(opChmod, func() error { return cl.Chmod(path(f), 0o600) }) {
			return
		}
	}
	var names []string
	if !step(opReaddir, func() error {
		ents, err := cl.Readdir(u.dir)
		names = entryNames(ents)
		return err
	}) {
		return
	}
	if err := expectNames(names, u.files); err != nil {
		r.failf("readdir %s: %v", u.dir, err)
	}
	for _, f := range u.files {
		if !step(opRemove, func() error { return cl.Remove(path(f)) }) {
			return
		}
	}
	if !step(opRename, func() error { _, err := cl.RenameDir(u.dir, u.renamed); return err }) {
		return
	}
	step(opRmdir, func() error { return cl.Rmdir(u.renamed) })
}

func wantKind(cl *client.Client, path string, k locofs.Kind) error {
	a, err := cl.Stat(path)
	if err != nil {
		return err
	}
	if a.Kind != k {
		return fmt.Errorf("stat %s: kind %v, want %v", path, a.Kind, k)
	}
	return nil
}

func entryNames(ents []locofs.DirEntry) []string {
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Name
	}
	return out
}

// clientRNG derives client ci's generator from the workload seed.
func clientRNG(seed int64, ci int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(ci)*104729 + 1))
}

func runSmallDirs(cfg config) (*outcome, error) {
	root := filepath.Join(cfg.dataDir, fmt.Sprintf("small-dirs-%d", os.Getpid()))
	defer os.RemoveAll(root)
	var dep *durable
	sys, setups, err := setUp(func(rep int) (*system, error) {
		d, err := startDurable(filepath.Join(root, fmt.Sprint(rep)))
		if err != nil {
			return nil, err
		}
		// Private skeleton, then one warm-up unit per client.
		warm := &recorder{}
		for ci, cl := range d.sys.clients {
			warm.do(opMkdir, false, func() error { return cl.Mkdir(fmt.Sprintf("/c%d", ci), 0o755) })
			for j := 0; j < sdBranches; j++ {
				warm.do(opMkdir, false, func() error { return cl.Mkdir(fmt.Sprintf("/c%d/a%d", ci, j), 0o755) })
			}
			newSDUnit(rand.New(rand.NewSource(int64(rep))), ci, -1).run(cl, warm, func() bool { return false })
		}
		if warm.failed > 0 {
			d.close()
			return nil, joinErrs(warm.errs)
		}
		dep = d
		return d.sys, nil
	})
	if err != nil {
		return nil, err
	}
	recs := newRecorders()
	ws, layers := measureTimed(cfg, sys, recs, func(ci int, r *recorder, windowAt func(time.Time) (int, bool)) {
		cl, rng := sys.clients[ci], clientRNG(cfg.seed, ci)
		live := true
		timed := func() bool {
			if !live {
				return false
			}
			r.win, live = windowAt(time.Now())
			return live
		}
		for k := 0; live; k++ {
			newSDUnit(rng, ci, k).run(cl, r, timed)
		}
	})
	out := &outcome{setups: setups, ws: ws, recs: recs, layers: layers}
	out.oracle = dep.checkFinal()
	if err := dep.stop(); err != nil && out.oracle == nil {
		out.oracle = err
	}
	if out.oracle == nil {
		out.oracle = dep.checkReopen()
	}
	return out, nil
}

// checkFinal checks the namespace is back to the bare private skeleton: no
// directory beyond it, no file metadata on any FMS.
func (d *durable) checkFinal() error {
	cl := d.sys.clients[0]
	var errs []string
	check := func(dir string, want []string) {
		ents, err := cl.Readdir(dir)
		if err != nil {
			errs = append(errs, fmt.Sprintf("readdir %s: %v", dir, err))
			return
		}
		if err := expectNames(entryNames(ents), want); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", dir, err))
		}
	}
	var top []string
	for ci := 0; ci < numClients; ci++ {
		top = append(top, fmt.Sprintf("c%d", ci))
		var branches []string
		for j := 0; j < sdBranches; j++ {
			branches = append(branches, fmt.Sprintf("a%d", j))
			check(fmt.Sprintf("/c%d/a%d", ci, j), nil)
		}
		check(fmt.Sprintf("/c%d", ci), branches)
	}
	check("/", top)
	for _, s := range d.servers {
		if s.fms != nil {
			if n := s.fms.FileCount(); n != 0 {
				errs = append(errs, fmt.Sprintf("%s still holds %d files", s.name, n))
			}
		}
	}
	return joinErrs(errs)
}
