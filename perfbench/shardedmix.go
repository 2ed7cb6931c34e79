package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"locofs"
	"locofs/internal/client"
)

// sharded-mix: the DMS sharded into two partitions of three replicas, with
// the /p1 subtree cut out to partition 1 (locofs.Start, permission checks
// on). Set-up builds a skeleton spanning both partitions; then both
// clients run a seeded, zipf-skewed op mix over the same skeleton
// directories. Each client mutates only names it owns, so the final tree
// is predictable, but the directories (and so their leases) are shared.

const (
	smTop      = 2 // /p0 (partition 0) and /p1 (partition 1)
	smA        = 8 // /pX/a0..a7
	smB        = 8 // /pX/aI/b0..b7: the skeleton leaves
	smLeaves   = smTop * smA * smB
	smPreFiles = 6  // own files per skeleton leaf per client, in set-up
	smPreDirs  = 24 // own leaf directories per client, in set-up
	smZipfS    = 1.2
)

// Op mix in percent, cumulative: stat 58, readdir 10, create-or-remove 20,
// mkdir-or-rmdir 7, rename 3 (half of them across partitions), chmod 2.
// A create-or-remove creates when the client owns fewer than smPreFiles
// files in the drawn directory and removes otherwise, and a mkdir-or-rmdir
// keeps the client's own directories at smPreDirs the same way. So creates
// and removes, and mkdirs and rmdirs, come in about equal numbers, and the
// namespace keeps its size and shape however long a run lasts and
// whatever the seed.
var smMix = []struct {
	upTo int
	c    opClass
}{{58, opStat}, {68, opReaddir}, {88, opCreate}, {95, opMkdir}, {98, opRename}, {100, opChmod}}

func smLeafPath(d int) string {
	return fmt.Sprintf("/p%d/a%d/b%d", d/(smA*smB), d/smB%smA, d%smB)
}

// smOwnDir is one client-owned directory under skeleton leaf parent.
type smOwnDir struct {
	parent int
	name   string
}

// smModel is one client's generator and its model of what it owns.
type smModel struct {
	ci    int
	rng   *rand.Rand
	zipf  *rand.Zipf
	perm  []int // zipf rank -> skeleton leaf, shared by the clients
	files [smLeaves][]string
	dirs  []smOwnDir
	seq   int
}

func newSMModel(seed int64, ci int, perm []int) *smModel {
	rng := clientRNG(seed, ci)
	return &smModel{ci: ci, rng: rng, perm: perm, zipf: rand.NewZipf(rng, smZipfS, 1, smLeaves-1)}
}

func (m *smModel) hot() int { return m.perm[m.zipf.Uint64()] }

func (m *smModel) name(kind string) string {
	m.seq++
	return fmt.Sprintf("c%d-%s%d", m.ci, kind, m.seq)
}

// fileDir picks a zipf-hot skeleton leaf holding own files, falling back to
// a scan from a random leaf; -1 when the client owns no file.
func (m *smModel) fileDir() int {
	for i := 0; i < 8; i++ {
		if d := m.hot(); len(m.files[d]) > 0 {
			return d
		}
	}
	s := m.rng.Intn(smLeaves)
	for i := 0; i < smLeaves; i++ {
		if d := (s + i) % smLeaves; len(m.files[d]) > 0 {
			return d
		}
	}
	return -1
}

// step generates and runs one op.
func (m *smModel) step(cl *client.Client, r *recorder, timed bool) {
	p := m.rng.Intn(100)
	c := opChmod
	for _, e := range smMix {
		if p < e.upTo {
			c = e.c
			break
		}
	}
	d := -1
	switch c {
	case opCreate:
		if d = m.hot(); len(m.files[d]) >= smPreFiles {
			c = opRemove
		}
	case opMkdir:
		if len(m.dirs) >= smPreDirs {
			c = opRmdir
		}
	case opStat, opChmod:
		if d = m.fileDir(); d < 0 {
			c, d = opCreate, m.hot()
		}
	case opRename:
		if len(m.dirs) == 0 {
			c = opMkdir
		}
	}
	switch c {
	case opStat:
		path := smLeafPath(d) + "/" + m.files[d][m.rng.Intn(len(m.files[d]))]
		r.do(c, timed, func() error { return wantKind(cl, path, locofs.KindFile) })
	case opChmod:
		path := smLeafPath(d) + "/" + m.files[d][m.rng.Intn(len(m.files[d]))]
		r.do(c, timed, func() error { return cl.Chmod(path, 0o640) })
	case opRemove:
		i := m.rng.Intn(len(m.files[d]))
		path := smLeafPath(d) + "/" + m.files[d][i]
		if r.do(c, timed, func() error { return cl.Remove(path) }) == nil {
			last := len(m.files[d]) - 1
			m.files[d][i] = m.files[d][last]
			m.files[d] = m.files[d][:last]
		}
	case opCreate:
		n := m.name("f")
		if r.do(c, timed, func() error { return cl.Create(smLeafPath(d)+"/"+n, 0o644) }) == nil {
			m.files[d] = append(m.files[d], n)
		}
	case opMkdir:
		d, n := m.hot(), m.name("L")
		if r.do(c, timed, func() error { return cl.Mkdir(smLeafPath(d)+"/"+n, 0o755) }) == nil {
			m.dirs = append(m.dirs, smOwnDir{d, n})
		}
	case opRmdir:
		i := m.rng.Intn(len(m.dirs))
		od := m.dirs[i]
		if r.do(c, timed, func() error { return cl.Rmdir(smLeafPath(od.parent) + "/" + od.name) }) == nil {
			m.dirs[i] = m.dirs[len(m.dirs)-1]
			m.dirs = m.dirs[:len(m.dirs)-1]
		}
	case opRename:
		i := m.rng.Intn(len(m.dirs))
		od := m.dirs[i]
		part := od.parent / (smA * smB)
		if m.rng.Intn(2) == 0 {
			part = 1 - part // across partitions
		}
		nd := smOwnDir{part*smA*smB + m.rng.Intn(smA*smB), m.name("L")}
		from, to := smLeafPath(od.parent)+"/"+od.name, smLeafPath(nd.parent)+"/"+nd.name
		if r.do(c, timed, func() error { _, err := cl.RenameDir(from, to); return err }) == nil {
			m.dirs[i] = nd
		}
	case opReaddir:
		d := m.hot()
		var ents []locofs.DirEntry
		if r.do(c, timed, func() error {
			var err error
			ents, err = cl.Readdir(smLeafPath(d))
			return err
		}) == nil {
			if err := m.checkListing(d, ents); err != nil {
				r.failf("readdir %s: %v", smLeafPath(d), err)
			}
		}
	}
}

// checkListing checks a shared directory's listing holds exactly this
// client's own names there (the other client's names may be anything),
// naming what is extra or missing.
func (m *smModel) checkListing(d int, ents []locofs.DirEntry) error {
	prefix := fmt.Sprintf("c%d-", m.ci)
	want := map[string]bool{}
	for _, n := range m.ownNames(d) {
		want[n] = true
	}
	var diff []string
	for _, e := range ents {
		if !strings.HasPrefix(e.Name, prefix) {
			continue
		}
		if !want[e.Name] {
			diff = append(diff, "extra "+e.Name)
		}
		delete(want, e.Name)
	}
	for n := range want {
		diff = append(diff, "missing "+n)
	}
	sort.Strings(diff)
	return joinErrs(diff)
}

func (m *smModel) ownNames(d int) []string {
	want := append([]string(nil), m.files[d]...)
	for _, od := range m.dirs {
		if od.parent == d {
			want = append(want, od.name)
		}
	}
	return want
}

// smSkeleton lists the skeleton directories parents-first.
func smSkeleton() []string {
	var out []string
	for t := 0; t < smTop; t++ {
		out = append(out, fmt.Sprintf("/p%d", t))
		for a := 0; a < smA; a++ {
			out = append(out, fmt.Sprintf("/p%d/a%d", t, a))
			for b := 0; b < smB; b++ {
				out = append(out, fmt.Sprintf("/p%d/a%d/b%d", t, a, b))
			}
		}
	}
	return out
}

func runShardedMix(cfg config) (*outcome, error) {
	return runMix(cfg, locofs.Options{FMSCount: 4, CheckPermissions: true,
		DMSPartitions: 2, DMSReplicas: 3, DMSCuts: []string{"/p1"}})
}

// runUnshardedMix runs the same generator against the paper's single DMS:
// the unsharded reference point for sharded-mix.
func runUnshardedMix(cfg config) (*outcome, error) {
	return runMix(cfg, locofs.Options{FMSCount: 4, CheckPermissions: true})
}

func runMix(cfg config, opts locofs.Options) (*outcome, error) {
	perm := rand.New(rand.NewSource(cfg.seed*49979687 + 3)).Perm(smLeaves)
	var cluster *locofs.Cluster
	var models []*smModel
	sys, setups, err := setUp(func(rep int) (*system, error) {
		sys, c, err := startCluster(opts)
		if err != nil {
			return nil, err
		}
		ms, err := smPopulate(sys, cfg.seed, perm)
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("populate: %w", err)
		}
		cluster, models = c, ms
		return sys, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	recs := newRecorders()
	ws, layers := measureTimed(cfg, sys, recs, func(ci int, r *recorder, windowAt func(time.Time) (int, bool)) {
		cl, m := sys.clients[ci], models[ci]
		for {
			w, ok := windowAt(time.Now())
			if !ok {
				return
			}
			r.win = w
			m.step(cl, r, true)
		}
	})
	out := &outcome{setups: setups, ws: ws, recs: recs, layers: layers}
	out.oracle = smCheckFinal(cluster, sys, models)
	return out, nil
}

// smPopulate builds the skeleton and each client's initial files and
// directories, returning the clients' models.
func smPopulate(sys *system, seed int64, perm []int) ([]*smModel, error) {
	r := &recorder{}
	cl0 := sys.clients[0]
	for _, d := range smSkeleton() {
		r.do(opMkdir, false, func() error { return cl0.Mkdir(d, 0o755) })
	}
	models := make([]*smModel, numClients)
	for ci, cl := range sys.clients {
		m := newSMModel(seed, ci, perm)
		for d := 0; d < smLeaves; d++ {
			for k := 0; k < smPreFiles; k++ {
				n := m.name("f")
				if r.do(opCreate, false, func() error { return cl.Create(smLeafPath(d)+"/"+n, 0o644) }) == nil {
					m.files[d] = append(m.files[d], n)
				}
			}
		}
		for k := 0; k < smPreDirs; k++ {
			d, n := m.rng.Intn(smLeaves), m.name("L")
			if r.do(opMkdir, false, func() error { return cl.Mkdir(smLeafPath(d)+"/"+n, 0o755) }) == nil {
				m.dirs = append(m.dirs, smOwnDir{d, n})
			}
		}
		models[ci] = m
	}
	if r.failed > 0 {
		return nil, joinErrs(r.errs)
	}
	return models, nil
}

// smCheckFinal walks the whole tree and compares it with the skeleton plus
// every client's model; it also checks the FMS file count.
func smCheckFinal(c *locofs.Cluster, sys *system, models []*smModel) error {
	want := map[string]bool{} // path -> is a directory
	for _, d := range smSkeleton() {
		want[d] = true
	}
	files := 0
	for _, m := range models {
		for d := 0; d < smLeaves; d++ {
			for _, n := range m.files[d] {
				want[smLeafPath(d)+"/"+n] = false
				files++
			}
		}
		for _, od := range m.dirs {
			want[smLeafPath(od.parent)+"/"+od.name] = true
		}
	}
	got := map[string]bool{}
	var walk func(dir string) error
	walk = func(dir string) error {
		ents, err := sys.clients[0].Readdir(dir)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", dir, err)
		}
		for _, e := range ents {
			p := strings.TrimSuffix(dir, "/") + "/" + e.Name
			got[p] = e.IsDir
			if e.IsDir {
				if err := walk(p); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk("/"); err != nil {
		return err
	}
	var errs []string
	for p, isDir := range want {
		if g, ok := got[p]; !ok || g != isDir {
			errs = append(errs, fmt.Sprintf("missing %s (dir=%v)", p, isDir))
		}
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			errs = append(errs, "unexpected "+p)
		}
	}
	n := 0
	for _, f := range c.FMS {
		n += f.FileCount()
	}
	if n != files {
		errs = append(errs, fmt.Sprintf("FMS hold %d files, model %d", n, files))
	}
	sort.Strings(errs)
	return joinErrs(errs)
}
