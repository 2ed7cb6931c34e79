package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"locofs/internal/client"
	"locofs/internal/core"
	"locofs/internal/dms"
	"locofs/internal/dms/partition"
	"locofs/internal/flight"
	"locofs/internal/kv"
	"locofs/internal/rpc"
	"locofs/internal/telemetry"
)

// system is what the per-layer metrics can see of one running deployment:
// the clients, every server's telemetry registry grouped by role, and the
// counters the program already exports.
type system struct {
	clients     []*client.Client
	dmsRegs     map[string]*telemetry.Registry // every DMS replica
	fmsRegs     map[string]*telemetry.Registry
	dmsLeaders  []*dms.Server     // lease counters, one per partition
	partLeaders []*partition.Node // replicated op logs (sharded DMS only)
	dmsStore    *kv.Instrumented  // the bootstrap DMS's store
	journal     *flight.Journal   // partition events
	send        *durStat          // client Send time (timing dialer)
	replicas    int               // DMS replicas per partition
	close       func() error      // stops every server and client

	// Durable wiring only (nil elsewhere).
	above, below *kvStats                    // timing shims around kv.Persistent
	stores       map[string]*kv.Instrumented // per server
	busy         map[string]*rpc.Server      // per server
	walDir       string
}

type metricKey struct{ name, op string }

// regSnap is one registry's counters and histograms at one instant.
type regSnap struct {
	c map[metricKey]float64
	h map[metricKey]telemetry.HistSnapshot
}

func snapReg(r *telemetry.Registry) regSnap {
	s := regSnap{c: map[metricKey]float64{}, h: map[metricKey]telemetry.HistSnapshot{}}
	for _, m := range r.Snapshot().Metrics {
		k := metricKey{m.Name, telemetry.LabelValue(m.Labels, "op")}
		switch m.Kind {
		case telemetry.KindCounter:
			s.c[k] += m.Value
		case telemetry.KindHistogram:
			s.h[k] = addHist(s.h[k], m.Hist, 1)
		}
	}
	return s
}

// addHist returns a + sign*b, bucket by bucket.
func addHist(a, b telemetry.HistSnapshot, sign int64) telemetry.HistSnapshot {
	a.Count = uint64(int64(a.Count) + sign*int64(b.Count))
	a.Sum += time.Duration(sign) * b.Sum
	if b.Max > a.Max {
		a.Max = b.Max
	}
	for i := range a.Buckets {
		a.Buckets[i] = uint64(int64(a.Buckets[i]) + sign*int64(b.Buckets[i]))
	}
	return a
}

func (a regSnap) to(b regSnap) regSnap {
	d := regSnap{c: map[metricKey]float64{}, h: map[metricKey]telemetry.HistSnapshot{}}
	for k, v := range b.c {
		d.c[k] = v - a.c[k]
	}
	for k, v := range b.h {
		d.h[k] = addHist(v, a.h[k], -1)
	}
	return d
}

// layerSnap is every layer's state at one instant.
type layerSnap struct {
	clients    []regSnap
	cache      client.CacheDetail
	dms, fms   map[string]regSnap
	leaseSeq   uint64
	leaseSupp  uint64
	logEntries uint64
	dmsKV      kv.CountersSnapshot
	storeKV    map[string]kv.CountersSnapshot
	busy       map[string]time.Duration
	walBytes   int64
	aboveScans int64
	belowScans int64
}

func (s *system) snapshot() layerSnap {
	ls := layerSnap{dms: map[string]regSnap{}, fms: map[string]regSnap{},
		storeKV: map[string]kv.CountersSnapshot{}, busy: map[string]time.Duration{}}
	for _, c := range s.clients {
		ls.clients = append(ls.clients, snapReg(c.Metrics()))
		d := c.CacheDetail()
		ls.cache.Hits += d.Hits
		ls.cache.NegHits += d.NegHits
		ls.cache.ListHits += d.ListHits
		ls.cache.Misses += d.Misses
		ls.cache.StaleMisses += d.StaleMisses
		ls.cache.RecallsApplied += d.RecallsApplied
	}
	for n, r := range s.dmsRegs {
		ls.dms[n] = snapReg(r)
	}
	for n, r := range s.fmsRegs {
		ls.fms[n] = snapReg(r)
	}
	for _, d := range s.dmsLeaders {
		ls.leaseSeq += d.LeaseSeq()
		ls.leaseSupp += d.RecallsSuppressed()
	}
	for _, n := range s.partLeaders {
		ls.logEntries += n.LogLen()
	}
	if s.dmsStore != nil {
		ls.dmsKV = s.dmsStore.Counters().Snapshot()
	}
	for n, st := range s.stores {
		ls.storeKV[n] = st.Counters().Snapshot()
	}
	for n, rs := range s.busy {
		ls.busy[n] = rs.Busy()
	}
	if s.walDir != "" {
		filepath.Walk(s.walDir, func(p string, fi os.FileInfo, err error) error {
			if err == nil && !fi.IsDir() && filepath.Base(p) == "store.wal" {
				ls.walBytes += fi.Size()
			}
			return nil
		})
	}
	if s.above != nil {
		ls.aboveScans = s.above.forEach.Load()
		ls.belowScans = s.below.forEach.Load()
	}
	return ls
}

// partitionWatch counts partition-plane flight events by op while a traced
// run measures, paging the journal by cursor so no event is missed between
// polls.
type partitionWatch struct {
	j      *flight.Journal
	cursor uint64
	counts map[string]int
	stop   chan struct{}
	wg     sync.WaitGroup
}

func watchPartitions(j *flight.Journal) *partitionWatch {
	w := &partitionWatch{j: j, cursor: j.Seq(), counts: map[string]int{}, stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tk := time.NewTicker(20 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-w.stop:
				w.poll()
				return
			case <-tk.C:
				w.poll()
			}
		}
	}()
	return w
}

func (w *partitionWatch) poll() {
	evs, next, _ := w.j.Since(w.cursor, 0)
	w.cursor = next
	for _, e := range evs {
		if e.Kind == flight.KindPartition {
			w.counts[e.Op]++
		}
	}
}

func (w *partitionWatch) close() {
	close(w.stop)
	w.wg.Wait()
}

// Op-label sets used below.
var (
	dmsMutations = []string{"Mkdir", "Rmdir", "RenameDir", "ChmodDir", "ChownDir"}
	// replication-plane ops are spoken between DMS nodes, not by clients.
	replicationOps = map[string]bool{"LogAppend": true, "SeedUpdate": true, "RenamePrepare": true,
		"RenameCommit": true, "RenameAbort": true, "LogFetch": true}
	twoPCOps = []string{"RenamePrepare", "RenameCommit", "RenameAbort"}
)

// counter sums a counter across snapshots, over the given ops (all ops
// when none are given).
func counter(snaps []regSnap, name string, ops ...string) float64 {
	var v float64
	for _, s := range snaps {
		for k, x := range s.c {
			if k.name == name && (len(ops) == 0 || contains(ops, k.op)) {
				v += x
			}
		}
	}
	return v
}

// hist merges a histogram across snapshots over the given ops (all when
// none are given); skip drops ops by name.
func hist(snaps []regSnap, name string, skip map[string]bool, ops ...string) telemetry.HistSnapshot {
	var h telemetry.HistSnapshot
	for _, s := range snaps {
		for k, x := range s.h {
			if k.name == name && !skip[k.op] && (len(ops) == 0 || contains(ops, k.op)) {
				h = addHist(h, x, 1)
			}
		}
	}
	return h
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTotals are the benchmark-side counts the per-layer ratios divide by.
type runTotals struct {
	ops        int // every op issued between the two layer snapshots
	byClass    [numClasses]int
	timedOps   int
	timedLatNS int64
}

func totals(recs []*recorder, ws []window) runTotals {
	var t runTotals
	for _, r := range recs {
		t.ops += r.attempted
		for c := range t.byClass {
			t.byClass[c] += r.byClass[c]
		}
	}
	for _, w := range ws {
		for c := range w.lat {
			for _, d := range w.lat[c] {
				t.timedOps++
				t.timedLatNS += d
			}
		}
	}
	return t
}

func values(m map[string]regSnap) []regSnap {
	out := make([]regSnap, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// perLayer computes every per-layer metric from two layer snapshots taken
// around the measured phase. A metric a workload's wiring cannot observe
// reads 0 (see README.md for which workload measures which).
func perLayer(s *system, a, b layerSnap, recs []*recorder, ws []window, pw *partitionWatch) map[string]float64 {
	t := totals(recs, ws)
	ops := float64(t.ops)
	var cl []regSnap
	for i := range b.clients {
		cl = append(cl, a.clients[i].to(b.clients[i]))
	}
	dmsD := map[string]regSnap{}
	for n := range b.dms {
		dmsD[n] = a.dms[n].to(b.dms[n])
	}
	fmsD := map[string]regSnap{}
	for n := range b.fms {
		fmsD[n] = a.fms[n].to(b.fms[n])
	}
	dmsAll, fmsAll := values(dmsD), values(fmsD)
	servers := append(append([]regSnap{}, dmsAll...), fmsAll...)
	m := map[string]float64{}

	// client
	calls := counter(cl, rpc.MetricCalls)
	hits := float64(b.cache.Hits+b.cache.NegHits+b.cache.ListHits) - float64(a.cache.Hits+a.cache.NegHits+a.cache.ListHits)
	misses := float64(b.cache.Misses+b.cache.StaleMisses) - float64(a.cache.Misses+a.cache.StaleMisses)
	rtt := hist(cl, rpc.MetricRTT, nil)
	m["client.rpcs_per_op"] = ratio(calls, ops)
	m["client.dircache_hit_ratio"] = ratio(hits, hits+misses)
	m["client.recalls_per_op"] = ratio(float64(b.cache.RecallsApplied-a.cache.RecallsApplied), ops)
	if t.timedOps > 0 && rtt.Count > 0 {
		m["client.self_us"] = float64(t.timedLatNS)/float64(t.timedOps)/1e3 - us(rtt.Sum)/ops
	}

	// The p99s run too wide from run to run on a shared machine to bound as
	// end-to-end metrics (see README.md); they are reported here unbounded,
	// from the untimed windows like the end-to-end figures.
	var untimed []window
	for _, w := range ws {
		if !w.traced {
			untimed = append(untimed, w)
		}
	}
	m["client.create_p99_us"] = classQuantileUS(untimed, opCreate, 0.99)
	m["client.stat_p99_us"] = classQuantileUS(untimed, opStat, 0.99)

	// rpc
	queue := hist(servers, rpc.MetricQueue, replicationOps)
	service := hist(servers, rpc.MetricService, replicationOps)
	m["rpc.rtt_p50_us"] = us(rtt.Quantile(0.5))
	m["rpc.send_us"] = s.send.meanUS()
	if calls > 0 {
		m["rpc.transport_us"] = (us(rtt.Sum) - us(queue.Sum) - us(service.Sum)) / calls
	}
	m["rpc.queue_p50_us"] = us(queue.Quantile(0.5))
	m["rpc.queue_p99_us"] = us(queue.Quantile(0.99))
	m["rpc.retries"] = counter(cl, client.MetricRetries)
	m["rpc.dedup_hits"] = counter(servers, rpc.MetricDedup)

	// dms
	var dmsReqs float64
	for _, d := range dmsAll {
		for k, v := range d.c {
			if k.name == rpc.MetricRequests && !replicationOps[k.op] {
				dmsReqs += v
			}
		}
	}
	m["dms.reqs_per_op"] = ratio(dmsReqs, ops)
	for metric, op := range map[string]string{"mkdir": "Mkdir", "rmdir": "Rmdir", "lookup": "LookupDir",
		"readdir": "ReaddirSubdirs", "rename": "RenameDir"} {
		m["dms."+metric+"_service_us"] = us(hist(dmsAll, rpc.MetricService, nil, op).Quantile(0.5))
	}
	if s.dmsStore != nil {
		boot := dmsD[bootstrapDMS]
		reqs := counter([]regSnap{boot}, rpc.MetricRequests)
		kvOps := float64(b.dmsKV.Gets-a.dmsKV.Gets) + float64(b.dmsKV.Writes()-a.dmsKV.Writes()) +
			float64(b.dmsKV.Patches-a.dmsKV.Patches) + float64(b.dmsKV.Scans-a.dmsKV.Scans)
		m["dms.kv_ops_per_req"] = ratio(kvOps, reqs)
		m["dms.kv_bytes_per_req"] = ratio(float64(b.dmsKV.Bytes()-a.dmsKV.Bytes()), reqs)
	}
	muts := counter(dmsAll, rpc.MetricRequests, dmsMutations...)
	published := float64(b.leaseSeq - a.leaseSeq)
	suppressed := float64(b.leaseSupp - a.leaseSupp)
	m["dms.recalls_per_mutation"] = ratio(published, muts)
	m["dms.recall_suppressed_ratio"] = ratio(suppressed, published+suppressed)

	// partition
	if s.replicas > 1 {
		// Per replicated log entry: a client mutation is one entry, a
		// cross-partition rename several (its two-partition commit steps).
		m["partition.appends_per_mutation"] = ratio(counter(dmsAll, rpc.MetricRequests, "LogAppend"),
			float64(b.logEntries-a.logEntries))
		m["partition.append_service_us"] = us(hist(dmsAll, rpc.MetricService, nil, "LogAppend").Quantile(0.5))
	}
	m["partition.twopc_reqs_per_rename"] = ratio(counter(dmsAll, rpc.MetricRequests, twoPCOps...),
		counter(dmsAll, rpc.MetricRequests, "RenameDir"))
	if pw != nil {
		m["partition.exclusions"] = float64(pw.counts["follower_excluded"])
		m["partition.catchups"] = float64(pw.counts["catchup_started"])
	}

	// fms
	var fmsReqs, fmsMax float64
	for _, f := range fmsAll {
		r := counter([]regSnap{f}, rpc.MetricRequests)
		fmsReqs += r
		if r > fmsMax {
			fmsMax = r
		}
	}
	m["fms.reqs_per_op"] = ratio(fmsReqs, ops)
	m["fms.max_share"] = ratio(fmsMax, fmsReqs)
	for metric, op := range map[string]string{"create": "CreateFile", "getattr": "StatFile", "chmod": "ChmodFile",
		"remove": "RemoveFile", "readdir": "ReaddirFiles", "dirhasfiles": "DirHasFiles"} {
		m["fms."+metric+"_service_us"] = us(hist(fmsAll, rpc.MetricService, nil, op).Quantile(0.5))
	}
	m["fms.reqs_per_readdir"] = ratio(counter(fmsAll, rpc.MetricRequests, "ReaddirFiles"), float64(t.byClass[opReaddir]))
	m["fms.reqs_per_rmdir"] = ratio(counter(fmsAll, rpc.MetricRequests, "DirHasFiles"), float64(t.byClass[opRmdir]))

	// kv (durable wiring only)
	for _, k := range []string{"kv.ops_per_op", "kv.get_us", "kv.put_us", "kv.append_us", "kv.patch_us",
		"kv.wal_us", "kv.wal_bytes_per_op", "kv.snapshots", "model.dms_drift", "model.fms_drift"} {
		m[k] = 0
	}
	if s.above != nil {
		var point uint64
		for n, st := range b.storeKV {
			o := a.storeKV[n]
			point += (st.Gets - o.Gets) + (st.Writes() - o.Writes()) + (st.Patches - o.Patches)
		}
		m["kv.ops_per_op"] = ratio(float64(point), ops)
		m["kv.get_us"] = s.above.op[kvGet].meanUS()
		m["kv.put_us"] = s.above.op[kvPut].meanUS()
		m["kv.append_us"] = s.above.op[kvAppend].meanUS()
		m["kv.patch_us"] = s.above.op[kvPatch].meanUS()
		an, ans := s.above.mutations()
		_, bns := s.below.mutations()
		if an > 0 {
			m["kv.wal_us"] = float64(ans-bns) / float64(an) / 1e3
		}
		m["kv.wal_bytes_per_op"] = ratio(float64(b.walBytes-a.walBytes), ops)
		m["kv.snapshots"] = float64((b.belowScans - b.aboveScans) - (a.belowScans - a.aboveScans))
		m["model.dms_drift"] = drift(a, b, dmsD, "dms")
		var fb, fm float64
		for n := range fmsD {
			meas, model := busyVsModel(a, b, fmsD[n], n)
			fb += meas
			fm += model
		}
		m["model.fms_drift"] = ratio(fb, fm)
	}

	// go runtime
	var gcs uint32
	var gcCPU, cpu float64
	for _, w := range ws {
		gcs += w.gcs
		gcCPU += w.gcCPU
		cpu += w.cpu
	}
	m["go.gc_cycles_per_kop"] = ratio(float64(gcs), float64(t.timedOps)/1000)
	m["go.gc_cpu_fraction"] = ratio(gcCPU, cpu)

	m["trace.overhead_pct"] = traceOverheadPct(ws)
	return m
}

// traceOverheadPct compares each untimed window with the mean of the timed
// windows either side of it, so a steady drift in throughput over the run
// cancels out, and reports the median of those comparisons. With fewer
// than three windows it compares the medians of the two kinds.
func traceOverheadPct(ws []window) float64 {
	tput := func(w window) float64 { return ratio(float64(w.ops), w.dur.Seconds()) }
	var pct []float64
	for i := 1; i+1 < len(ws); i++ {
		if !ws[i].traced && ws[i-1].traced && ws[i+1].traced {
			off, on := tput(ws[i]), (tput(ws[i-1])+tput(ws[i+1]))/2
			pct = append(pct, 100*ratio(off-on, off))
		}
	}
	if len(pct) > 0 {
		return median(pct)
	}
	on, off := throughputSplit(ws)
	return 100 * ratio(off-on, off)
}

// bootstrapDMS is the registry name of the DMS clients dial first.
const bootstrapDMS = "dms"

// busyVsModel returns a server's measured busy time and the time
// core.PaperKVCost prices its KV counter deltas at, both in seconds.
func busyVsModel(a, b layerSnap, d regSnap, name string) (measured, modeled float64) {
	reqs := counter([]regSnap{d}, rpc.MetricRequests)
	if reqs == 0 {
		return 0, 0
	}
	x, y := a.storeKV[name], b.storeKV[name]
	price := core.PaperKVCost.Price(y.Gets-x.Gets, y.Writes()-x.Writes(), y.Patches-x.Patches,
		y.Scans-x.Scans, y.Bytes()-x.Bytes())
	price += time.Duration(reqs-1) * core.PaperKVCost.Fixed
	return (b.busy[name] - a.busy[name]).Seconds(), price.Seconds()
}

func drift(a, b layerSnap, d map[string]regSnap, name string) float64 {
	meas, model := busyVsModel(a, b, d[name], name)
	return ratio(meas, model)
}
