// Command perfbench is the wall-clock benchmark of the LocoFS metadata
// service. It runs one named workload against the real client, RPC, server
// and KV code paths inside this process, checks the namespace the workload
// leaves behind, and prints the result as one JSON line:
//
//	perfbench --workload bigdir --seed 1 --seconds 50 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that switches the layer-boundary timers on in alternate windows and
// reports the per-layer metrics. --selfcheck runs every workload briefly
// and checks that each exercises the mechanism it was chosen for. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

var endToEndSpecs = []metricSpec{
	{"setup_s", "s"}, {"ops_per_s", "1/s"},
	{"mkdir_p50_us", "us"}, {"create_p50_us", "us"}, {"create_p90_us", "us"},
	{"stat_p50_us", "us"}, {"stat_p90_us", "us"}, {"chmod_p50_us", "us"},
	{"readdir_p50_us", "us"}, {"remove_p50_us", "us"}, {"rmdir_p50_us", "us"},
	{"rename_p50_us", "us"}, {"alloc_bytes_per_op", "bytes"}, {"heap_peak_mb", "MB"},
}

var perLayerSpecs = []metricSpec{
	{"client.rpcs_per_op", "count"}, {"client.dircache_hit_ratio", "ratio"},
	{"client.recalls_per_op", "count"}, {"client.self_us", "us"},
	{"client.create_p99_us", "us"}, {"client.stat_p99_us", "us"},
	{"rpc.rtt_p50_us", "us"}, {"rpc.send_us", "us"}, {"rpc.transport_us", "us"},
	{"rpc.queue_p50_us", "us"}, {"rpc.queue_p99_us", "us"}, {"rpc.retries", "count"},
	{"rpc.dedup_hits", "count"},
	{"dms.reqs_per_op", "count"}, {"dms.mkdir_service_us", "us"}, {"dms.rmdir_service_us", "us"},
	{"dms.lookup_service_us", "us"}, {"dms.readdir_service_us", "us"}, {"dms.rename_service_us", "us"},
	{"dms.kv_ops_per_req", "count"}, {"dms.kv_bytes_per_req", "bytes"},
	{"dms.recalls_per_mutation", "count"}, {"dms.recall_suppressed_ratio", "ratio"},
	{"partition.appends_per_mutation", "count"}, {"partition.append_service_us", "us"},
	{"partition.twopc_reqs_per_rename", "count"}, {"partition.exclusions", "count"},
	{"partition.catchups", "count"},
	{"fms.reqs_per_op", "count"}, {"fms.max_share", "ratio"}, {"fms.create_service_us", "us"},
	{"fms.getattr_service_us", "us"}, {"fms.chmod_service_us", "us"}, {"fms.remove_service_us", "us"},
	{"fms.readdir_service_us", "us"}, {"fms.dirhasfiles_service_us", "us"},
	{"fms.reqs_per_readdir", "count"}, {"fms.reqs_per_rmdir", "count"},
	{"kv.ops_per_op", "count"}, {"kv.get_us", "us"}, {"kv.put_us", "us"}, {"kv.append_us", "us"},
	{"kv.patch_us", "us"}, {"kv.wal_us", "us"}, {"kv.wal_bytes_per_op", "bytes"},
	{"kv.snapshots", "count"},
	{"go.gc_cycles_per_kop", "count"}, {"go.gc_cpu_fraction", "ratio"},
	{"trace.overhead_pct", "%"},
	{"model.dms_drift", "ratio"}, {"model.fms_drift", "ratio"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	dataDir string // scratch space for the durable workload's stores
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	setups []time.Duration
	ws     []window
	recs   []*recorder
	layers map[string]float64 // traced runs only
	oracle error              // final-state check
}

var workloads = map[string]func(config) (*outcome, error){
	"small-dirs-durable": runSmallDirs,
	"bigdir":             runBigDir,
	"sharded-mix":        runShardedMix,
	"mix":                runUnshardedMix,
}

const (
	numClients = 2 // closed-loop clients, one per CPU of the reference machine
	setupReps  = 5 // set-ups per run; setup_s is their median
)

func main() {
	name := flag.String("workload", "", "workload: bigdir, mix, small-dirs-durable or sharded-mix")
	seed := flag.Int64("seed", 1, "workload seed: every path and op sequence derives from it")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dataDir := flag.String("data", ".bench_build/data", "directory for the durable workload's stores")
	selfcheck := flag.Bool("selfcheck", false, "run every workload briefly and check its mechanism")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, dataDir: *dataDir}
	if cfg.seconds < 2 {
		cfg.seconds = 2
	}
	if *selfcheck {
		os.Exit(runSelfCheck(cfg))
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d clients=%d gomaxprocs=%d\n",
		*name, cfg.seed, cfg.seconds, *traceFlag, numClients, runtime.GOMAXPROCS(0))
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	correct := report(out, cfg.trace)
	if !correct {
		os.Exit(1)
	}
}

// report prints the human summary to stderr and the result line to stdout,
// returning whether the run was correct.
func report(out *outcome, traced bool) bool {
	attempted, failed := 0, 0
	for i, r := range out.recs {
		attempted += r.attempted
		failed += r.failed
		for _, e := range r.errs {
			fmt.Fprintf(os.Stderr, "perfbench: client %d: %s\n", i, e)
		}
	}
	if out.oracle != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", out.oracle)
	}
	correct := out.oracle == nil && failed == 0 && attempted > 0
	vals, specs := endToEnd(out.ws, out.setups), endToEndSpecs
	if traced {
		vals, specs = out.layers, perLayerSpecs
	}
	ops, dur := sumOps(out.ws)
	fmt.Fprintf(os.Stderr, "perfbench: %d timed ops in %d windows over %.2fs; attempted=%d failed=%d\n",
		ops, len(out.ws), dur.Seconds(), attempted, failed)
	for i, w := range out.ws {
		fmt.Fprintf(os.Stderr, "  window %2d traced=%-5v %6.2fs %9.0f ops/s %9.0f B/op\n",
			i, w.traced, w.dur.Seconds(), ratio(float64(w.ops), w.dur.Seconds()), ratio(float64(w.alloc), float64(w.ops)))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		metrics[s.name] = value{vals[s.name], s.unit}
		fmt.Fprintf(os.Stderr, "  %-32s %14.3f %s\n", s.name, vals[s.name], s.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

// setUp builds the system setupReps times, timing each, and keeps the last:
// set-up cost is reported as the median, so work moved into set-up shows.
func setUp(build func(rep int) (*system, error)) (*system, []time.Duration, error) {
	var times []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := build(rep)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0))
		if rep == setupReps-1 {
			return sys, times, nil
		}
		if err := sys.close(); err != nil {
			return nil, nil, fmt.Errorf("set-up teardown: %w", err)
		}
	}
	panic("unreachable")
}

// measureTimed drives every client's closed loop for cfg.seconds, cut into
// one-second windows. body runs one client until the deadline (finishing
// any unit it has begun untimed); it reads its window from rec.win, which
// it sets with windowAt. In a traced run the timers are on in even windows
// and the layer snapshots bracket the whole phase.
func measureTimed(cfg config, sys *system, recs []*recorder,
	body func(ci int, r *recorder, windowAt func(time.Time) (int, bool))) ([]window, map[string]float64) {
	const winDur = time.Second
	nw := cfg.seconds
	var pw *partitionWatch
	var before layerSnap
	if cfg.trace {
		pw = watchPartitions(sys.journal)
		before = sys.snapshot()
	}
	m := startMeter()
	start := m.marks[0].t
	windowAt := func(t time.Time) (int, bool) {
		i := int(t.Sub(start) / winDur)
		if i >= nw {
			return nw - 1, false
		}
		return i, true
	}
	tracing.Store(cfg.trace)
	var wg sync.WaitGroup
	for ci := range recs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			body(ci, recs[ci], windowAt)
		}(ci)
	}
	for k := 1; k <= nw; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * winDur)))
		m.mark()
		tracing.Store(cfg.trace && k%2 == 0)
	}
	tracing.Store(false)
	wg.Wait()
	m.close()
	ws := windows(m, recs, func(i int) bool { return cfg.trace && i%2 == 0 })
	var layers map[string]float64
	if cfg.trace {
		pw.close()
		layers = perLayer(sys, before, sys.snapshot(), recs, ws, pw)
	}
	return ws, layers
}

func newRecorders() []*recorder {
	recs := make([]*recorder, numClients)
	for i := range recs {
		recs[i] = &recorder{}
	}
	return recs
}

// runSelfCheck runs every workload briefly, traced, and checks that each
// exercises the layer it was chosen for.
func runSelfCheck(cfg config) int {
	cfg.trace = true
	cfg.seconds = 4
	e2e := map[string]map[string]float64{}
	layer := map[string]map[string]float64{}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	ok := true
	for _, n := range names {
		out, err := workloads[n](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selfcheck %s: %v\n", n, err)
			return 1
		}
		if !report(out, true) {
			ok = false
		}
		e2e[n] = endToEnd(out.ws, out.setups)
		layer[n] = out.layers
	}
	check := func(what string, cond bool, detail string) {
		status := "ok  "
		if !cond {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("selfcheck %s %-60s %s\n", status, what, detail)
	}
	big, small := e2e["bigdir"]["alloc_bytes_per_op"], e2e["small-dirs-durable"]["alloc_bytes_per_op"]
	check("bigdir alloc_bytes_per_op >= 10x small-dirs-durable's", big >= 10*small,
		fmt.Sprintf("%.0f vs %.0f (%.1fx)", big, small, ratio(big, small)))
	apm := layer["sharded-mix"]["partition.appends_per_mutation"]
	check("sharded-mix partition.appends_per_mutation ~ replicas-1 = 2", apm >= 1.9 && apm <= 2.1,
		fmt.Sprintf("%.3f", apm))
	rpo := layer["sharded-mix"]["client.recalls_per_op"]
	check("sharded-mix client.recalls_per_op > 0", rpo > 0, fmt.Sprintf("%.4f", rpo))
	wal := layer["small-dirs-durable"]["kv.wal_bytes_per_op"]
	check("small-dirs-durable kv.wal_bytes_per_op > 0", wal > 0, fmt.Sprintf("%.1f", wal))
	if !ok {
		return 1
	}
	return 0
}

// expectNames compares a listing against the expected names.
func expectNames(got []string, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("listing has %d entries, want %d", len(got), len(want))
	}
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("listing differs at %q (want %q)", g[i], w[i])
		}
	}
	return nil
}

func joinErrs(errs []string) error {
	if len(errs) == 0 {
		return nil
	}
	if len(errs) > 5 {
		errs = append(errs[:5], fmt.Sprintf("... and %d more", len(errs)-5))
	}
	return fmt.Errorf("%s", strings.Join(errs, "; "))
}
