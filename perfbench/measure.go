package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opClass is one end-to-end operation class; every workload runs all of
// them so every end-to-end metric is measured on every workload.
type opClass int

const (
	opMkdir opClass = iota
	opCreate
	opStat
	opChmod
	opReaddir
	opRemove
	opRmdir
	opRename
	numClasses
)

var classNames = [numClasses]string{"mkdir", "create", "stat", "chmod", "readdir", "remove", "rmdir", "rename"}

// winRec holds one measurement window's samples of one client.
type winRec struct {
	lat [numClasses][]int64 // per-class latencies, ns
	ops int
}

// recorder is one client's closed-loop log: every op's latency by window,
// plus attempted and failed counts. Each client owns one, so recording
// takes no lock.
type recorder struct {
	wins      []*winRec
	win       int // current window
	attempted int
	byClass   [numClasses]int // attempted, by class
	failed    int
	errs      []string
}

func (r *recorder) window(i int) *winRec {
	for len(r.wins) <= i {
		r.wins = append(r.wins, &winRec{})
	}
	return r.wins[i]
}

// do runs one op and, when timed, records its latency in the current
// window. Untimed ops (the tail of a unit finished after the deadline) still
// count as attempted and, on error, failed.
func (r *recorder) do(c opClass, timed bool, fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.attempted++
	r.byClass[c]++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", classNames[c], err))
		}
		return err
	}
	if timed {
		w := r.window(r.win)
		w.lat[c] = append(w.lat[c], int64(d))
		w.ops++
	}
	return nil
}

// failf counts a wrong answer from an op that itself succeeded (an oracle
// mismatch seen mid-run) as a failed op.
func (r *recorder) failf(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// meter marks window boundaries and samples process-wide runtime figures
// per window: bytes allocated, GC cycles, GC CPU share and peak live heap.
type meter struct {
	peak    atomic.Uint64 // live heap peak since the last mark
	stop    chan struct{}
	done    sync.WaitGroup
	marks   []mark
	samples []metrics.Sample
}

type mark struct {
	t          time.Time
	alloc      uint64
	gcs        uint32
	gcCPU, cpu float64
	peak       uint64 // heap peak over the window ending at this mark
}

const (
	mHeap  = "/gc/heap/live:bytes" // heap marked live by the last GC
	mGCCPU = "/cpu/classes/gc/total:cpu-seconds"
	mCPU   = "/cpu/classes/total:cpu-seconds"
)

// startMeter begins live-heap sampling (every 2 ms) and takes the first
// mark. The live heap, unlike the allocated heap, does not depend on when
// the collector happens to run, so its peak is steady from run to run.
func startMeter() *meter {
	m := &meter{stop: make(chan struct{})}
	m.samples = []metrics.Sample{{Name: mHeap}, {Name: mGCCPU}, {Name: mCPU}}
	m.mark()
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		s := []metrics.Sample{{Name: mHeap}}
		tk := time.NewTicker(2 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tk.C:
				metrics.Read(s)
				v := s[0].Value.Uint64()
				for {
					cur := m.peak.Load()
					if v <= cur || m.peak.CompareAndSwap(cur, v) {
						break
					}
				}
			}
		}
	}()
	return m
}

// mark closes the current window (and opens the next).
func (m *meter) mark() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(m.samples)
	peak := m.peak.Swap(0)
	if h := m.samples[0].Value.Uint64(); h > peak {
		peak = h
	}
	m.marks = append(m.marks, mark{
		t:     time.Now(),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
		gcCPU: m.samples[1].Value.Float64(),
		cpu:   m.samples[2].Value.Float64(),
		peak:  peak,
	})
}

func (m *meter) close() {
	close(m.stop)
	m.done.Wait()
}

// window is one closed measurement window merged across clients.
type window struct {
	dur        time.Duration
	ops        int
	lat        [numClasses][]int64
	alloc      uint64
	gcs        uint32
	gcCPU, cpu float64
	peak       uint64
	traced     bool
}

// windows merges the clients' recorders with the meter's marks; window i
// spans marks[i]..marks[i+1].
func windows(m *meter, recs []*recorder, traced func(i int) bool) []window {
	n := len(m.marks) - 1
	out := make([]window, n)
	for i := 0; i < n; i++ {
		a, b := m.marks[i], m.marks[i+1]
		w := window{
			dur: b.t.Sub(a.t), alloc: b.alloc - a.alloc, gcs: b.gcs - a.gcs,
			gcCPU: b.gcCPU - a.gcCPU, cpu: b.cpu - a.cpu, peak: b.peak,
			traced: traced(i),
		}
		for _, r := range recs {
			if i >= len(r.wins) {
				continue
			}
			w.ops += r.wins[i].ops
			for c := range w.lat {
				w.lat[c] = append(w.lat[c], r.wins[i].lat[c]...)
			}
		}
		out[i] = w
	}
	return out
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// classQuantileUS reports a class's q-quantile in µs. Each window's samples
// are cut, in order, into chunks large enough to hold ten samples beyond the
// quantile (and at least 200); the result is the median of the chunks'
// quantiles, so one disturbed stretch of a run moves it little. When there
// are too few samples for one chunk, all samples are pooled.
func classQuantileUS(ws []window, c opClass, q float64) float64 {
	size := int(math.Ceil(10 / (1 - q)))
	if size < 200 {
		size = 200
	}
	var per []float64
	var pool []int64
	for _, w := range ws {
		s := w.lat[c]
		pool = append(pool, s...)
		for len(s) >= size {
			n := size
			if len(s) < 2*size {
				n = len(s) // fold a short remainder into the last chunk
			}
			chunk := append([]int64(nil), s[:n]...)
			sort.Slice(chunk, func(i, j int) bool { return chunk[i] < chunk[j] })
			per = append(per, quantile(chunk, q))
			s = s[n:]
		}
	}
	if len(per) == 0 {
		sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
		return quantile(pool, q) / 1e3
	}
	return median(per) / 1e3
}

// endToEnd computes the end-to-end metrics over the untraced windows.
func endToEnd(ws []window, setups []time.Duration) map[string]float64 {
	var sel []window
	for _, w := range ws {
		if !w.traced {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 {
		sel = ws
	}
	var tput, alloc, peak []float64
	for _, w := range sel {
		if w.ops == 0 || w.dur <= 0 {
			continue
		}
		tput = append(tput, float64(w.ops)/w.dur.Seconds())
		alloc = append(alloc, float64(w.alloc)/float64(w.ops))
		peak = append(peak, float64(w.peak)/(1<<20))
	}
	var ss []float64
	for _, d := range setups {
		ss = append(ss, d.Seconds())
	}
	out := map[string]float64{
		"setup_s":            median(ss),
		"ops_per_s":          median(tput),
		"alloc_bytes_per_op": median(alloc),
		"heap_peak_mb":       median(peak),
		"create_p90_us":      classQuantileUS(sel, opCreate, 0.9),
		"stat_p90_us":        classQuantileUS(sel, opStat, 0.9),
	}
	for c := opClass(0); c < numClasses; c++ {
		out[classNames[c]+"_p50_us"] = classQuantileUS(sel, c, 0.5)
	}
	return out
}

// throughputSplit returns the median ops/s of traced and untraced windows.
func throughputSplit(ws []window) (on, off float64) {
	var a, b []float64
	for _, w := range ws {
		if w.ops == 0 || w.dur <= 0 {
			continue
		}
		v := float64(w.ops) / w.dur.Seconds()
		if w.traced {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	return median(a), median(b)
}

func sumOps(ws []window) (ops int, dur time.Duration) {
	for _, w := range ws {
		ops += w.ops
		dur += w.dur
	}
	return ops, dur
}
