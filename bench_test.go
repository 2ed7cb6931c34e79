// Package locofs_test holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (§4), plus
// micro-benchmarks of the core data paths. Run with
//
//	go test -bench=. -benchmem
//
// The Figure/Table benchmarks execute the same experiment runners as
// cmd/locofs-bench at reduced scale and report the key reproduced quantity
// as a custom metric (IOPS, RTT multiples, fractions) alongside Go's timing.
package locofs_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"locofs/internal/bench"
	"locofs/internal/core"
	"locofs/internal/fsapi"
	"locofs/internal/kv"
	"locofs/internal/lsm"
	"locofs/internal/mdtest"
	"locofs/internal/netsim"
)

// benchEnv is the reduced-scale environment used by the testing.B harness.
func benchEnv() bench.Env {
	env := bench.Quick()
	env.LatItems = 40
	env.TputItems = 30
	return env
}

// reportCell parses a table cell like "123.4K", "1.3x" or "0.38" and
// reports it as a named benchmark metric.
func reportCell(b *testing.B, tbl *bench.Table, row, col int, metric string) {
	b.Helper()
	cell := tbl.Cell(row, col)
	s := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(cell, "K"), "x"), "us")
	s = strings.TrimSuffix(s, "s")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q not numeric", row, col, cell)
	}
	if strings.HasSuffix(cell, "K") {
		v *= 1e3
	}
	b.ReportMetric(v, metric)
}

// runFigure runs one figure runner b.N times (they are deterministic, so
// N is usually 1) and returns the last table.
func runFigure(b *testing.B, fn func(bench.Env) (*bench.Table, error)) *bench.Table {
	b.Helper()
	env := benchEnv()
	var tbl *bench.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = fn(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkFig1GapStudy regenerates Figure 1 (FS metadata vs raw KV gap).
func BenchmarkFig1GapStudy(b *testing.B) {
	tbl := runFigure(b, bench.Fig1)
	reportCell(b, tbl, 0, 1, "indexfs-frac-of-kv")
	reportCell(b, tbl, 0, 5, "locofs-frac-of-kv")
}

// BenchmarkTable1AccessMatrix regenerates the Table 1 live probe.
func BenchmarkTable1AccessMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3ClientSaturation regenerates Table 3.
func BenchmarkTable3ClientSaturation(b *testing.B) {
	env := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6TouchMkdirLatency regenerates Figure 6 and reports LocoFS-C
// touch latency in RTT multiples at one server.
func BenchmarkFig6TouchMkdirLatency(b *testing.B) {
	tbl := runFigure(b, bench.Fig6)
	reportCell(b, tbl, 0, 2, "locofs-touch-rtts")
	reportCell(b, tbl, 1, 2, "locofs-mkdir-rtts")
}

// BenchmarkFig7OpLatency regenerates Figure 7.
func BenchmarkFig7OpLatency(b *testing.B) {
	runFigure(b, bench.Fig7)
}

// BenchmarkFig8Throughput regenerates Figure 8 and reports LocoFS-C
// single-server create throughput.
func BenchmarkFig8Throughput(b *testing.B) {
	tbl := runFigure(b, bench.Fig8)
	reportCell(b, tbl, 1, 2, "locofs-1srv-touch-iops")
}

// BenchmarkFig9GapBridging regenerates Figure 9 and reports the 1-server
// fraction of the raw KV store (paper: 0.38).
func BenchmarkFig9GapBridging(b *testing.B) {
	tbl := runFigure(b, bench.Fig9)
	reportCell(b, tbl, 0, 3, "frac-of-kv")
}

// BenchmarkFig10Colocated regenerates Figure 10 (software-only latency).
func BenchmarkFig10Colocated(b *testing.B) {
	tbl := runFigure(b, bench.Fig10)
	reportCell(b, tbl, 1, 1, "locofs-touch-us")
}

// BenchmarkFig11DecoupledMetadata regenerates Figure 11.
func BenchmarkFig11DecoupledMetadata(b *testing.B) {
	tbl := runFigure(b, bench.Fig11)
	reportCell(b, tbl, 0, 1, "df-chmod-iops")
	reportCell(b, tbl, 0, 2, "cf-chmod-iops")
}

// BenchmarkFig12FullSystemIO regenerates Figure 12.
func BenchmarkFig12FullSystemIO(b *testing.B) {
	runFigure(b, bench.Fig12)
}

// BenchmarkFig13DepthSensitivity regenerates Figure 13.
func BenchmarkFig13DepthSensitivity(b *testing.B) {
	runFigure(b, bench.Fig13)
}

// BenchmarkFig14RenameOverhead regenerates Figure 14 and reports the
// modeled seconds of the largest btree-SSD and hash-SSD renames.
func BenchmarkFig14RenameOverhead(b *testing.B) {
	tbl := runFigure(b, bench.Fig14)
	last := len(tbl.Rows) - 1
	reportCell(b, tbl, last, 1, "btree-ssd-sec")
	reportCell(b, tbl, last, 3, "hash-ssd-sec")
}

// ---- Micro-benchmarks of the core data paths (real wall time). ----

// BenchmarkKVBTreePut measures the B+-tree engine's insert path.
func BenchmarkKVBTreePut(b *testing.B) {
	s := kv.NewBTreeStore()
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
}

// BenchmarkKVBTreeGet measures the B+-tree engine's lookup path.
func BenchmarkKVBTreeGet(b *testing.B) {
	s := kv.NewBTreeStore()
	val := make([]byte, 64)
	const n = 100000
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get([]byte(fmt.Sprintf("key-%09d", i%n)))
	}
}

// BenchmarkKVHashPut measures the hash engine's insert path.
func BenchmarkKVHashPut(b *testing.B) {
	s := kv.NewHashStore()
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
}

// BenchmarkKVPatchInPlace measures the serialization-free field update the
// decoupled file metadata design relies on (§3.3.3).
func BenchmarkKVPatchInPlace(b *testing.B) {
	s := kv.NewHashStore()
	s.Put([]byte("k"), make([]byte, 44))
	patch := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PatchInPlace([]byte("k"), 16, patch)
	}
}

// BenchmarkLSMPut measures the LSM store's insert path (the IndexFS
// baseline's storage engine).
func BenchmarkLSMPut(b *testing.B) {
	s := lsm.MustNew(nil)
	val := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put([]byte(fmt.Sprintf("key-%09d", i)), val)
	}
}

// BenchmarkBTreeMovePrefix measures the d-rename primitive: relocating a
// 1000-record subtree prefix in the tree engine.
func BenchmarkBTreeMovePrefix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := kv.NewBTreeStore()
		for j := 0; j < 1000; j++ {
			s.Put([]byte(fmt.Sprintf("P:/old/d%04d", j)), make([]byte, 256))
		}
		b.StartTimer()
		if n := s.MovePrefix([]byte("P:/old/"), []byte("P:/new/")); n != 1000 {
			b.Fatalf("moved %d", n)
		}
	}
}

// BenchmarkLocoFSCreate measures the end-to-end wall cost of a file create
// through the full client/RPC/FMS stack (loopback fabric, no cost model).
func BenchmarkLocoFSCreate(b *testing.B) {
	cluster, err := core.Start(core.Options{FMSCount: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(core.ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Mkdir("/bench", 0o755); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Create(fmt.Sprintf("/bench/f%d", i), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocoFSMkdirRmdir measures the end-to-end wall cost of one
// mkdir+rmdir pair: the DMS mutation path through its partition node's op
// log, plus the rmdir's emptiness check on every FMS.
func BenchmarkLocoFSMkdirRmdir(b *testing.B) {
	cluster, err := core.Start(core.Options{FMSCount: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(core.ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Mkdir("/d", 0o755); err != nil {
			b.Fatal(err)
		}
		if err := cl.Rmdir("/d"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocoFSStat measures the end-to-end wall cost of a file stat.
func BenchmarkLocoFSStat(b *testing.B) {
	cluster, err := core.Start(core.Options{FMSCount: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(core.ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	cl.Mkdir("/bench", 0o755)
	cl.Create("/bench/f", 0o644)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.StatFile("/bench/f"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMdtestWorkload measures a complete small mdtest cycle end to end.
func BenchmarkMdtestWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cluster, err := core.Start(core.Options{FMSCount: 2, Link: netsim.Loopback})
		if err != nil {
			b.Fatal(err)
		}
		newFS := func() (fsapi.FS, error) {
			cl, err := cluster.NewClient(core.ClientConfig{})
			if err != nil {
				return nil, err
			}
			return fsapi.LocoFS{C: cl}, nil
		}
		b.StartTimer()
		if _, err := mdtest.Run(mdtest.Config{Clients: 4, ItemsPerClient: 50}, newFS); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cluster.Close()
		b.StartTimer()
	}
}
