package fms

import (
	"fmt"
	"runtime"
	"testing"

	"locofs/internal/kv"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// createBytesPerOp fills a fresh directory with size files, then returns
// the bytes allocated per Create over the next window creates.
func createBytesPerOp(t *testing.T, store kv.Store, size, window int) float64 {
	t.Helper()
	s := New(Options{ServerID: 1, Store: store})
	dir := uuid.New(0, 7)
	create := func(i int) {
		if _, st := s.Create(dir, fmt.Sprintf("img-%07d.jpg", i), 0o644, 1, 1); st != wire.StatusOK {
			t.Fatalf("create %d: %v", i, st)
		}
	}
	for i := 0; i < size; i++ {
		create(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := size; i < size+window; i++ {
		create(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(window)
}

// TestCreateCostFlatInDirectorySize: a create appends its dirent in place,
// so the bytes it allocates do not grow with the directory. It compares
// 15000 creates into a directory already holding 1k entries (it grows to
// 16k) with 15000 creates into one holding 50k (it grows to 65k). append
// grows a large slice by about 1.25x, so both windows pay for at least one
// regrowth of the dirent value. Copying the whole value on every create
// would cost the second window several times the first.
func TestCreateCostFlatInDirectorySize(t *testing.T) {
	stores := map[string]func() kv.Store{
		"hash":  func() kv.Store { return kv.NewHashStore() },
		"btree": func() kv.Store { return kv.NewBTreeStore() },
	}
	const window = 15000
	for name, mk := range stores {
		t.Run(name, func(t *testing.T) {
			small := createBytesPerOp(t, mk(), 1000, window)
			big := createBytesPerOp(t, mk(), 50000, window)
			t.Logf("bytes/create over %d creates: %.0f from 1k entries, %.0f from 50k", window, small, big)
			if big > 2*small {
				t.Fatalf("%d creates from 50k entries allocate %.0f B each vs %.0f B from 1k: grows with the directory", window, big, small)
			}
		})
	}
}
