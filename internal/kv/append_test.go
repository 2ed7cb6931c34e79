package kv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// visitAll runs fn over every record through each visiting entry point the
// store has: ForEach, plus AscendRange for ordered stores.
func visitAll(s Store, fn func(k, v []byte)) {
	s.ForEach(func(k, v []byte) bool { fn(k, v); return true })
	if o, ok := s.(Ordered); ok {
		o.AscendRange(nil, nil, func(k, v []byte) bool { fn(k, v); return true })
	}
}

// grown returns a value that has been appended to often enough to carry
// spare capacity in the store.
func grown(s Store, key []byte) []byte {
	var want []byte
	for i := 0; i < 20; i++ {
		d := []byte(fmt.Sprintf("<%d>", i))
		s.AppendValue(key, d)
		want = append(want, d...)
	}
	return want
}

func TestAppendLeavesEarlierGetUnchanged(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			k := []byte("k")
			want := grown(s, k)
			got, _ := s.Get(k)
			snapshot := append([]byte(nil), got...)
			s.AppendValue(k, []byte("tail"))
			if !bytes.Equal(got, snapshot) || cap(got) != len(got) {
				t.Fatalf("Get result changed by a later append: %q (cap %d)", got, cap(got))
			}
			// Appending to the Get result must not reach the store either.
			_ = append(got, "zz"...)
			if v, _ := s.Get(k); string(v) != string(want)+"tail" {
				t.Fatalf("store = %q", v)
			}
		})
	}
}

func TestAppendNeverWritesCallerSlices(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			// Caller slices with spare capacity the store could be tempted
			// to grow into.
			put := make([]byte, 4, 64)
			copy(put, "put:")
			app := make([]byte, 4, 64)
			copy(app, "app:")
			s.Put([]byte("p"), put)
			s.AppendValue([]byte("a"), app) // creates from a caller slice
			for i := 0; i < 10; i++ {
				s.AppendValue([]byte("p"), []byte("xy"))
				s.AppendValue([]byte("a"), []byte("xy"))
			}
			for _, b := range [][]byte{put, app} {
				if tail := b[len(b):cap(b)]; !bytes.Equal(tail, make([]byte, len(tail))) {
					t.Fatalf("store wrote into a caller slice's spare capacity: %q", tail[:8])
				}
			}
			copy(put, "XXXX")
			copy(app, "XXXX")
			if v, _ := s.Get([]byte("p")); !bytes.HasPrefix(v, []byte("put:")) {
				t.Fatalf("Put retained the caller slice: %q", v)
			}
			if v, _ := s.Get([]byte("a")); !bytes.HasPrefix(v, []byte("app:")) {
				t.Fatalf("AppendValue retained the caller slice: %q", v)
			}
		})
	}
}

func TestAppendToVisitedValueLeavesStoreIntact(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			k := []byte("k")
			want := grown(s, k)
			var kept [][]byte
			visitAll(s, func(_, v []byte) {
				if cap(v) != len(v) {
					t.Errorf("visited value exposes spare capacity: len %d cap %d", len(v), cap(v))
				}
				kept = append(kept, append(v, "caller"...))
			})
			if v, _ := s.Get(k); !bytes.Equal(v, want) {
				t.Fatalf("caller's append reached the store: %q", v)
			}
			// The store's own later append must not show through the
			// caller's slices either.
			s.AppendValue(k, []byte("store"))
			for _, c := range kept {
				if string(c) != string(want)+"caller" {
					t.Fatalf("store append changed a caller slice: %q", c)
				}
			}
			if v, _ := s.Get(k); string(v) != string(want)+"store" {
				t.Fatalf("store = %q", v)
			}
		})
	}
}

// TestConcurrentAppendGetForEach runs appenders beside readers and
// visitors; under -race it checks the in-place growth publishes nothing a
// reader can see half-written.
func TestConcurrentAppendGetForEach(t *testing.T) {
	const writers, appends, rec = 4, 300, 8
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			keys := [][]byte{[]byte("k0"), []byte("k1")}
			// wellFormed: a value is whole rec-byte records "wWWnnnn;".
			wellFormed := func(v []byte) bool {
				if len(v)%rec != 0 {
					return false
				}
				for i := 0; i < len(v); i += rec {
					if v[i] != 'w' || v[i+rec-1] != ';' {
						return false
					}
				}
				return true
			}
			var wg sync.WaitGroup
			done := make(chan struct{})
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < appends; i++ {
						s.AppendValue(keys[i%2], []byte(fmt.Sprintf("w%02d%04d;", w, i)))
					}
				}(w)
			}
			var rg sync.WaitGroup
			for r := 0; r < 2; r++ {
				rg.Add(1)
				go func() {
					defer rg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						for _, k := range keys {
							if v, ok := s.Get(k); ok && !wellFormed(v) {
								t.Errorf("Get saw a torn value of %d bytes", len(v))
								return
							}
						}
						visitAll(s, func(_, v []byte) {
							if !wellFormed(v) {
								t.Errorf("visit saw a torn value of %d bytes", len(v))
							}
						})
					}
				}()
			}
			wg.Wait()
			close(done)
			rg.Wait()
			total := 0
			for _, k := range keys {
				v, _ := s.Get(k)
				total += len(v)
			}
			if total != writers*appends*rec {
				t.Fatalf("stored %d bytes, want %d", total, writers*appends*rec)
			}
		})
	}
}
