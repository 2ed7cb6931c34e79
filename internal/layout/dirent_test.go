package layout

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"locofs/internal/uuid"
)

// direntLog is a random dirent log for property tests: creates, tombstones
// (of live and of never-created names) and re-creates of a small name set,
// so runs of several records per name are common.
type direntLog []byte

func (direntLog) Generate(r *rand.Rand, size int) reflect.Value {
	names := 1 + r.Intn(24)
	var list []byte
	for i := r.Intn(4 * (size + 1)); i > 0; i-- {
		// Names of varying length, some sharing prefixes, one empty; half
		// also share a long common prefix.
		name := fmt.Sprintf("%.*s", r.Intn(4), fmt.Sprintf("n%02d", r.Intn(names)))
		if r.Intn(2) == 0 {
			name = "shared-prefix/" + name
		}
		if r.Intn(3) == 0 {
			list = AppendDirentTombstone(list, name)
		} else {
			list = AppendDirent(list, Dirent{Name: name, UUID: uuid.New(uint32(r.Intn(4)), r.Uint64())})
		}
	}
	return reflect.ValueOf(direntLog(list))
}

// referenceListing is the live listing the map-based DecodeDirents yields,
// in name order.
func referenceListing(list []byte) []Dirent {
	ents, err := DecodeDirents(list)
	if err != nil {
		panic(err)
	}
	SortDirents(ents)
	return ents
}

// referencePage cuts one DirentPageAt window out of the reference listing.
func referencePage(all []Dirent, cursor string, skip, limit int) ([]Dirent, int) {
	start := 0
	if cursor != "" {
		start = sort.Search(len(all), func(i int) bool { return all[i].Name > cursor })
	}
	all = all[start:]
	if limit > 0 && skip > 0 {
		if skip*limit >= len(all) {
			return nil, 0
		}
		all = all[skip*limit:]
	}
	if limit > 0 && len(all) > limit {
		return all[:limit], len(all) - limit
	}
	return all, 0
}

func sameDirents(a, b []Dirent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuickDirentIndexMatchesReference: on random logs, DirentPageAt at any
// cursor/skip/limit, CountDirents and CompactDirents agree
// with the DecodeDirents+SortDirents reference.
func TestQuickDirentIndexMatchesReference(t *testing.T) {
	f := func(log direntLog, cursorPick uint8, skip, limit int8) bool {
		list := []byte(log)
		all := referenceListing(list)
		cursor := ""
		if len(all) > 0 && cursorPick%4 != 0 {
			// A cursor at a live name, or between names.
			cursor = all[int(cursorPick)%len(all)].Name
			if cursorPick%4 == 3 {
				cursor += "~"
			}
		}
		s, l := int(skip%4), int(limit%6)
		got, rem, err := DirentPageAt(list, cursor, s, l)
		want, wantRem := referencePage(all, cursor, s, l)
		if err != nil || rem != wantRem || !sameDirents(got, want) {
			t.Logf("page(%q,%d,%d) = %v rem %d, want %v rem %d", cursor, s, l, got, rem, want, wantRem)
			return false
		}
		if n, err := CountDirents(list); err != nil || n != len(all) {
			t.Logf("CountDirents = %d, want %d", n, len(all))
			return false
		}
		// Compaction keeps DecodeDirents' first-insertion order, so the
		// compacted log decodes to exactly the original decode.
		out, live, err := CompactDirents(list)
		dec, _ := DecodeDirents(list)
		dec2, err2 := DecodeDirents(out)
		if err != nil || err2 != nil || live != len(all) || !sameDirents(dec, dec2) {
			t.Logf("compacted %v (live %d), want %v", dec2, live, dec)
			return false
		}
		if recs, _ := DirentRecords(out); recs != live {
			t.Logf("compacted log holds %d records for %d live", recs, live)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDirentPageWalksFullListing pages through listings with tombstones and
// re-creates, created in random, ascending and descending name order, by
// cursor and by skip, and gets the reference listing each time.
func TestDirentPageWalksFullListing(t *testing.T) {
	orders := map[string]func(i int) int{
		"random":     func(i int) int { return (i * 7919) % 3000 },
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return 2999 - i },
	}
	for order, at := range orders {
		t.Run(order, func(t *testing.T) {
			name := func(i int) string { return fmt.Sprintf("dataset/train/img-%05d.jpg", at(i)) }
			var list []byte
			for i := 0; i < 3000; i++ {
				list = AppendDirent(list, Dirent{Name: name(i), UUID: uuid.New(1, uint64(i+1))})
			}
			for i := 0; i < 3000; i += 3 {
				list = AppendDirentTombstone(list, name(i))
			}
			for i := 0; i < 3000; i += 9 {
				list = AppendDirent(list, Dirent{Name: name(i), UUID: uuid.New(2, uint64(i+1))})
			}
			want := referenceListing(list)
			var byCursor []Dirent
			for cursor := ""; ; {
				page, rem, err := DirentPageAt(list, cursor, 0, 256)
				if err != nil {
					t.Fatal(err)
				}
				byCursor = append(byCursor, page...)
				if rem != len(want)-len(byCursor) {
					t.Fatalf("remaining %d after %d of %d", rem, len(byCursor), len(want))
				}
				if rem == 0 {
					break
				}
				cursor = page[len(page)-1].Name
			}
			var bySkip []Dirent
			for skip := 0; ; skip++ {
				page, rem, err := DirentPageAt(list, "", skip, 256)
				if err != nil {
					t.Fatal(err)
				}
				bySkip = append(bySkip, page...)
				if rem == 0 {
					break
				}
			}
			whole, rem, err := DirentPageAt(list, "", 0, 0)
			if err != nil || rem != 0 {
				t.Fatalf("unbounded page: rem %d, %v", rem, err)
			}
			if !sameDirents(byCursor, want) || !sameDirents(bySkip, want) || !sameDirents(whole, want) {
				t.Fatalf("paged listings differ from reference (%d/%d/%d/%d entries)",
					len(byCursor), len(bySkip), len(whole), len(want))
			}
		})
	}
}

// TestSelectRecFallback: a selection that exhausts its partition budget
// sorts what is left and still places the k-th record.
func TestSelectRecFallback(t *testing.T) {
	var list []byte
	for i := 0; i < 64; i++ {
		list = AppendDirent(list, Dirent{Name: fmt.Sprintf("%02d", (i*37)%64), UUID: uuid.New(1, 1)})
	}
	recs, err := indexDirents(list, "")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(recs); k += 7 {
		got := append([]direntRec(nil), recs...)
		selectRecBudget(list, got, k, 1)
		if name := string(got[k].name(list)); name != fmt.Sprintf("%02d", k) {
			t.Fatalf("k=%d: selected %q", k, name)
		}
		for i := range got {
			if c := compareRecs(list, got[i], got[k]); (i < k && c > 0) || (i > k && c < 0) {
				t.Fatalf("k=%d: record %d on the wrong side", k, i)
			}
		}
	}
}

func TestDirentIndexCorrupt(t *testing.T) {
	list := AppendDirent(nil, Dirent{Name: "abc", UUID: uuid.New(1, 1)})
	bad := list[:len(list)-3]
	if _, _, err := DirentPageAt(bad, "", 0, 10); err == nil {
		t.Error("DirentPageAt accepted a truncated list")
	}
	if _, err := CountDirents(bad); err == nil {
		t.Error("CountDirents accepted a truncated list")
	}
	if _, _, err := CompactDirents(bad); err == nil {
		t.Error("CompactDirents accepted a truncated list")
	}
}

// BenchmarkDirentPage serves the first 1024-entry page of a 12.5k-entry
// list: one FMS's share of a 50k-file directory spread over four servers.
func BenchmarkDirentPage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var list []byte
	for i := 0; i < 12500; i++ {
		name := fmt.Sprintf("img-%08x-%05d.jpg", rng.Uint32(), i)
		list = AppendDirent(list, Dirent{Name: name, UUID: uuid.New(1, uint64(i+1))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ents, _, err := DirentPageAt(list, "", 0, 1024); err != nil || len(ents) != 1024 {
			b.Fatalf("page: %d entries, %v", len(ents), err)
		}
	}
}
