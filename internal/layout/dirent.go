package layout

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"hash/maphash"
	"math/bits"
	"slices"
	"sort"

	"locofs/internal/uuid"
)

// Dirent is one backward directory entry: the name of a child plus the
// child's UUID. In the flattened directory tree (§3.2.1) dirents are not
// stored inside their parent directory's data blocks; instead all children
// of a directory that land on the same metadata server have their dirents
// concatenated into a single KV value keyed by the parent's uuid.
//
// The concatenated value is an append-only log: an insertion appends a live
// entry, a removal appends a *tombstone* for the name. This keeps both
// create and remove O(appended bytes) regardless of directory width —
// matching the append-friendly behavior of the log-structured KV stores the
// design targets — at the cost of periodic compaction (CompactDirents),
// which servers amortize over removals.
//
// Entry encoding: uvarint header = nameLen<<1 | tombstoneBit, name bytes,
// and (live entries only) the 16-byte UUID.
type Dirent struct {
	Name string
	UUID uuid.UUID
}

// ErrCorruptDirentList reports a malformed concatenated dirent value.
var ErrCorruptDirentList = errors.New("layout: corrupt dirent list")

// AppendDirent appends one live dirent to a concatenated dirent value.
func AppendDirent(list []byte, e Dirent) []byte {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(e.Name))<<1)
	list = append(list, lenBuf[:n]...)
	list = append(list, e.Name...)
	return append(list, e.UUID[:]...)
}

// AppendDirentTombstone appends a removal marker for name.
func AppendDirentTombstone(list []byte, name string) []byte {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(name))<<1|1)
	list = append(list, lenBuf[:n]...)
	return append(list, name...)
}

// walkDirents replays the log in order, calling fn for every record. A
// tombstone record has tomb == true and a nil UUID.
func walkDirents(list []byte, fn func(name []byte, u []byte, tomb bool) bool) error {
	for pos := 0; pos < len(list); {
		at, n, tomb, next, err := nextRecord(list, pos)
		if err != nil {
			return err
		}
		var u []byte
		if !tomb {
			u = list[at+n : next]
		}
		if !fn(list[at:at+n], u, tomb) {
			return nil
		}
		pos = next
	}
	return nil
}

// DecodeDirents replays a concatenated dirent value into its live entries,
// in first-insertion order.
func DecodeDirents(list []byte) ([]Dirent, error) {
	var order []string
	ordered := map[string]bool{}
	live := map[string]uuid.UUID{}
	err := walkDirents(list, func(name, u []byte, tomb bool) bool {
		key := string(name)
		if tomb {
			delete(live, key)
			return true
		}
		if !ordered[key] {
			ordered[key] = true
			order = append(order, key)
		}
		live[key] = uuid.MustFromBytes(u)
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make([]Dirent, 0, len(live))
	for _, name := range order {
		if u, ok := live[name]; ok {
			out = append(out, Dirent{Name: name, UUID: u})
		}
	}
	return out, nil
}

// FindDirent replays the list and reports the final state of name.
func FindDirent(list []byte, name string) (Dirent, bool, error) {
	var found bool
	var u uuid.UUID
	err := walkDirents(list, func(ename, eu []byte, tomb bool) bool {
		if string(ename) != name {
			return true
		}
		if tomb {
			found = false
			return true
		}
		found = true
		u = uuid.MustFromBytes(eu)
		return true
	})
	if err != nil {
		return Dirent{}, false, err
	}
	if !found {
		return Dirent{}, false, nil
	}
	return Dirent{Name: name, UUID: u}, true, nil
}

// direntRec is one record of a dirent log in the index the list operations
// build: where the record's name sits in the list, its length (with recTomb
// set for a tombstone) and the record's position in the log. It holds no
// pointers, so an index over a 50k-entry directory is one flat allocation
// the GC neither scans nor write-barriers. Offsets are 32-bit: a single KV
// value of 4 GiB is far outside what a dirent list can reach.
type direntRec struct {
	off, n, seq uint32
}

const recTomb = 1 << 31

func (r direntRec) tomb() bool              { return r.n&recTomb != 0 }
func (r direntRec) name(list []byte) []byte { return list[r.off : r.off+r.n&^recTomb] }

// compareRecs orders records by name.
func compareRecs(list []byte, a, b direntRec) int {
	return bytes.Compare(a.name(list), b.name(list))
}

// nextRecord parses the record at list[pos:]: its name is
// list[name:name+nameLen] and the next record starts at next.
func nextRecord(list []byte, pos int) (name, nameLen int, tomb bool, next int, err error) {
	hdr, n := binary.Uvarint(list[pos:])
	if n <= 0 {
		return 0, 0, false, 0, ErrCorruptDirentList
	}
	pos += n
	need := hdr >> 1
	tomb = hdr&1 == 1
	if !tomb {
		need += uuid.Size
	}
	if uint64(len(list)-pos) < need {
		return 0, 0, false, 0, ErrCorruptDirentList
	}
	return pos, int(hdr >> 1), tomb, pos + int(need), nil
}

// indexDirents walks the log and returns, in log order, the index of every
// record whose name sorts after cursor (every record for cursor ""). A
// counting pass sizes the index in one allocation.
func indexDirents(list []byte, cursor string) ([]direntRec, error) {
	total, err := DirentRecords(list)
	if err != nil {
		return nil, err
	}
	recs := make([]direntRec, 0, total)
	for pos, seq := 0, uint32(0); pos < len(list); seq++ {
		at, nameLen, tomb, next, _ := nextRecord(list, pos)
		pos = next
		name := list[at : at+nameLen]
		if cursor != "" && string(name) <= cursor {
			continue
		}
		r := direntRec{off: uint32(at), n: uint32(nameLen), seq: seq}
		if tomb {
			r.n |= recTomb
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// direntSeed seeds the name hash liveDirents deduplicates with.
var direntSeed = maphash.MakeSeed()

// liveDirents resolves an index to one record per live name, in log order
// of those records: "last record for a name wins", found through a
// pointer-free open-addressing table instead of a sort. Each returned
// record locates the name's last record (name and UUID) and carries in seq
// the log position of the name's first live record — the first-insertion
// order DecodeDirents lists in. recs is reused for the result.
func liveDirents(list []byte, recs []direntRec) []direntRec {
	// slot: 1 + index into recs of the name's last record so far, and
	// 1 + seq of its first live record; 0 = none.
	type slot struct{ last, first int32 }
	size := 4
	for size < 2*len(recs) {
		size <<= 1
	}
	slots := make([]slot, size)
	mask := uint64(size - 1)
	for i, r := range recs {
		name := r.name(list)
		h := maphash.Bytes(direntSeed, name) & mask
		for slots[h].last != 0 {
			if o := recs[slots[h].last-1]; bytes.Equal(o.name(list), name) {
				break
			}
			h = (h + 1) & mask
		}
		sl := &slots[h]
		sl.last = int32(i + 1)
		if sl.first == 0 && !r.tomb() {
			sl.first = int32(r.seq) + 1
		}
	}
	// Mark each live winner by moving its first-live seq into it, then
	// compact the winners to the front in log order.
	win := make([]bool, len(recs))
	for _, sl := range slots {
		if sl.last != 0 && !recs[sl.last-1].tomb() {
			recs[sl.last-1].seq = uint32(sl.first - 1)
			win[sl.last-1] = true
		}
	}
	out := recs[:0]
	for i, r := range recs {
		if win[i] {
			out = append(out, r)
		}
	}
	return out
}

// liveIndex is indexDirents followed by liveDirents.
func liveIndex(list []byte, cursor string) ([]direntRec, error) {
	recs, err := indexDirents(list, cursor)
	if err != nil {
		return nil, err
	}
	return liveDirents(list, recs), nil
}

// sortRecs orders records of distinct names by name.
func sortRecs(list []byte, recs []direntRec) {
	slices.SortFunc(recs, func(a, b direntRec) int { return compareRecs(list, a, b) })
}

// selectRec partially orders recs so that recs[k] is the record that sorts
// k-th, with no later-sorting record before it and no earlier one after it
// (Hoare's selection, middle pivot; expected O(len(recs))). A pathological
// input that keeps the range from shrinking falls back to sorting it.
func selectRec(list []byte, recs []direntRec, k int) {
	selectRecBudget(list, recs, k, 2*bits.Len(uint(len(recs))))
}

// selectRecBudget is selectRec allowing budget partition rounds.
func selectRecBudget(list []byte, recs []direntRec, k, budget int) {
	lo, hi := 0, len(recs)-1
	for ; lo < hi; budget-- {
		if budget == 0 {
			sortRecs(list, recs[lo:hi+1])
			return
		}
		pivot := recs[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for compareRecs(list, recs[i], pivot) < 0 {
				i++
			}
			for compareRecs(list, pivot, recs[j]) < 0 {
				j--
			}
			if i <= j {
				recs[i], recs[j] = recs[j], recs[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// CountDirents returns the number of live entries in the list.
func CountDirents(list []byte) (int, error) {
	live, err := liveIndex(list, "")
	return len(live), err
}

// CompactDirents rewrites the log with tombstones (and the records they
// killed) dropped, returning the compacted value and the live entry count.
// Live entries keep DecodeDirents' first-insertion order, each with the
// UUID of its name's last record.
func CompactDirents(list []byte) ([]byte, int, error) {
	live, err := liveIndex(list, "")
	if err != nil {
		return nil, 0, err
	}
	slices.SortFunc(live, func(a, b direntRec) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]byte, 0, len(list))
	for _, r := range live {
		out = binary.AppendUvarint(out, uint64(r.n)<<1)
		out = append(out, list[r.off:r.off+r.n+uuid.Size]...)
	}
	return out, len(live), nil
}

// DirentPageAt decodes the log and returns the skip-th page of up to limit
// live entries in name order, strictly after cursor (empty cursor = from
// the start); limit <= 0 means no bound. Servers use it to answer readdir
// in size-bounded pages. skip > 0 lets a client prefetch several
// consecutive pages with one cursor — e.g. a batch of sub-requests sharing
// a cursor with skip 0..k-1 fetches k pages in one round trip. skip is
// ignored when limit <= 0 (unbounded page). remaining is the exact number
// of live entries beyond the returned page, letting clients size their
// prefetch batches with no speculative over-fetch.
//
// One walk indexes the records after cursor and a hash table resolves each
// name's last record; a selection then isolates the page's window, so only
// the page is sorted and only its names become strings.
func DirentPageAt(list []byte, cursor string, skip, limit int) (ents []Dirent, remaining int, err error) {
	live, err := liveIndex(list, cursor)
	if err != nil {
		return nil, 0, err
	}
	if limit <= 0 {
		sortRecs(list, live)
		return pageDirents(list, live), 0, nil
	}
	lo := max(skip, 0) * limit
	if lo > 0 && lo >= len(live) {
		return nil, 0, nil
	}
	hi := min(lo+limit, len(live))
	if lo > 0 {
		selectRec(list, live, lo)
	}
	page := live[lo:]
	if hi < len(live) {
		selectRec(list, page, hi-lo)
	}
	page = page[:hi-lo]
	sortRecs(list, page)
	return pageDirents(list, page), len(live) - hi, nil
}

// pageDirents materializes a page of winning live records. Their names are
// copied into one string that the entries slice, so a page costs two
// allocations whatever its length.
func pageDirents(list []byte, page []direntRec) []Dirent {
	size := 0
	for _, r := range page {
		size += int(r.n)
	}
	names := make([]byte, 0, size)
	for _, r := range page {
		names = append(names, r.name(list)...)
	}
	all := string(names)
	ents := make([]Dirent, len(page))
	at := 0
	for i, r := range page {
		ents[i].Name = all[at : at+int(r.n)]
		at += int(r.n)
		copy(ents[i].UUID[:], list[r.off+r.n:])
	}
	return ents
}

// DirentRecords returns the total record count (live + tombstones), which
// servers use to decide when to compact.
func DirentRecords(list []byte) (int, error) {
	n := 0
	err := walkDirents(list, func(name, u []byte, tomb bool) bool {
		n++
		return true
	})
	return n, err
}

// SortDirents orders entries by name, the order readdir presents them in.
func SortDirents(ents []Dirent) {
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
}
