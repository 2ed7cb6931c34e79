package kv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Persistent adds durability to any Store: every mutation is appended to a
// write-ahead log before being applied, and Snapshot writes a full dump and
// truncates the log. OpenPersistent replays snapshot + log, so a metadata
// server restarted after a crash recovers its state — the role Kyoto
// Cabinet's on-disk databases play in the paper's deployment.
//
// Records are CRC-checked; a torn tail (partial write at crash) is ignored.
// Reads are served by the wrapped in-memory engine, so read performance is
// unchanged.
type Persistent struct {
	inner   Store
	ordered Ordered // nil when inner is unordered

	mu        sync.Mutex
	dir       string
	wal       *os.File
	walW      *bufio.Writer
	mutations int
	// SnapshotEvery triggers an automatic snapshot after this many logged
	// mutations (0 = never automatic).
	SnapshotEvery int
}

// WAL record kinds.
const (
	recPut byte = iota + 1
	recDelete
	recPatch
	recAppend
	recMovePrefix
)

const (
	walFile  = "store.wal"
	snapFile = "store.snap"
)

// OpenPersistent wraps inner with durability rooted at dir, replaying any
// existing snapshot and log into it first.
func OpenPersistent(dir string, inner Store) (*Persistent, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kv: create data dir: %w", err)
	}
	p := &Persistent{inner: inner, dir: dir}
	if o, ok := inner.(Ordered); ok {
		p.ordered = o
	}
	if err := p.replaySnapshot(); err != nil {
		return nil, err
	}
	if err := p.replayWAL(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kv: open wal: %w", err)
	}
	p.wal = f
	p.walW = bufio.NewWriter(f)
	return p, nil
}

func (p *Persistent) replaySnapshot() error {
	data, err := os.ReadFile(filepath.Join(p.dir, snapFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("kv: read snapshot: %w", err)
	}
	for len(data) > 0 {
		rec, rest, ok := decodeRecord(data)
		if !ok {
			break // torn tail
		}
		data = rest
		if rec.kind == recPut {
			p.inner.Put(rec.a, rec.b)
		}
	}
	return nil
}

func (p *Persistent) replayWAL() error {
	data, err := os.ReadFile(filepath.Join(p.dir, walFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("kv: read wal: %w", err)
	}
	for len(data) > 0 {
		rec, rest, ok := decodeRecord(data)
		if !ok {
			break // torn tail from a crash mid-append
		}
		data = rest
		p.apply(rec)
	}
	return nil
}

// apply runs one mutation record against the inner store, reporting the
// mutation's own result (Delete/PatchInPlace success, MovePrefix count).
func (p *Persistent) apply(r record) (ok bool, moved int) {
	switch r.kind {
	case recPut:
		p.inner.Put(r.a, r.b)
		return true, 0
	case recDelete:
		return p.inner.Delete(r.a), 0
	case recPatch:
		return p.inner.PatchInPlace(r.a, int(r.n), r.b), 0
	case recAppend:
		p.inner.AppendValue(r.a, r.b)
		return true, 0
	case recMovePrefix:
		if p.ordered != nil {
			return true, p.ordered.MovePrefix(r.a, r.b)
		}
	}
	return false, 0
}

// record is one decoded WAL/snapshot entry: kind, two byte strings, and an
// integer argument (patch offset).
type record struct {
	kind byte
	a, b []byte
	n    uint64
}

// encodeRecord layout: crc32(payload) | payloadLen | payload, where payload
// = kind | uvarint n | uvarint len(a) | a | uvarint len(b) | b.
func appendRecord(dst []byte, r record) []byte {
	var tmp [binary.MaxVarintLen64]byte
	payload := make([]byte, 0, 16+len(r.a)+len(r.b))
	payload = append(payload, r.kind)
	n := binary.PutUvarint(tmp[:], r.n)
	payload = append(payload, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(r.a)))
	payload = append(payload, tmp[:n]...)
	payload = append(payload, r.a...)
	n = binary.PutUvarint(tmp[:], uint64(len(r.b)))
	payload = append(payload, tmp[:n]...)
	payload = append(payload, r.b...)

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

func decodeRecord(data []byte) (record, []byte, bool) {
	if len(data) < 8 {
		return record{}, nil, false
	}
	sum := binary.LittleEndian.Uint32(data[0:])
	plen := binary.LittleEndian.Uint32(data[4:])
	if uint32(len(data)-8) < plen {
		return record{}, nil, false
	}
	payload := data[8 : 8+plen]
	rest := data[8+plen:]
	if crc32.ChecksumIEEE(payload) != sum {
		return record{}, nil, false
	}
	var r record
	if len(payload) < 1 {
		return record{}, nil, false
	}
	r.kind = payload[0]
	payload = payload[1:]
	var adv int
	if r.n, adv = binary.Uvarint(payload); adv <= 0 {
		return record{}, nil, false
	}
	payload = payload[adv:]
	la, adv := binary.Uvarint(payload)
	if adv <= 0 || uint64(len(payload)-adv) < la {
		return record{}, nil, false
	}
	payload = payload[adv:]
	r.a = append([]byte(nil), payload[:la]...)
	payload = payload[la:]
	lb, adv := binary.Uvarint(payload)
	if adv <= 0 || uint64(len(payload)-adv) < lb {
		return record{}, nil, false
	}
	payload = payload[adv:]
	r.b = append([]byte(nil), payload[:lb]...)
	return r, rest, true
}

// mutate logs r to the WAL, applies it to the inner store and decides on
// an automatic snapshot, all in one critical section: WAL order is apply
// order, and a snapshot taken after the apply always holds the mutation
// that triggered it (it would otherwise be in neither snapshot nor WAL).
func (p *Persistent) mutate(r record) (ok bool, moved int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.walW.Write(appendRecord(nil, r))
	p.walW.Flush()
	ok, moved = p.apply(r)
	p.mutations++
	if p.SnapshotEvery > 0 && p.mutations >= p.SnapshotEvery {
		// A failed snapshot leaves the WAL whole and the count unreset,
		// so the next mutation retries it.
		_ = p.snapshotLocked()
	}
	return ok, moved
}

// Snapshot dumps the full store to disk atomically and truncates the WAL.
func (p *Persistent) Snapshot() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked()
}

func (p *Persistent) snapshotLocked() error {
	tmp := filepath.Join(p.dir, snapFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("kv: snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	var werr error
	p.inner.ForEach(func(k, v []byte) bool {
		_, werr = w.Write(appendRecord(nil, record{kind: recPut, a: k, b: v}))
		return werr == nil
	})
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("kv: snapshot: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(p.dir, snapFile)); err != nil {
		return fmt.Errorf("kv: snapshot rename: %w", err)
	}
	if err := p.wal.Truncate(0); err != nil {
		return fmt.Errorf("kv: wal truncate: %w", err)
	}
	if _, err := p.wal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	p.walW.Reset(p.wal)
	p.mutations = 0
	return nil
}

// Close flushes and closes the WAL.
func (p *Persistent) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.walW.Flush(); err != nil {
		p.wal.Close()
		return err
	}
	return p.wal.Close()
}

// Get implements Store.
func (p *Persistent) Get(key []byte) ([]byte, bool) { return p.inner.Get(key) }

// Put implements Store, logging before applying.
func (p *Persistent) Put(key, value []byte) {
	p.mutate(record{kind: recPut, a: key, b: value})
}

// Delete implements Store.
func (p *Persistent) Delete(key []byte) bool {
	ok, _ := p.mutate(record{kind: recDelete, a: key})
	return ok
}

// PatchInPlace implements Store.
func (p *Persistent) PatchInPlace(key []byte, off int, data []byte) bool {
	if off < 0 {
		return false
	}
	ok, _ := p.mutate(record{kind: recPatch, a: key, b: data, n: uint64(off)})
	return ok
}

// ReadAt implements Store.
func (p *Persistent) ReadAt(key []byte, off int, buf []byte) bool {
	return p.inner.ReadAt(key, off, buf)
}

// AppendValue implements Store.
func (p *Persistent) AppendValue(key, data []byte) {
	p.mutate(record{kind: recAppend, a: key, b: data})
}

// Len implements Store.
func (p *Persistent) Len() int { return p.inner.Len() }

// ForEach implements Store.
func (p *Persistent) ForEach(fn func(key, value []byte) bool) { p.inner.ForEach(fn) }

// AscendRange implements Ordered when the wrapped store is ordered.
func (p *Persistent) AscendRange(start, end []byte, fn func(key, value []byte) bool) {
	p.ordered.AscendRange(start, end, fn)
}

// AscendPrefix implements Ordered when the wrapped store is ordered.
func (p *Persistent) AscendPrefix(prefix []byte, fn func(key, value []byte) bool) {
	p.ordered.AscendPrefix(prefix, fn)
}

// MovePrefix implements Ordered when the wrapped store is ordered.
func (p *Persistent) MovePrefix(oldPrefix, newPrefix []byte) int {
	_, moved := p.mutate(record{kind: recMovePrefix, a: oldPrefix, b: newPrefix})
	return moved
}

// IsOrdered reports whether ordered operations are available.
func (p *Persistent) IsOrdered() bool { return p.ordered != nil }

var _ Store = (*Persistent)(nil)
