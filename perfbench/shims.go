package main

import (
	"sync/atomic"
	"time"

	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// tracing gates every timing shim below. The traced run switches it on for
// alternate windows (so trace.overhead_pct compares like with like); the
// untraced run never sets it, leaving each shim one atomic load per call.
var tracing atomic.Bool

// durStat accumulates a call count and total time.
type durStat struct{ n, ns atomic.Int64 }

func (d *durStat) since(t0 time.Time) {
	d.n.Add(1)
	d.ns.Add(int64(time.Since(t0)))
}

// meanUS returns the mean call time in µs (0 when nothing was timed).
func (d *durStat) meanUS() float64 {
	n := d.n.Load()
	if n == 0 {
		return 0
	}
	return float64(d.ns.Load()) / float64(n) / 1e3
}

// timedDialer wraps a netsim.Dialer so every connection it returns times
// Send: wire encoding plus the transport write.
type timedDialer struct {
	inner netsim.Dialer
	send  *durStat
}

func (d timedDialer) Dial(addr string) (netsim.Conn, error) {
	c, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	tc := &timedConn{Conn: c, send: d.send}
	if ds, ok := c.(netsim.DeadlineSender); ok {
		return &timedDeadlineConn{timedConn: tc, ds: ds}, nil
	}
	return tc, nil
}

type timedConn struct {
	netsim.Conn
	send *durStat
}

func (c *timedConn) Send(m *wire.Msg) error {
	if !tracing.Load() {
		return c.Conn.Send(m)
	}
	t0 := time.Now()
	err := c.Conn.Send(m)
	c.send.since(t0)
	return err
}

// timedDeadlineConn keeps the deadline-aware send of connections that have
// one (TCP), so wrapping changes no timeout behaviour.
type timedDeadlineConn struct {
	*timedConn
	ds netsim.DeadlineSender
}

func (c *timedDeadlineConn) SendDeadline(m *wire.Msg, timeout time.Duration) error {
	if !tracing.Load() {
		return c.ds.SendDeadline(m, timeout)
	}
	t0 := time.Now()
	err := c.ds.SendDeadline(m, timeout)
	c.send.since(t0)
	return err
}

// KV op kinds timed by timedKV: the point reads and every mutation (reads
// of a field or a range pass through untimed).
const (
	kvGet = iota
	kvPut
	kvDelete
	kvPatch
	kvAppend
	kvMove
	numKVOps
)

// kvStats is shared by every timedKV at one level of the store stack.
type kvStats struct {
	op      [numKVOps]durStat
	forEach atomic.Int64 // full-store scans, counted always
}

func (s *kvStats) mutations() (n, ns int64) {
	for _, k := range []int{kvPut, kvDelete, kvPatch, kvAppend, kvMove} {
		n += s.op[k].n.Load()
		ns += s.op[k].ns.Load()
	}
	return n, ns
}

// timedKV is a kv.Store that times each call into the store it wraps. The
// durable workload places one above kv.Persistent and one below it, so the
// difference is the WAL's share.
type timedKV struct {
	inner kv.Store
	st    *kvStats
}

// newTimedKV wraps inner, keeping it ordered when it is.
func newTimedKV(inner kv.Store, st *kvStats) kv.Store {
	t := &timedKV{inner: inner, st: st}
	o, ok := inner.(kv.Ordered)
	if io, has := inner.(interface{ IsOrdered() bool }); has && !io.IsOrdered() {
		ok = false
	}
	if ok {
		return &timedOrderedKV{timedKV: t, ord: o}
	}
	return t
}

func (t *timedKV) Get(key []byte) ([]byte, bool) {
	if !tracing.Load() {
		return t.inner.Get(key)
	}
	t0 := time.Now()
	v, ok := t.inner.Get(key)
	t.st.op[kvGet].since(t0)
	return v, ok
}

func (t *timedKV) Put(key, value []byte) {
	if !tracing.Load() {
		t.inner.Put(key, value)
		return
	}
	t0 := time.Now()
	t.inner.Put(key, value)
	t.st.op[kvPut].since(t0)
}

func (t *timedKV) Delete(key []byte) bool {
	if !tracing.Load() {
		return t.inner.Delete(key)
	}
	t0 := time.Now()
	ok := t.inner.Delete(key)
	t.st.op[kvDelete].since(t0)
	return ok
}

func (t *timedKV) PatchInPlace(key []byte, off int, data []byte) bool {
	if !tracing.Load() {
		return t.inner.PatchInPlace(key, off, data)
	}
	t0 := time.Now()
	ok := t.inner.PatchInPlace(key, off, data)
	t.st.op[kvPatch].since(t0)
	return ok
}

func (t *timedKV) ReadAt(key []byte, off int, buf []byte) bool {
	return t.inner.ReadAt(key, off, buf)
}

func (t *timedKV) AppendValue(key, data []byte) {
	if !tracing.Load() {
		t.inner.AppendValue(key, data)
		return
	}
	t0 := time.Now()
	t.inner.AppendValue(key, data)
	t.st.op[kvAppend].since(t0)
}

func (t *timedKV) Len() int { return t.inner.Len() }

func (t *timedKV) ForEach(fn func(key, value []byte) bool) {
	t.st.forEach.Add(1)
	t.inner.ForEach(fn)
}

type timedOrderedKV struct {
	*timedKV
	ord kv.Ordered
}

func (t *timedOrderedKV) AscendRange(start, end []byte, fn func(key, value []byte) bool) {
	t.ord.AscendRange(start, end, fn)
}

func (t *timedOrderedKV) AscendPrefix(prefix []byte, fn func(key, value []byte) bool) {
	t.ord.AscendPrefix(prefix, fn)
}

func (t *timedOrderedKV) MovePrefix(oldPrefix, newPrefix []byte) int {
	if !tracing.Load() {
		return t.ord.MovePrefix(oldPrefix, newPrefix)
	}
	t0 := time.Now()
	n := t.ord.MovePrefix(oldPrefix, newPrefix)
	t.st.op[kvMove].since(t0)
	return n
}
