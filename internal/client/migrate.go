package client

// Online FMS membership change: the coordinator side of elasticity. A
// membership change runs entirely through public wire ops, so any client
// (including the locofsd admin CLI) can drive one against a live cluster:
//
//  1. Install the intermediate cluster map (version V+1) on every server:
//     the new FMS set with the outgoing set in Prev. From this moment the
//     migration window is open — servers stamp the new version on every
//     response, clients notice and switch to dual-read routing, and the
//     FMS create-guard refuses creates for keys it no longer owns.
//  2. Drain each outgoing-set server: scan for files the new ring places
//     elsewhere (OpMigrateScan), install them at their new owners
//     (OpMigrateInstall, batched per destination over wire.OpBatch), then
//     conditionally delete the source copies (OpMigrateDelete, batched).
//     A source copy mutated after its export is left in place and picked
//     up by the next scan pass; the loop runs until a scan comes back
//     clean, so no concurrent update is ever lost.
//  3. Install the final map (version V+2) with an empty Prev, closing the
//     window.
//
// Only ~1/n of the keyspace moves on a grow (consistent hashing); the
// namespace stays fully readable throughout because reads fall back to
// the previous owner until the key has landed.

import (
	"context"
	"fmt"
	"time"

	"locofs/internal/chash"
	"locofs/internal/flight"
	"locofs/internal/fms"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// migrateScanLimit bounds one OpMigrateScan response (files per page), so
// a drain of a large server streams in bounded chunks instead of one huge
// response.
const migrateScanLimit = 512

// MetricMigratedKeys counts files this client has relocated as a
// membership-change coordinator.
const MetricMigratedKeys = "locofs_client_migrated_keys_total"

// RebalanceReport summarizes one membership change.
type RebalanceReport struct {
	FromEpoch uint64 // cluster map version before the change
	ToEpoch   uint64 // final version (FromEpoch + 2)
	Total     int    // files held by the outgoing set before the change
	Moved     int    // files relocated (installs at new owners)
	Passes    int    // scan passes across all sources until clean
}

// currentMap returns the cluster map to base a change on: the DMS's
// installed one, or — bootstrapping a cluster that never ran a map change —
// this client's version-0 map from its static configuration.
func (c *Client) currentMap(oc opCtx) (*wire.ClusterMap, error) {
	m, err := c.fetchMap(oc, "")
	if err != nil || m != nil {
		return m, err
	}
	return c.static, nil
}

// AddFMS grows the FMS set by one server (ring ID id, reachable at addr)
// and migrates the ~1/n of keys the grown ring places on it. The ID must
// be new — ring IDs are stable for the life of the cluster and never
// reused.
func (c *Client) AddFMS(id int32, addr string) (*RebalanceReport, error) {
	return c.changeFMS(func(cur []wire.Member) ([]wire.Member, error) {
		for _, m := range cur {
			if m.ID == id {
				return nil, fmt.Errorf("client: ring ID %d already in use by %s", id, m.Addr)
			}
		}
		return append(append([]wire.Member{}, cur...), wire.Member{ID: id, Addr: addr}), nil
	})
}

// RemoveFMS shrinks the FMS set by the server with ring ID id, first
// draining every file it holds to the survivors. The server itself keeps
// running (it serves dual-reads until the window closes); shutting it down
// is the operator's call once the change reports success.
func (c *Client) RemoveFMS(id int32) (*RebalanceReport, error) {
	return c.changeFMS(func(cur []wire.Member) ([]wire.Member, error) {
		next := make([]wire.Member, 0, len(cur))
		for _, m := range cur {
			if m.ID != id {
				next = append(next, m)
			}
		}
		if len(next) == len(cur) {
			return nil, fmt.Errorf("client: no FMS with ring ID %d", id)
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("client: cannot remove the last FMS")
		}
		return next, nil
	})
}

// changeFMS runs the three-step membership change from the current FMS set
// to the one edit derives from it.
func (c *Client) changeFMS(edit func(cur []wire.Member) ([]wire.Member, error)) (rep *RebalanceReport, err error) {
	oc := c.startOp("ChangeFMS")
	defer func() { oc.finish(err) }()
	cur, err := c.currentMap(oc)
	if err != nil {
		return nil, err
	}
	next, err := edit(cur.FMS)
	if err != nil {
		return nil, err
	}
	rep = &RebalanceReport{FromEpoch: cur.Ver, ToEpoch: cur.Ver + 2}

	// Step 1: open the migration window.
	open := cur.Next()
	open.FMS, open.Prev = next, cur.FMS
	if err := c.pushMap(oc, open); err != nil {
		return rep, fmt.Errorf("client: install map version %d: %w", open.Ver, err)
	}

	// The next ring, for grouping moved files by destination.
	ids := make([]int, len(next))
	addrByID := make(map[int]string, len(next))
	for i, m := range next {
		ids[i] = int(m.ID)
		addrByID[int(m.ID)] = m.Addr
	}
	ring := chash.NewRing(0, ids...)

	// Pre-pass: record how many files the outgoing set holds before any
	// migration, so Moved/Total measures the migrated fraction cleanly.
	for _, src := range cur.FMS {
		_, total, _, err := c.migrateScan(oc, src, ids, 1)
		if err != nil {
			return rep, err
		}
		rep.Total += total
	}

	// Step 2: drain every source until a scan comes back clean.
	migrated := c.telem.reg.Counter(MetricMigratedKeys)
	for _, src := range cur.FMS {
		for {
			rep.Passes++
			moved, _, more, err := c.migrateScan(oc, src, ids, migrateScanLimit)
			if err != nil {
				return rep, err
			}
			if len(moved) == 0 && !more {
				break
			}
			byDest := make(map[string][]movedFile)
			for _, f := range moved {
				dest := addrByID[ring.Locate(fms.FileKey(f.dir, f.name))]
				byDest[dest] = append(byDest[dest], f)
			}
			for dest, files := range byDest {
				if err := c.migrateApply(oc, dest, wire.OpMigrateInstall, files); err != nil {
					return rep, fmt.Errorf("client: install at %s: %w", dest, err)
				}
			}
			if err := c.migrateApply(oc, src.Addr, wire.OpMigrateDelete, moved); err != nil {
				return rep, fmt.Errorf("client: retire at %s: %w", src.Addr, err)
			}
			rep.Moved += len(moved)
			migrated.Add(uint64(len(moved)))
			c.telem.fl.Emit(flight.KindMigration, "client", "drain", oc.tid, int64(len(moved)), src.Addr)
		}
	}

	// Step 3: close the window.
	closed := open.Next()
	closed.Prev = nil
	if err := c.pushMap(oc, closed); err != nil {
		return rep, fmt.Errorf("client: install map version %d: %w", closed.Ver, err)
	}
	return rep, nil
}

// PushClusterMap installs m on every server it names and then on this
// client. It is the one way a cluster map changes — FMS membership changes
// and DMS failovers alike derive m from the installed map with Next and
// push it here.
func (c *Client) PushClusterMap(m *wire.ClusterMap) (err error) {
	oc := c.startOp("PushClusterMap")
	defer func() { oc.finish(err) }()
	return c.pushMap(oc, m)
}

// mapPushTimeout bounds a cluster-map push to one DMS follower. A
// follower's install never waits on recovery (only a promoted leader
// recovers inside its push), so one that has not answered by then is dark.
const mapPushTimeout = time.Second

// pushMap installs m on every server, each told its own address, and then
// on this client. Partition 0's leader goes first: it is where two racing
// changes of one version are told apart, so the losing change draws ESTALE
// before any other server sees its map. The other partitions' leaders
// follow (a failover's promoted replica among them), then the followers,
// then every FMS in the union of the current and previous sets, then the
// object stores (version tracking only). ESTALE from any server stops the
// push. Any other failure is recorded and the push goes on, so one dark
// server never keeps the map from the rest. A follower's push is bounded by
// mapPushTimeout and its failure is only logged to the flight journal: its
// leader excludes it from the fan-out set, and the next push reaches it
// again. The first failure of a leader, FMS or object store is returned,
// and then this client keeps its old map.
func (c *Client) pushMap(oc opCtx, m *wire.ClusterMap) error {
	var firstErr error
	// push reports whether the push must stop.
	push := func(oc opCtx, addr string, pid uint32, follower bool) bool {
		if follower {
			ctx := oc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			var cancel context.CancelFunc
			oc.ctx, cancel = context.WithTimeout(ctx, mapPushTimeout)
			defer cancel()
		}
		st, _, err := c.endpoint(addr, pid).CallT(oc, wire.OpSetClusterMap, wire.EncodeSetClusterMap(m, addr))
		if err == nil {
			err = st.Err()
		}
		switch {
		case err == nil:
			return false
		case st == wire.StatusStale:
			// This version is installed with different contents, or a
			// newer one is: another change won the race.
			firstErr = fmt.Errorf("%s: %w", addr, err)
			return true
		case follower:
			c.telem.fl.Emit(flight.KindEpoch, "client", "map_push_skipped", oc.tid, int64(m.Ver), addr)
		case firstErr == nil:
			firstErr = fmt.Errorf("%s: %w", addr, err)
		}
		return false
	}
	for pid, g := range m.Groups {
		if len(g) > 0 && push(oc, g[0], uint32(pid), false) {
			return firstErr
		}
	}
	for pid, g := range m.Groups {
		for _, addr := range g[min(1, len(g)):] {
			if push(oc, addr, uint32(pid), true) {
				return firstErr
			}
		}
	}
	pushed := make(map[string]bool, len(m.FMS)+len(m.Prev))
	for _, set := range [][]wire.Member{m.FMS, m.Prev} {
		for _, f := range set {
			if !pushed[f.Addr] {
				pushed[f.Addr] = true
				if push(oc, f.Addr, 0, false) {
					return firstErr
				}
			}
		}
	}
	for _, e := range c.oss {
		if push(oc, e.addr, 0, false) {
			return firstErr
		}
	}
	if firstErr == nil {
		c.install(m)
	}
	return firstErr
}

// movedFile is one exported file in coordinator hands: its placement key
// plus the exported metadata bytes, which install at the destination and
// guard the conditional delete at the source.
type movedFile struct {
	dir     uuid.UUID
	name    string
	access  []byte
	content []byte
}

// migrateScan asks src which of its files the next ring (ids) places
// elsewhere, up to limit per call.
func (c *Client) migrateScan(oc opCtx, src wire.Member, ids []int, limit int) (moved []movedFile, total int, more bool, err error) {
	e := c.endpoint(src.Addr, 0)
	enc := wire.NewEnc().I64(int64(src.ID)).U32(0).U32(uint32(len(ids)))
	for _, id := range ids {
		enc.I64(int64(id))
	}
	body := enc.U32(uint32(limit)).Bytes()
	st, resp, err := e.CallT(oc, wire.OpMigrateScan, body)
	if err != nil {
		return nil, 0, false, err
	}
	if st != wire.StatusOK {
		return nil, 0, false, st.Err()
	}
	d := wire.NewDec(resp)
	total = int(d.U32())
	n := int(d.U32())
	moved = make([]movedFile, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		moved = append(moved, movedFile{dir: d.UUID(), name: d.Str(), access: d.Blob(), content: d.Blob()})
	}
	more = d.Bool()
	if d.Err() != nil {
		return nil, 0, false, d.Err()
	}
	return moved, total, more, nil
}

// migrateApply sends one install or delete per file to addr, packed into a
// single wire.OpBatch message (or serially with batching disabled).
func (c *Client) migrateApply(oc opCtx, addr string, op wire.Op, files []movedFile) error {
	e := c.endpoint(addr, 0)
	mkBody := func(f movedFile) []byte {
		return wire.NewEnc().UUID(f.dir).Str(f.name).Blob(f.access).Blob(f.content).Bytes()
	}
	if c.disableBatch || len(files) == 1 {
		for _, f := range files {
			st, _, err := e.CallT(oc, op, mkBody(f))
			if err != nil {
				return err
			}
			if st != wire.StatusOK {
				return st.Err()
			}
		}
		return nil
	}
	subs := make([]wire.SubReq, len(files))
	for i, f := range files {
		subs[i] = wire.SubReq{Op: op, Body: mkBody(f)}
	}
	resps, _, err := e.CallBatch(oc, subs)
	if err != nil {
		return err
	}
	for _, r := range resps {
		if r.Status != wire.StatusOK {
			return r.Status.Err()
		}
	}
	return nil
}
