package client

// Cluster-map routing (DESIGN.md §12). The client routes every request by
// one immutable clusterView — the installed wire.ClusterMap resolved to
// endpoints — swapped atomically when a newer map version is learned, so
// routing a request is one pointer load and no lock:
//
//   - file operations hash (directory uuid, name) over the FMS ring (§3.1);
//   - directory operations go to the leader of the DMS partition owning
//     the path (deepest-cut match; an unsharded DMS is one partition of
//     one address and no cuts).
//
// How a client learns about a change: every server response carries the
// server's map version in the wire header (wire.Msg.Epoch) and the
// endpoint layer funnels it into observe. A version newer than the
// installed view starts one background fetch (OpGetClusterMap from the
// DMS). An operation that trips over a change refreshes synchronously and
// retries: ESTALE or a suspicious ENOENT from an FMS, EWRONGPART from a DMS
// node that does not own the path, a transport error from a DMS leader
// that may have failed over. Mutations retried across a failover carry the
// same dedup request id, so a mutation that committed before the crash
// replays its recorded response from the new leader's replicated applied
// table instead of executing twice.
//
// While a coordinator's migration window is open the map carries the
// outgoing FMS set in Prev and the view routes with dual-read semantics:
// the new owner is asked first, and on ENOENT the previous owner is asked
// with the same request — a key that has not migrated yet is still served,
// so no existing file ever reads as missing during the window. Mutations
// follow the same path: applied at the previous owner they are carried
// forward by the coordinator's conditional-delete/re-export loop (see
// internal/fms MigrateDelete).

import (
	"fmt"
	"time"

	"locofs/internal/chash"
	"locofs/internal/fms"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// fmsMember is one FMS in a view: its stable ring ID and endpoint.
type fmsMember struct {
	id int32
	ep *endpoint
}

// clusterView is one installed cluster map with everything routing needs
// resolved: the current FMS set with its ring, the previous set and ring
// while a migration window is open, and each DMS partition's leader.
type clusterView struct {
	m        *wire.ClusterMap
	cur      []fmsMember
	ring     *chash.Ring
	prev     []fmsMember // non-empty only while the migration window is open
	prevRing *chash.Ring
	leaders  []*endpoint // by partition id; nil for an empty group
}

// window reports whether the migration window is open in this view.
func (v *clusterView) window() bool { return len(v.prev) > 0 }

// byID returns the member with ring ID id from ms, or nil.
func byID(ms []fmsMember, id int) *endpoint {
	for i := range ms {
		if int(ms[i].id) == id {
			return ms[i].ep
		}
	}
	return nil
}

// owner returns the endpoint the current ring places key on.
func (v *clusterView) owner(key []byte) *endpoint {
	return byID(v.cur, v.ring.Locate(key))
}

// prevOwner returns the previous ring's owner of key, or nil when no
// window is open.
func (v *clusterView) prevOwner(key []byte) *endpoint {
	if v.prevRing == nil {
		return nil
	}
	return byID(v.prev, v.prevRing.Locate(key))
}

// endpoints returns the union of current and previous FMS endpoints,
// deduped — the fan-out set for operations that must see every server
// possibly holding files (readdir, rmdir probes) during a migration window.
func (v *clusterView) endpoints() []*endpoint {
	out := make([]*endpoint, 0, len(v.cur)+len(v.prev))
	for _, m := range v.cur {
		out = append(out, m.ep)
	}
	for _, m := range v.prev {
		dup := false
		for _, e := range out {
			if e == m.ep {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, m.ep)
		}
	}
	return out
}

// endpoint returns the connection to addr, creating it on first use (it
// dials on its first call). The registry is keyed by address so a server
// appearing in several map versions shares one connection; endpoints are
// closed only by Client.Close, because a server leaving the FMS ring still
// serves dual-reads until its window closes. pid binds the endpoint's lease
// hook to the DMS partition the address serves (0 for FMS and OSS, which
// never stamp a recall sequence); failovers promote within a group and
// never move an address across groups, so the binding is stable.
func (c *Client) endpoint(addr string, pid uint32) *endpoint {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	e, ok := c.eps[addr]
	if !ok {
		e = c.newEp(addr, pid)
		c.eps[addr] = e
	}
	return e
}

// endpointList snapshots every connection ever created (for Close, Trips,
// Cost).
func (c *Client) endpointList() []*endpoint {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	out := make([]*endpoint, 0, len(c.eps))
	for _, e := range c.eps {
		out = append(out, e)
	}
	return out
}

// newView resolves m into a view.
func (c *Client) newView(m *wire.ClusterMap) *clusterView {
	members := func(set []wire.Member, ids []int) ([]fmsMember, *chash.Ring) {
		if len(set) == 0 {
			return nil, nil
		}
		ms := make([]fmsMember, len(set))
		for i, f := range set {
			ms[i] = fmsMember{id: f.ID, ep: c.endpoint(f.Addr, 0)}
		}
		return ms, chash.NewRing(0, ids...)
	}
	v := &clusterView{m: m, leaders: make([]*endpoint, len(m.Groups))}
	v.cur, v.ring = members(m.FMS, m.IDs())
	v.ring.SetEpoch(m.Ver)
	v.prev, v.prevRing = members(m.Prev, m.PrevIDs())
	for pid := range m.Groups {
		if addr := m.Leader(uint32(pid)); addr != "" {
			v.leaders[pid] = c.endpoint(addr, uint32(pid))
		}
	}
	return v
}

// install swaps in a view of m unless an equal-or-newer map is installed.
func (c *Client) install(m *wire.ClusterMap) {
	v := c.newView(m)
	for {
		cur := c.view.Load()
		if cur != nil && m.Ver <= cur.m.Ver {
			return
		}
		if c.view.CompareAndSwap(cur, v) {
			return
		}
	}
}

// observe receives the map version stamped on every response. It keeps
// wireVer at the highest version seen and, when the installed view has
// fallen behind and no fetch is running, starts one in the background —
// so clients converge on a new map within about one round trip of its
// installation, without any push channel to clients. A fetch already
// running may predate the new version; the next response re-checks.
func (c *Client) observe(ver uint64) {
	for seen := c.wireVer.Load(); ver > seen; seen = c.wireVer.Load() {
		if c.wireVer.CompareAndSwap(seen, ver) {
			break
		}
	}
	if ver > c.view.Load().m.Ver && c.fetchMu.TryLock() {
		go func() {
			defer c.fetchMu.Unlock()
			c.refreshLocked(opCtx{}, "")
		}()
	}
}

// MetricMapRefreshSuppressed counts cluster-map fetches coalesced into a
// concurrent one: callers that queued behind an in-flight fetch and reused
// its result instead of issuing their own.
const MetricMapRefreshSuppressed = "locofs_client_map_refresh_suppressed_total"

// refresh fetches the cluster map and installs it if newer. Fetches are
// single-flight: concurrent callers — a failover trips every in-flight
// request at once — queue behind the running fetch and return when it
// completes, reusing its freshly installed map instead of each issuing
// their own fetch. avoid (a just-failed leader address) is asked last.
func (c *Client) refresh(oc opCtx, avoid string) error {
	gen := c.fetchGen.Load()
	c.fetchMu.Lock()
	defer c.fetchMu.Unlock()
	if c.fetchGen.Load() != gen {
		// A fetch completed while this caller queued for the lock: its
		// installed result is as fresh as a new fetch would be.
		c.telem.reg.Counter(MetricMapRefreshSuppressed).Inc()
		return nil
	}
	return c.refreshLocked(oc, avoid)
}

// refreshLocked is refresh's fetch and install; the caller holds fetchMu.
func (c *Client) refreshLocked(oc opCtx, avoid string) error {
	defer c.fetchGen.Add(1)
	m, err := c.fetchMap(oc, avoid)
	if err != nil || m == nil {
		return err
	}
	c.install(m)
	return nil
}

// fetchMap asks the DMS for the installed cluster map. Candidates are tried
// in order: every replica of the installed map's groups (leaders first —
// they are known-recent), then the bootstrap address; avoid is demoted to
// last. The first decodable map wins. A DMS holding no map (StatusNotFound:
// a static topology that never ran a map change) returns nil, nil. A
// served map that lists no FMS set — a sharded deployment's DMS nodes start
// from their partition groups alone — keeps this client's configured FMS
// set until a coordinator installs one.
func (c *Client) fetchMap(oc opCtx, avoid string) (*wire.ClusterMap, error) {
	type cand struct {
		addr string
		pid  uint32
	}
	var cands []cand
	seen := map[string]bool{}
	add := func(addr string, pid uint32) {
		if addr != "" && !seen[addr] {
			seen[addr] = true
			cands = append(cands, cand{addr, pid})
		}
	}
	groups := c.view.Load().m.Groups
	for pid, g := range groups {
		if len(g) > 0 {
			add(g[0], uint32(pid))
		}
	}
	for pid, g := range groups {
		for _, a := range g[min(1, len(g)):] {
			add(a, uint32(pid))
		}
	}
	add(c.static.Leader(0), 0)
	for i, cd := range cands {
		if cd.addr == avoid && len(cands) > 1 {
			cands = append(append(cands[:i:i], cands[i+1:]...), cd)
			break
		}
	}
	var lastErr error
	for _, cd := range cands {
		st, resp, err := c.endpoint(cd.addr, cd.pid).CallT(oc, wire.OpGetClusterMap, nil)
		if err != nil {
			lastErr = err
			continue
		}
		if st == wire.StatusNotFound {
			return nil, nil
		}
		if st != wire.StatusOK {
			lastErr = st.Err()
			continue
		}
		m, err := wire.DecodeClusterMap(resp)
		if err != nil {
			lastErr = err
			continue
		}
		if len(m.FMS) == 0 {
			m.FMS = c.static.FMS
		}
		return m, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: no cluster map source")
	}
	return nil, lastErr
}

// fmsCallAttempts bounds the route-refresh-retry loop in fmsCall: first
// try, one retry after a dual-read fallback refresh, one after an ESTALE
// refresh.
const fmsCallAttempts = 3

// fmsCall issues one per-file FMS request for (dir, name) under the
// elasticity protocol:
//
//   - The current view's owner is asked first — on a static topology this
//     is exactly the old fmsFor routing, zero extra cost.
//   - ENOENT with a migration window open falls back to the previous
//     owner: a key that has not migrated yet is still fully served
//     (reads and mutations alike — a mutation landing at the old owner is
//     carried forward by the coordinator's conditional-delete/re-export
//     loop, so it is never lost).
//   - ENOENT while a newer map version than the view's has been observed
//     on the wire triggers a synchronous refresh and a retry: the file may
//     live on a server this view does not know about yet.
//   - ESTALE (the server's ownership guard refusing a misrouted create)
//     triggers the same refresh-and-retry.
//
// The loop is bounded; when retries are exhausted the last status stands.
func (c *Client) fmsCall(oc opCtx, dir uuid.UUID, name string, op wire.Op, body []byte) (wire.Status, []byte, error) {
	key := fms.FileKey(dir, name)
	var st wire.Status
	var resp []byte
	var err error
	for attempt := 0; attempt < fmsCallAttempts; attempt++ {
		v := c.view.Load()
		st, resp, err = v.owner(key).CallT(oc, op, body)
		if err != nil {
			return st, resp, err
		}
		switch st {
		case wire.StatusNotFound:
			if pe := v.prevOwner(key); pe != nil && pe != v.owner(key) {
				pst, presp, perr := pe.CallT(oc, op, body)
				if perr != nil {
					return pst, presp, perr
				}
				if pst != wire.StatusNotFound {
					return pst, presp, nil
				}
				// Double miss with the window open: the key may have
				// completed its move between the two reads (installed at
				// the new owner after we asked it, then retired at the
				// source before we asked there). A copy always exists at
				// one of the two — install strictly precedes the source
				// delete — so re-asking the primary resolves it. Loop; a
				// genuinely missing file just burns the bounded attempts.
				continue
			}
			// Neither owner has it. If the wire has shown us a newer map
			// than this view's, our routing may simply be stale — refresh
			// and re-route before believing the ENOENT.
			if c.wireVer.Load() > v.m.Ver {
				if c.refresh(oc, "") == nil && c.view.Load().m.Ver > v.m.Ver {
					continue
				}
			}
			return st, resp, nil
		case wire.StatusStale:
			if c.refresh(oc, "") != nil || c.view.Load().m.Ver == v.m.Ver {
				return st, resp, nil // refresh failed or made no progress
			}
			continue
		}
		return st, resp, nil
	}
	return st, resp, err
}

// dmsRouteAttempts bounds the route-refresh-retry loop: first try, plus
// retries after map refreshes triggered by EWRONGPART or a dead leader.
const dmsRouteAttempts = 4

// routeDMS resolves the DMS endpoint and recall source for a cleaned path:
// the leader of the partition owning the path's metadata — or, with list
// set, the path's subdir listing (a cut directory's inode and listing live
// on different partitions, see wire.ClusterMap.LocateList).
func (c *Client) routeDMS(path string, list bool) (*endpoint, uint32, error) {
	v := c.view.Load()
	pid := v.m.Locate(path)
	if list {
		pid = v.m.LocateList(path)
	}
	if int(pid) >= len(v.leaders) || v.leaders[pid] == nil {
		return nil, pid, wire.StatusUnavailable.Err()
	}
	return v.leaders[pid], pid, nil
}

// failedOver reports whether a transport error from partition pid's leader
// may mean a follower took over: only a group with a follower can fail
// over, so a lone replica's error stands without a refresh.
func (c *Client) failedOver(pid uint32) bool {
	return len(c.view.Load().m.Group(pid)) > 1
}

// dmsCall issues one DMS request routed by path, retrying through map
// refreshes on EWRONGPART (stale routing) and on transport errors (dead
// leader) up to dmsRouteAttempts times. Non-idempotent requests carry one
// dedup id across every attempt and every endpoint, so a mutation is
// executed at most once cluster-wide no matter where the retries land. The
// returned source is the partition that served the final attempt — the key
// for the caller's cache accounting.
func (c *Client) dmsCall(oc opCtx, path string, list bool, op wire.Op, body []byte) (wire.Status, []byte, uint32, error) {
	st, resp, _, _, src, err := c.dmsCallV(oc, path, list, op, body)
	return st, resp, src, err
}

// dmsCallV is dmsCall returning the call's modeled time and the endpoint
// that served it (for follow-up calls that must stick to one server, e.g.
// listing pagination).
func (c *Client) dmsCallV(oc opCtx, path string, list bool, op wire.Op, body []byte) (wire.Status, []byte, time.Duration, *endpoint, uint32, error) {
	var req uint64
	if !op.Idempotent() {
		req = c.res.nextReq()
	}
	var (
		st   wire.Status
		resp []byte
		virt time.Duration
		e    *endpoint
		src  uint32
		err  error
	)
	for attempt := 0; attempt < dmsRouteAttempts; attempt++ {
		var rerr error
		e, src, rerr = c.routeDMS(path, list)
		if rerr != nil {
			c.refresh(oc, "")
			err = rerr
			continue
		}
		st, resp, virt, err = e.callV(oc, op, body, req)
		if err != nil {
			if !c.failedOver(src) {
				return st, resp, virt, e, src, err
			}
			c.refresh(oc, e.addr)
			continue
		}
		if st == wire.StatusWrongPartition {
			c.refresh(oc, "")
			continue
		}
		return st, resp, virt, e, src, nil
	}
	return st, resp, virt, e, src, err
}

// dmsBatch issues one batched DMS request routed by path, with the same
// refresh-and-retry loop as dmsCall (batches carry only idempotent
// sub-requests, so whole-batch retries are safe). A batch any of whose
// sub-responses reports EWRONGPART is retried wholesale after a refresh.
func (c *Client) dmsBatch(oc opCtx, path string, list bool, subs []wire.SubReq) ([]wire.SubResp, uint32, error) {
	var (
		resps []wire.SubResp
		src   uint32
		err   error
	)
	for attempt := 0; attempt < dmsRouteAttempts; attempt++ {
		var e *endpoint
		var rerr error
		e, src, rerr = c.routeDMS(path, list)
		if rerr != nil {
			c.refresh(oc, "")
			err = rerr
			continue
		}
		resps, _, err = e.CallBatch(oc, subs)
		if err != nil {
			if !c.failedOver(src) {
				return resps, src, err
			}
			c.refresh(oc, e.addr)
			continue
		}
		wrong := false
		for _, r := range resps {
			if r.Status == wire.StatusWrongPartition {
				wrong = true
				break
			}
		}
		if !wrong {
			return resps, src, nil
		}
		c.refresh(oc, "")
	}
	if err == nil {
		err = wire.StatusWrongPartition.Err()
	}
	return resps, src, err
}
