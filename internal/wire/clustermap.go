package wire

import (
	"errors"
	"strings"
)

// The cluster map (DESIGN.md §12): one versioned description of where
// metadata lives. It names the FMS set file operations hash over (§3.1)
// and the DMS partitions directory operations route to (§16), so one
// version number orders every routing change — an FMS joining or leaving,
// a namespace re-cut, a partition leader failing over.
//
// Every server holds the map installed by the last OpSetClusterMap and
// stamps its version on every response header (Msg.Epoch). A client that
// sees a version newer than its own fetches the map (OpGetClusterMap) and
// re-routes, so routing changes spread on ordinary traffic.
//
// The DMS half splits the path-keyed directory namespace into subtree
// range partitions. A partition is declared by a *cut* at a directory d:
// the cut partition owns every proper descendant of d — the contiguous key
// range [d+"/", d+"0") of the B+-tree, since '/' is the only byte in
// ['/','0') — while d's own inode stays with its parent's partition.
// Partition 0 is the residual: it owns everything no cut covers, including
// the root. An unsharded DMS is one group of one address and no cuts.

// Member is one FMS in the cluster map: a stable ring ID (the label the
// consistent-hash ring hashes, so it must never be reused for a different
// server) and the server's transport address.
type Member struct {
	ID   int32
	Addr string
}

// PartCut declares one subtree cut: every proper descendant of Dir belongs
// to partition PID.
type PartCut struct {
	Dir string
	PID uint32
}

// ClusterMap is the versioned routing state of a cluster.
//
// FMS is the current FMS set. During an FMS membership change the
// coordinator installs an intermediate map whose Prev holds the outgoing
// set: while Prev is non-empty the migration window is open and clients
// fall back to the previous owner when the new owner does not have a key
// yet (dual-read). A final map with an empty Prev closes the window.
//
// Groups[pid] lists the replica addresses of DMS partition pid with the
// leader first; len(Groups) is the partition count. Cuts assign subtrees
// to partitions 1..len(Groups)-1; the root always resolves to partition 0.
type ClusterMap struct {
	Ver    uint64
	FMS    []Member
	Prev   []Member
	Cuts   []PartCut
	Groups [][]string
}

// Next returns a deep copy of m with the version bumped: the starting
// point of every map change, which edits the copy and pushes it.
func (m *ClusterMap) Next() *ClusterMap {
	n := &ClusterMap{
		Ver:  m.Ver + 1,
		FMS:  append([]Member(nil), m.FMS...),
		Prev: append([]Member(nil), m.Prev...),
		Cuts: append([]PartCut(nil), m.Cuts...),
	}
	for _, g := range m.Groups {
		n.Groups = append(n.Groups, append([]string(nil), g...))
	}
	return n
}

// IDs returns the ring IDs of the current FMS set, in listed order.
func (m *ClusterMap) IDs() []int { return memberIDs(m.FMS) }

// PrevIDs returns the ring IDs of the previous FMS set, in listed order.
func (m *ClusterMap) PrevIDs() []int { return memberIDs(m.Prev) }

func memberIDs(ms []Member) []int {
	out := make([]int, len(ms))
	for i, f := range ms {
		out[i] = int(f.ID)
	}
	return out
}

// Group returns the replica addresses of partition pid, leader first (nil
// if out of range).
func (m *ClusterMap) Group(pid uint32) []string {
	if int(pid) >= len(m.Groups) {
		return nil
	}
	return m.Groups[pid]
}

// Leader returns the leader address of partition pid ("" if out of range or
// the group is empty).
func (m *ClusterMap) Leader(pid uint32) string {
	if g := m.Group(pid); len(g) > 0 {
		return g[0]
	}
	return ""
}

// Locate returns the partition owning the metadata of cleaned path p: the
// partition of the deepest cut whose directory is a proper ancestor of p,
// or partition 0 when no cut covers p.
func (m *ClusterMap) Locate(p string) uint32 { return m.locate(p, false) }

// LocateList returns the partition owning p's subdir listing and the
// children operations under p. A cut directory's own inode lives with its
// parent partition, but its listing moves with the subtree: the listing
// is located as a child of p would be.
func (m *ClusterMap) LocateList(p string) uint32 { return m.locate(p, true) }

// locate finds the deepest cut at a proper ancestor of p, or at p itself
// with orSelf.
func (m *ClusterMap) locate(p string, orSelf bool) uint32 {
	best, bestLen := uint32(0), -1
	for _, c := range m.Cuts {
		if (isAncestorOrRoot(c.Dir, p) || orSelf && c.Dir == p) && len(c.Dir) > bestLen {
			best, bestLen = c.PID, len(c.Dir)
		}
	}
	return best
}

// CutWithin reports whether some cut lies at or below p — i.e. whether the
// subtree rooted at p straddles a partition boundary. Directory renames
// whose source or destination straddles a boundary are refused (the cut is
// a mount-point-like fixture; re-cut the namespace first).
func (m *ClusterMap) CutWithin(p string) bool {
	for _, c := range m.Cuts {
		if c.Dir == p || isAncestorOrRoot(p, c.Dir) {
			return true
		}
	}
	return false
}

// SeedTargets returns the partitions (other than from) that hold a seeded
// ancestor copy of path p's inode: every cut partition whose cut directory
// is p itself or a descendant of p. A mutation of p at its owning partition
// must push the new inode state to each of them (OpSeedUpdate).
func (m *ClusterMap) SeedTargets(p string, from uint32) []uint32 {
	var out []uint32
	seen := make(map[uint32]bool)
	for _, c := range m.Cuts {
		if c.PID != from && !seen[c.PID] && (c.Dir == p || isAncestorOrRoot(p, c.Dir)) {
			seen[c.PID] = true
			out = append(out, c.PID)
		}
	}
	return out
}

// isAncestorOrRoot reports whether cleaned path a is a proper ancestor of
// cleaned path b.
func isAncestorOrRoot(a, b string) bool {
	if a == "/" {
		return len(b) > 1
	}
	return len(b) > len(a)+1 && b[len(a)] == '/' && strings.HasPrefix(b, a)
}

// errTrailing reports bytes left over after a complete map: the body is
// not a cluster map.
var errTrailing = errors.New("wire: trailing bytes after cluster map")

// EncodeClusterMap serializes a cluster map.
// Layout: ver u64, n u32, n×(id i64, addr str), p u32, p×(id i64, addr str),
// c u32, c×(dir str, pid u32), g u32, g×(r u32, r×addr str).
func EncodeClusterMap(m *ClusterMap) []byte {
	e := NewEnc().U64(m.Ver)
	for _, set := range [][]Member{m.FMS, m.Prev} {
		e.U32(uint32(len(set)))
		for _, f := range set {
			e.I64(int64(f.ID)).Str(f.Addr)
		}
	}
	e.U32(uint32(len(m.Cuts)))
	for _, c := range m.Cuts {
		e.Str(c.Dir).U32(c.PID)
	}
	e.U32(uint32(len(m.Groups)))
	for _, g := range m.Groups {
		e.U32(uint32(len(g)))
		for _, a := range g {
			e.Str(a)
		}
	}
	return e.Bytes()
}

// DecodeClusterMap parses an EncodeClusterMap body. A truncated body, or
// one with bytes left over, is an error.
func DecodeClusterMap(body []byte) (*ClusterMap, error) {
	d := NewDec(body)
	m := &ClusterMap{Ver: d.U64()}
	members := func() []Member {
		var out []Member
		n := d.U32()
		for i := uint32(0); i < n && d.Err() == nil; i++ {
			out = append(out, Member{ID: int32(d.I64()), Addr: d.Str()})
		}
		return out
	}
	m.FMS = members()
	m.Prev = members()
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		m.Cuts = append(m.Cuts, PartCut{Dir: d.Str(), PID: d.U32()})
	}
	g := d.U32()
	for i := uint32(0); i < g && d.Err() == nil; i++ {
		r := d.U32()
		var grp []string
		for j := uint32(0); j < r && d.Err() == nil; j++ {
			grp = append(grp, d.Str())
		}
		m.Groups = append(m.Groups, grp)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, errTrailing
	}
	return m, nil
}

// EncodeSetClusterMap builds an OpSetClusterMap request: the receiver's own
// address as the map lists it, plus the map. The coordinator names each
// destination so a server need not know how the map spells its address —
// an FMS finds its ring ID by it, a DMS replica its partition slot.
func EncodeSetClusterMap(m *ClusterMap, self string) []byte {
	return NewEnc().Str(self).Blob(EncodeClusterMap(m)).Bytes()
}

// DecodeSetClusterMap parses an OpSetClusterMap request.
func DecodeSetClusterMap(body []byte) (m *ClusterMap, self string, err error) {
	d := NewDec(body)
	self = d.Str()
	blob := d.Blob()
	if err := d.Err(); err != nil {
		return nil, "", err
	}
	m, err = DecodeClusterMap(blob)
	return m, self, err
}
