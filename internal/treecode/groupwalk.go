package treecode

import "math"

// The group-walk engine amortizes one traversal over a whole leaf
// bucket: instead of walking the tree once per target particle, it
// walks once per *leaf* under a conservative group MAC and evaluates
// the resulting interaction list for every particle of the bucket.
// Every cell the group MAC accepts would be accepted by the
// per-particle MAC for every target in the leaf box, so the engine
// only ever *opens more* cells than the per-particle walk — its
// approximation error is bounded by the recursive walk's — but the
// accumulation order differs, so results are close (RMS-bounded), not
// bit-identical. It is therefore opt-in (Forcer.GroupWalk).

// Selection restricts a force computation to a subset of target
// particles — the block-timestep integrator's active rung. A nil
// *Selection means every real target. The prefix counts over the
// tree's key-sorted source order let traversals prune whole subtrees
// with no selected target in O(1).
type Selection struct {
	active []bool
	pfx    []int32
}

// Select builds a Selection over the tree's sources from a mask indexed
// by particle index (nil returns nil: all real targets selected).
func (t *Tree) Select(active []bool) *Selection {
	if active == nil {
		return nil
	}
	pfx := make([]int32, len(t.Sources)+1)
	for i := range t.Sources {
		pfx[i+1] = pfx[i]
		if s := &t.Sources[i]; s.Index >= 0 && active[s.Index] {
			pfx[i+1]++
		}
	}
	return &Selection{active: active, pfx: pfx}
}

// count returns the selected targets among sorted sources [lo, hi) —
// for a nil selection an upper bound (real-target filtering happens at
// evaluation), which is all pruning needs.
func (sel *Selection) count(lo, hi int32) int32 {
	if sel == nil {
		return hi - lo
	}
	return sel.pfx[hi] - sel.pfx[lo]
}

// selected reports whether source s is an evaluated target.
func (sel *Selection) selected(s *Source) bool {
	if s.Index < 0 {
		return false
	}
	return sel == nil || sel.active[s.Index]
}

// appendGroupInteractions traverses once for leaf li, appending
// group-accepted cells and opened leaf sources (with their particle
// indices, for per-target self-exclusion at evaluation). It scans the
// same rope-threaded walk index as the per-particle traversal, with
// the group MAC in place of the point MAC: the per-particle criterion
// evaluated at the worst-case (closest) point of the *tight bounding
// box of the leaf's real targets* (tighter than the leaf's octree box,
// which is mostly empty space), plus box disjointness in place of the
// per-point containment guard. Both tests quantify over every actual
// target, so acceptance stays conservative: a group-accepted cell
// passes the per-particle MAC for each target individually. The
// size2 = +Inf encoding rejects single-particle cells here exactly as
// it does in the point walk, and dmin2 > 3·size2 (target box farther
// from the node's centre of mass than the node's diagonal) proves the
// boxes disjoint without touching the cold box array.
func (t *Tree) appendGroupInteractions(ar *WalkArena, li int32, theta float64, sel *Selection) {
	wn, wb, wq := t.walkIndex()
	th2 := theta * theta
	quad := t.Quadrupole
	srcs := t.Sources
	cx, cy, cz, cm := ar.cx[:0], ar.cy[:0], ar.cz[:0], ar.cm[:0]
	qxx, qyy, qzz := ar.qxx[:0], ar.qyy[:0], ar.qzz[:0]
	qxy, qxz, qyz := ar.qxy[:0], ar.qxz[:0], ar.qyz[:0]
	px, py, pz, pm := ar.px[:0], ar.py[:0], ar.pz[:0], ar.pm[:0]
	pidx := ar.pidx[:0]
	// Tight AABB over the leaf's selected real targets (pseudo-particle
	// and unselected sources are never evaluated, so they don't
	// constrain the group MAC).
	n0 := &t.Nodes[li]
	var tx, ty, tz, hx, hy, hz float64
	none := true
	for j := n0.First; j < n0.First+n0.Count; j++ {
		s := &srcs[j]
		if !sel.selected(s) {
			continue
		}
		if none {
			tx, ty, tz = s.X, s.Y, s.Z
			hx, hy, hz = s.X, s.Y, s.Z
			none = false
			continue
		}
		tx, hx = min(tx, s.X), max(hx, s.X)
		ty, hy = min(ty, s.Y), max(hy, s.Y)
		tz, hz = min(tz, s.Z), max(hz, s.Z)
	}
	if none {
		// No real targets in this bucket: nothing will be evaluated, so
		// skip the traversal outright.
		ar.cx, ar.cy, ar.cz, ar.cm = cx, cy, cz, cm
		ar.px, ar.py, ar.pz, ar.pm = px, py, pz, pm
		ar.pidx = pidx
		ar.segs = ar.segs[:0]
		return
	}
	tx, hx = (tx+hx)/2, (hx-tx)/2
	ty, hy = (ty+hy)/2, (hy-ty)/2
	tz, hz = (tz+hz)/2, (hz-tz)/2
	for i := 0; i < len(wn); {
		n := &wn[i]
		dx := max(0, math.Abs(n.cx-tx)-hx)
		dy := max(0, math.Abs(n.cy-ty)-hy)
		dz := max(0, math.Abs(n.cz-tz)-hz)
		dmin2 := dx*dx + dy*dy + dz*dz
		if n.size2 < th2*dmin2 && (dmin2 > 3*n.size2 ||
			boxDisjointAABB(wb[i], tx, ty, tz, hx, hy, hz)) {
			cx = append(cx, n.cx)
			cy = append(cy, n.cy)
			cz = append(cz, n.cz)
			cm = append(cm, n.m)
			if quad {
				q := wq[6*i : 6*i+6]
				qxx = append(qxx, q[0])
				qyy = append(qyy, q[1])
				qzz = append(qzz, q[2])
				qxy = append(qxy, q[3])
				qxz = append(qxz, q[4])
				qyz = append(qyz, q[5])
			}
			i = int(n.skip)
			continue
		}
		if n.leaf {
			for j := n.first; j < n.first+n.count; j++ {
				s := &srcs[j]
				px = append(px, s.X)
				py = append(py, s.Y)
				pz = append(pz, s.Z)
				pm = append(pm, s.M)
				pidx = append(pidx, int32(s.Index))
			}
			i = int(n.skip)
			continue
		}
		i++
	}
	ar.cx, ar.cy, ar.cz, ar.cm = cx, cy, cz, cm
	ar.qxx, ar.qyy, ar.qzz = qxx, qyy, qzz
	ar.qxy, ar.qxz, ar.qyz = qxy, qxz, qyz
	ar.px, ar.py, ar.pz, ar.pm = px, py, pz, pm
	ar.pidx = pidx
	ar.segs = ar.segs[:0]
	ar.pendWalks++
	ar.pendCells += uint64(len(cm))
	ar.pendParts += uint64(len(pm))
}

// boxDisjointAABB reports whether cube b and the axis-aligned box
// (centre tx/ty/tz, half-extents hx/hy/hz) are separated on some axis —
// strictly positive distance, the group analog of the point walk's
// !Contains guard.
func boxDisjointAABB(b Box, tx, ty, tz, hx, hy, hz float64) bool {
	return math.Abs(b.CX-tx) > b.Half+hx ||
		math.Abs(b.CY-ty) > b.Half+hy ||
		math.Abs(b.CZ-tz) > b.Half+hz
}

// GroupForceLeaf computes softened accelerations for every real target
// particle of leaf li with one shared traversal. Results land in the
// arena's target buffers: NumTargets/Target expose (particle index,
// ax, ay, az) pairs; pseudo-particle sources (Index < 0) are never
// targets. The shared list is evaluated in two flat blocks per target
// — all cells, then all leaf sources — since group mode is bounded in
// RMS, not bit-identical, and the blocked kernels are what make the
// amortized walk pay. Stats count per-target interactions exactly as
// the per-particle walk would (self-matches are excluded from PP).
func (t *Tree) GroupForceLeaf(li int32, theta, eps float64, ar *WalkArena, st *Stats) {
	t.groupForceLeaf(li, theta, eps, nil, ar, st)
}

// groupForceLeaf is GroupForceLeaf restricted to a selection of
// targets (nil = every real target).
func (t *Tree) groupForceLeaf(li int32, theta, eps float64, sel *Selection, ar *WalkArena, st *Stats) {
	t.appendGroupInteractions(ar, li, theta, sel)
	ar.tIdx = ar.tIdx[:0]
	ar.tax, ar.tay, ar.taz = ar.tax[:0], ar.tay[:0], ar.taz[:0]
	n := &t.Nodes[li]
	t.evalTargets(int32(n.First), int32(n.Count), eps, sel, ar, st)
}

// evalTargets evaluates the arena's current shared interaction list —
// all cells, then all leaf sources with per-target self-exclusion —
// for every selected real target in the key-sorted source range
// [first, first+count), appending (index, acceleration) rows to the
// arena's target buffers. It is the single evaluation path behind the
// group and dual engines, and the one place their softening handling
// lives. Targets run in pairs through the two-lane kernels (an odd
// last target pairs with itself and its second lane is dropped);
// quadrupole cells run the scalar kernel once per lane. Stats count
// per-target interactions exactly as the per-particle walk would
// (self-matches are excluded from PP).
func (t *Tree) evalTargets(first, count int32, eps float64, sel *Selection, ar *WalkArena, st *Stats) {
	eps2 := softening2(eps)
	cells := len(ar.cm)
	parts := len(ar.pm)
	quad := t.Quadrupole
	end := first + count
	targets := 0
	var p pairAcc
	for i := t.nextTarget(first, end, sel); i < end; {
		s0, s1 := &t.Sources[i], &t.Sources[i]
		lanes, next := 1, end
		if j := t.nextTarget(i+1, end, sel); j < end {
			s1, lanes = &t.Sources[j], 2
			next = t.nextTarget(j+1, end, sel)
		}
		p.x = [2]float64{s0.X, s1.X}
		p.y = [2]float64{s0.Y, s1.Y}
		p.z = [2]float64{s0.Z, s1.Z}
		p.self = [2]int32{int32(s0.Index), int32(s1.Index)}
		p.ax, p.ay, p.az = [2]float64{}, [2]float64{}, [2]float64{}
		if quad {
			for k := range 2 {
				p.ax[k], p.ay[k], p.az[k] = ar.evalCellsQuad(p.x[k], p.y[k], p.z[k], eps2, 0, cells, 0, 0, 0)
			}
		} else {
			ar.pairCellsMono(eps2, &p)
		}
		ar.pairPartsExcept(eps2, &p)
		for k := range lanes {
			st.PC += uint64(cells)
			st.PP += uint64(parts) - p.skip[k]
			ar.tIdx = append(ar.tIdx, p.self[k])
			ar.tax = append(ar.tax, p.ax[k])
			ar.tay = append(ar.tay, p.ay[k])
			ar.taz = append(ar.taz, p.az[k])
		}
		targets += lanes
		i = next
	}
	if targets > 1 {
		// One traversal served `targets` particles: targets−1 walks saved.
		ar.pendSaved += uint64(targets - 1)
	}
}

// nextTarget returns the first selected real target among sorted
// sources [i, end), or end when there is none.
func (t *Tree) nextTarget(i, end int32, sel *Selection) int32 {
	for i < end && !sel.selected(&t.Sources[i]) {
		i++
	}
	return i
}

// NumTargets reports how many targets the last GroupForceLeaf filled.
func (ar *WalkArena) NumTargets() int { return len(ar.tIdx) }

// Target returns the k-th target's particle index and acceleration.
func (ar *WalkArena) Target(k int) (idx int, ax, ay, az float64) {
	return int(ar.tIdx[k]), ar.tax[k], ar.tay[k], ar.taz[k]
}

// AppendLeaves appends the node indices of every leaf in DFS preorder
// (the node array's natural order) — the finest-grained group-engine
// work list.
func (t *Tree) AppendLeaves(out []int32) []int32 {
	for i := range t.Nodes {
		if t.Nodes[i].Leaf {
			out = append(out, int32(i))
		}
	}
	return out
}

// DefaultGroupSize is the target-group granularity of the group
// engine's production work list: one traversal is amortized over up to
// this many particles. Decoupled from the tree's leaf bucket — group
// walks want coarser groups than the force-accuracy-driven bucket
// size, and a group is any maximal subtree small enough, not just one
// leaf. Coarser groups only *improve* accuracy (the conservative MAC
// opens more), at the cost of longer per-target lists; 64 is the
// throughput sweet spot measured on the default bucket-8 tree.
const DefaultGroupSize = 64

// AppendGroups appends, in DFS preorder, the node indices of the
// maximal subtrees holding at most maxParts particles — a disjoint
// cover of all sources. Each returned node is a valid GroupForceLeaf
// target: its particles are the contiguous source range
// [First, First+Count). maxParts below the leaf bucket degenerates to
// AppendLeaves.
func (t *Tree) AppendGroups(out []int32, maxParts int) []int32 {
	var emit func(ni int32)
	emit = func(ni int32) {
		n := &t.Nodes[ni]
		if n.Leaf || n.Count <= maxParts {
			out = append(out, ni)
			return
		}
		for oct := 0; oct < 8; oct++ {
			if ci := n.Children[oct]; ci >= 0 {
				emit(ci)
			}
		}
	}
	if len(t.Nodes) > 0 {
		emit(0)
	}
	return out
}
