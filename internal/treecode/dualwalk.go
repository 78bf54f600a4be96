package treecode

import "math"

// The dual-tree engine walks the tree against itself: a recursive
// descent over *target* subtrees refines one inherited list of
// undecided *source* nodes, so a single MAC decision made high up —
// "this source cell is far enough from this whole target box" — is
// inherited by every target group below it instead of being re-tested
// once per group or once per particle. Sources are scanned through the
// rope-threaded walk index; accepted cells, opened leaf sources and
// the per-group target outputs all live in the per-worker zero-alloc
// WalkArena.
//
// Acceptance is conservative: the per-particle MAC evaluated at the
// worst-case (closest) point of the target frame, plus box
// disjointness in place of the point walk's containment guard. Both
// tests quantify over every target in the frame, so a cell accepted
// for a frame passes the per-particle MAC for each of its targets
// individually, and the inheritance argument is a monotonicity one: a
// cell accepted against an ancestor's box passes the same test against
// every descendant box it contains (dmin² only grows as the box
// shrinks, and disjointness is inherited). The engine therefore only
// ever opens *more* cells than the recursive walk, so its error is
// bounded by the recursive walk's; the accumulation order differs, so
// results are RMS-bounded, not bit-identical.

// DualTaskSize is the particle granularity of the dual engine's
// parallel work list: each task is a maximal subtree of at most this
// many particles, refined independently from the root's undecided
// list. Tasks partition the particles, so acceleration writes are
// disjoint and results are bit-identical at any worker width. Coarser
// tasks hoist more MAC decisions but parallelize worse; 1024 keeps
// ~n/1024 tasks, plenty for the host pool at production sizes.
const DualTaskSize = 1024

// dualState is the reusable traversal state of one dual walk,
// embedded in the WalkArena so the steady-state path allocates
// nothing. The undecided list u is a flat stack: each target level
// appends its refined list above its parent's and truncates on exit.
type dualState struct {
	t    *Tree
	wn   []walkNode
	wb   []Box
	wq   []float64
	sel  *Selection
	ar   *WalkArena
	th2  float64
	quad bool

	// u is the undecided-source stack, levels delimited by the target
	// recursion.
	u []int32

	// Current target frame: AABB (centre, half-extents) and whether the
	// frame is a group (resolves every source) or internal (may defer).
	tx, ty, tz, hx, hy, hz float64
	isGroup                bool
}

// DualForceWalk computes softened accelerations for every selected
// real target under tree node ni with one dual traversal: the walk
// index is refined down the target subtree, cells accepted at internal
// levels are shared by every group of at most DefaultGroupSize
// particles below, and each group evaluates the accumulated list
// through the two-lane kernels. Results land in the arena's target
// buffers (NumTargets / Target).
func (t *Tree) DualForceWalk(ni int32, theta, eps float64, sel *Selection, ar *WalkArena, st *Stats) {
	ar.tIdx = ar.tIdx[:0]
	ar.tax, ar.tay, ar.taz = ar.tax[:0], ar.tay[:0], ar.taz[:0]
	wn, wb, wq := t.walkIndex()
	if len(wn) == 0 {
		return
	}
	ar.cx, ar.cy, ar.cz, ar.cm = ar.cx[:0], ar.cy[:0], ar.cz[:0], ar.cm[:0]
	ar.qxx, ar.qyy, ar.qzz = ar.qxx[:0], ar.qyy[:0], ar.qzz[:0]
	ar.qxy, ar.qxz, ar.qyz = ar.qxy[:0], ar.qxz[:0], ar.qyz[:0]
	ar.px, ar.py, ar.pz, ar.pm = ar.px[:0], ar.py[:0], ar.pz[:0], ar.pm[:0]
	ar.pidx = ar.pidx[:0]
	d := &ar.dual
	d.t, d.wn, d.wb, d.wq = t, wn, wb, wq
	d.sel, d.ar = sel, ar
	d.th2 = theta * theta
	d.quad = t.Quadrupole
	d.u = append(d.u[:0], 0) // the whole tree, undecided
	d.target(ni, 0, 1, eps, st)
	// Drop the state's borrowed references so an idle arena does not
	// pin the tree (trees are rebuilt every step).
	d.t, d.wn, d.wb, d.wq, d.sel = nil, nil, nil, nil, nil
	ar.pendWalks++
	ar.pendDualTasks++
}

// target refines the undecided source list d.u[ulo:uhi] against tree
// node ni. Invariants: len(d.u) == uhi on entry and on exit; cells
// appended here are truncated on exit (they apply only to this
// subtree); particles are appended and consumed at group level only.
func (d *dualState) target(ni int32, ulo, uhi int, eps float64, st *Stats) {
	t := d.t
	n := &t.Nodes[ni]
	first, count := int32(n.First), int32(n.Count)
	if d.sel.count(first, first+count) == 0 {
		// No selected target anywhere below: prune the whole subtree in
		// O(1) off the selection's prefix counts.
		return
	}
	ar := d.ar
	cellMark := len(ar.cm)
	group := n.Leaf || count <= DefaultGroupSize
	if group {
		if !d.groupFrame(first, count) {
			// Only pseudo-particles below (LET import): nothing to do.
			return
		}
	} else {
		b := &n.Box
		d.tx, d.ty, d.tz = b.CX, b.CY, b.CZ
		d.hx, d.hy, d.hz = b.Half, b.Half, b.Half
	}
	d.isGroup = group
	for k := ulo; k < uhi; k++ {
		d.refine(d.u[k])
	}
	if group {
		t.evalTargets(first, count, eps, d.sel, ar, st)
		ar.pendDualGroups++
		ar.pendCells += uint64(len(ar.cm))
		ar.pendParts += uint64(len(ar.pm))
		ar.px, ar.py, ar.pz, ar.pm = ar.px[:0], ar.py[:0], ar.pz[:0], ar.pm[:0]
		ar.pidx = ar.pidx[:0]
	} else {
		newHi := len(d.u)
		for _, ci := range n.Children {
			if ci >= 0 {
				d.target(ci, uhi, newHi, eps, st)
			}
		}
		d.u = d.u[:uhi]
	}
	ar.cx, ar.cy, ar.cz, ar.cm = ar.cx[:cellMark], ar.cy[:cellMark], ar.cz[:cellMark], ar.cm[:cellMark]
	if d.quad {
		ar.qxx, ar.qyy, ar.qzz = ar.qxx[:cellMark], ar.qyy[:cellMark], ar.qzz[:cellMark]
		ar.qxy, ar.qxz, ar.qyz = ar.qxy[:cellMark], ar.qxz[:cellMark], ar.qyz[:cellMark]
	}
}

// groupFrame sets the target frame to the tight AABB of the selected
// real targets among sorted sources [first, first+count) — tighter
// than the octree box, so the inherited-plus-refined list is at least
// as sharp as a fresh walk for the group alone — and reports whether
// there is any such target.
func (d *dualState) groupFrame(first, count int32) bool {
	var lx, ly, lz, hx, hy, hz float64
	none := true
	for j := first; j < first+count; j++ {
		s := &d.t.Sources[j]
		if !d.sel.selected(s) {
			continue
		}
		if none {
			lx, ly, lz = s.X, s.Y, s.Z
			hx, hy, hz = s.X, s.Y, s.Z
			none = false
			continue
		}
		lx, hx = min(lx, s.X), max(hx, s.X)
		ly, hy = min(ly, s.Y), max(hy, s.Y)
		lz, hz = min(lz, s.Z), max(hz, s.Z)
	}
	d.tx, d.hx = (lx+hx)/2, (hx-lx)/2
	d.ty, d.hy = (ly+hy)/2, (hy-ly)/2
	d.tz, d.hz = (lz+hz)/2, (hz-lz)/2
	return !none
}

// refine decides walk-index node u against the current target frame:
// accept it as a cell for everything below the frame, resolve it into
// particles (group frames), open it and decide its children here, or
// defer it — still undecided — to the frame's target children.
func (d *dualState) refine(u int32) {
	n := &d.wn[u]
	d.ar.pendDualMAC++
	dx := max(0, math.Abs(n.cx-d.tx)-d.hx)
	dy := max(0, math.Abs(n.cy-d.ty)-d.hy)
	dz := max(0, math.Abs(n.cz-d.tz)-d.hz)
	dmin2 := dx*dx + dy*dy + dz*dz
	if n.size2 < d.th2*dmin2 && (dmin2 > 3*n.size2 ||
		boxDisjointAABB(d.wb[u], d.tx, d.ty, d.tz, d.hx, d.hy, d.hz)) {
		ar := d.ar
		ar.cx = append(ar.cx, n.cx)
		ar.cy = append(ar.cy, n.cy)
		ar.cz = append(ar.cz, n.cz)
		ar.cm = append(ar.cm, n.m)
		if d.quad {
			q := d.wq[6*u : 6*u+6]
			ar.qxx = append(ar.qxx, q[0])
			ar.qyy = append(ar.qyy, q[1])
			ar.qzz = append(ar.qzz, q[2])
			ar.qxy = append(ar.qxy, q[3])
			ar.qxz = append(ar.qxz, q[4])
			ar.qyz = append(ar.qyz, q[5])
		}
		if !d.isGroup {
			// Accepted above group level: one MAC test substitutes for a
			// test per descendant group.
			ar.pendDualHoisted++
		}
		return
	}
	if n.leaf {
		if d.isGroup {
			ar := d.ar
			srcs := d.t.Sources
			for j := n.first; j < n.first+n.count; j++ {
				s := &srcs[j]
				ar.px = append(ar.px, s.X)
				ar.py = append(ar.py, s.Y)
				ar.pz = append(ar.pz, s.Z)
				ar.pm = append(ar.pm, s.M)
				ar.pidx = append(ar.pidx, int32(s.Index))
			}
			return
		}
		d.u = append(d.u, u)
		return
	}
	// Rejected internal source: open the bigger side. Group frames
	// cannot defer (there are no target children), and when the boxes
	// are the same size the target splits first, so the descent always
	// terminates even though source and target are the same tree.
	if d.isGroup || d.wb[u].Half > max(d.hx, max(d.hy, d.hz)) {
		for c := u + 1; c < n.skip; c = d.wn[c].skip {
			d.refine(c)
		}
		return
	}
	d.u = append(d.u, u)
}

// boxDisjointAABB reports whether cube b and the axis-aligned box
// (centre tx/ty/tz, half-extents hx/hy/hz) are separated on some axis —
// strictly positive distance, the frame analog of the point walk's
// !Contains guard.
func boxDisjointAABB(b Box, tx, ty, tz, hx, hy, hz float64) bool {
	return math.Abs(b.CX-tx) > b.Half+hx ||
		math.Abs(b.CY-ty) > b.Half+hy ||
		math.Abs(b.CZ-tz) > b.Half+hz
}
