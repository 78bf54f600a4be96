package treecode

import (
	"fmt"
	"math"
	"sync"
)

// This file is the list-based force engine: the classic split of a
// treecode walk (Barnes' "vectorization of tree traversals", and the
// production shape of Warren–Salmon codes) into two phases — an
// iterative, explicit-stack traversal that *appends* accepted cells and
// leaf sources into flat structure-of-arrays interaction lists, and
// tight kernels that *evaluate* monopole, quadrupole and
// particle–particle contributions over those contiguous arrays.
//
// The engine is bit-identical to the recursive walk (ForceAtRecursive):
// the traversal visits nodes in the exact DFS order of the recursion,
// and the lists record the *interleaving* of cell and particle
// contributions as segments (a run of cells followed by a run of
// particles), so evaluation replays the recursion's accumulation order
// with the recursion's exact expression shapes. Floating-point addition
// is not associative; the segments are what make "gather then compute"
// safe to substitute for the recursive walk everywhere.

// listSeg is one run of the interaction list in traversal order: cells
// cell contributions followed by parts particle contributions. A new
// segment starts whenever a cell is accepted after particles were
// appended, preserving the recursion's interleaved accumulation order.
type listSeg struct {
	cells, parts int32
}

// WalkArena is the reusable scratch of one tree walk: the SoA
// interaction lists and (for the group engine) the per-leaf target
// outputs. Arenas are owned per worker — the Forcer keeps one per
// internal/par pool slot — so the steady-state force path appends into
// warm buffers and performs no allocations. An arena must not be
// shared by concurrent walks.
type WalkArena struct {
	// Accepted-cell columns: centre of mass, monopole mass, and (when
	// the tree carries them) traceless quadrupole moments.
	cx, cy, cz, cm               []float64
	qxx, qyy, qzz, qxy, qxz, qyz []float64

	// Leaf-source columns. pidx carries each source's particle index and
	// is filled only by the group traversal (per-target self-exclusion
	// happens at evaluation time there; the per-particle traversal
	// excludes self while appending instead).
	px, py, pz, pm []float64
	pidx           []int32

	segs []listSeg

	// Group-walk target outputs: particle index and accumulated
	// acceleration for every real target of the leaf bucket.
	tIdx          []int32
	tax, tay, taz []float64

	// dual is the dual-tree engine's reusable traversal state.
	dual dualState

	// Pending telemetry, flushed to the package counters in batches so
	// the hot loops never touch an atomic.
	pendWalks, pendCells, pendParts, pendSaved uint64
	pendDualTasks, pendDualMAC                 uint64
	pendDualHoisted, pendDualGroups            uint64
}

// NewWalkArena returns an empty arena (counted by
// treecode.list.arena.alloc).
func NewWalkArena() *WalkArena {
	listArenaAlloc.Inc()
	return &WalkArena{}
}

// FlushTelemetry adds the arena's pending walk/list counts to the
// package-wide treecode.list.* counters. Callers flush at coarse
// boundaries (once per Forces call, once per rank) so walks stay
// atomic-free.
func (ar *WalkArena) FlushTelemetry() {
	if ar.pendWalks > 0 {
		listWalks.Add(ar.pendWalks)
		ar.pendWalks = 0
	}
	if ar.pendCells > 0 {
		listCells.Add(ar.pendCells)
		ar.pendCells = 0
	}
	if ar.pendParts > 0 {
		listParts.Add(ar.pendParts)
		ar.pendParts = 0
	}
	if ar.pendSaved > 0 {
		listGroupSaved.Add(ar.pendSaved)
		ar.pendSaved = 0
	}
	if ar.pendDualTasks > 0 {
		dualTasks.Add(ar.pendDualTasks)
		ar.pendDualTasks = 0
	}
	if ar.pendDualMAC > 0 {
		dualMAC.Add(ar.pendDualMAC)
		ar.pendDualMAC = 0
	}
	if ar.pendDualHoisted > 0 {
		dualHoisted.Add(ar.pendDualHoisted)
		ar.pendDualHoisted = 0
	}
	if ar.pendDualGroups > 0 {
		dualGroups.Add(ar.pendDualGroups)
		ar.pendDualGroups = 0
	}
}

// Cells and Parts report the list lengths of the most recent walk.
func (ar *WalkArena) Cells() int { return len(ar.cm) }

// Parts reports the leaf-source list length of the most recent walk.
func (ar *WalkArena) Parts() int { return len(ar.pm) }

// walkNode is one record of the rope-threaded walk index: the hot
// fields of a tree node, flattened into a compact array in exact DFS
// preorder. skip is the "rope" — the index of the next node to visit
// when this node's subtree is pruned (accepted as a cell, or a leaf) —
// so the traversal is a single forward scan with no stack, touching
// memory in strictly ascending order. size2 pre-folds the MAC's
// eligibility test: it holds size·size for nodes the MAC may accept and
// +Inf for single-particle leaves (the recursive walk's
// "!Leaf || Count > 1" guard), making the acceptance test one compare.
// The record is 56 bytes — at most one cache line per visit. The node's
// box lives in the cold parallel walkB array: the containment guard
// only matters when the target can possibly be inside the cell, and a
// point inside a box of side s is within s·√3 of any interior point, so
// d2 > 3·size2 proves the target outside without touching the box.
type walkNode struct {
	cx, cy, cz, m float64
	size2         float64
	skip          int32
	first, count  int32
	leaf          bool
}

// buildWalkIndex flattens the tree into walk order: the exact child
// order (octants 0..7) of the recursive walk, with empty subtrees
// (M == 0, which the recursion enters and immediately abandons) elided
// outright. Quadrupole moments go to a parallel stride-6 array so the
// monopole-only hot path stays compact.
func buildWalkIndex(t *Tree) {
	// Rebuilds reuse last build's backing arrays (the tree maintainer
	// calls this after every structural change); a first build, where
	// the slices are nil, sizes them exactly.
	wn, wb := t.walk[:0], t.walkB[:0]
	if cap(wn) < len(t.Nodes) {
		wn = make([]walkNode, 0, len(t.Nodes))
		wb = make([]Box, 0, len(t.Nodes))
	}
	wq := t.walkQ[:0]
	if t.Quadrupole && cap(wq) < 6*len(t.Nodes) {
		wq = make([]float64, 0, 6*len(t.Nodes))
	}
	var emit func(ni int32)
	emit = func(ni int32) {
		n := &t.Nodes[ni]
		if n.M == 0 {
			return
		}
		size := 2 * n.Box.Half
		size2 := size * size
		if n.Leaf && n.Count <= 1 {
			size2 = math.Inf(1)
		}
		idx := len(wn)
		wn = append(wn, walkNode{
			cx: n.CX, cy: n.CY, cz: n.CZ, m: n.M, size2: size2,
			first: int32(n.First), count: int32(n.Count), leaf: n.Leaf,
		})
		wb = append(wb, n.Box)
		if t.Quadrupole {
			wq = append(wq, n.QXX, n.QYY, n.QZZ, n.QXY, n.QXZ, n.QYZ)
		}
		if !n.Leaf {
			for oct := 0; oct < 8; oct++ {
				if ci := n.Children[oct]; ci >= 0 {
					emit(ci)
				}
			}
		}
		wn[idx].skip = int32(len(wn))
	}
	if len(t.Nodes) > 0 {
		emit(0)
	}
	t.walk = wn
	t.walkB = wb
	t.walkQ = wq
}

// walkIndex returns the tree's walk index, building it on first use.
// The index is derived state: construction costs one pass over the
// nodes and is amortized over every walk of the tree's lifetime.
func (t *Tree) walkIndex() ([]walkNode, []Box, []float64) {
	t.walkOnce.Do(func() { buildWalkIndex(t) })
	return t.walk, t.walkB, t.walkQ
}

// appendInteractions runs the per-particle traversal over the walk
// index: the exact DFS of ForceAtRecursive as a forward scan, with the
// same acceptance logic — the MAC applied to multi-particle cells (the
// size2 = +Inf encoding), the containment guard keeping the target's
// own leaf open, and self excluded while appending.
//
// Every list lives in a local variable for the duration of the walk and
// is written back to the arena once at the end: appends then take the
// in-register fast path with no write barriers (assigning a slice
// header into the heap-allocated arena would check the barrier on every
// interaction — it dominated the walk when this loop wrote through ar).
func (t *Tree) appendInteractions(ar *WalkArena, x, y, z float64, selfIdx int, theta float64) {
	wn, wb, wq := t.walkIndex()
	th2 := theta * theta
	srcs := t.Sources
	quad := t.Quadrupole
	cx, cy, cz, cm := ar.cx[:0], ar.cy[:0], ar.cz[:0], ar.cm[:0]
	qxx, qyy, qzz := ar.qxx[:0], ar.qyy[:0], ar.qzz[:0]
	qxy, qxz, qyz := ar.qxy[:0], ar.qxz[:0], ar.qyz[:0]
	px, py, pz, pm := ar.px[:0], ar.py[:0], ar.pz[:0], ar.pm[:0]
	segs := ar.segs[:0]
	// The current segment accumulates in two counters and flushes when a
	// cell is accepted after particles were appended — the transition
	// that starts a new run.
	var segCells, segParts int32
	for i := 0; i < len(wn); {
		n := &wn[i]
		dx := n.cx - x
		dy := n.cy - y
		dz := n.cz - z
		d2 := dx*dx + dy*dy + dz*dz
		if n.size2 < th2*d2 && (d2 > 3*n.size2 || !wb[i].Contains(x, y, z)) {
			if segParts > 0 {
				segs = append(segs, listSeg{segCells, segParts})
				segCells, segParts = 0, 0
			}
			segCells++
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
				if s.Index == selfIdx && s.Index >= 0 {
					continue
				}
				px = append(px, s.X)
				py = append(py, s.Y)
				pz = append(pz, s.Z)
				pm = append(pm, s.M)
				segParts++
			}
			i = int(n.skip)
			continue
		}
		i++
	}
	if segCells > 0 || segParts > 0 {
		segs = append(segs, listSeg{segCells, segParts})
	}
	ar.cx, ar.cy, ar.cz, ar.cm = cx, cy, cz, cm
	ar.qxx, ar.qyy, ar.qzz = qxx, qyy, qzz
	ar.qxy, ar.qxz, ar.qyz = qxy, qxz, qyz
	ar.px, ar.py, ar.pz, ar.pm = px, py, pz, pm
	ar.segs = segs
	ar.pidx = ar.pidx[:0]
	ar.pendWalks++
	ar.pendCells += uint64(len(cm))
	ar.pendParts += uint64(len(pm))
}

// evalCellsMono evaluates cell monopoles [lo,hi) of the list for a
// target at (x,y,z). The expression shape is copied verbatim from the
// recursive walk — mono := M·rinv·rinv2 with rinv2 := rinv·rinv — so
// the accumulated bits match it exactly.
func (ar *WalkArena) evalCellsMono(x, y, z, eps2 float64, lo, hi int, ax, ay, az float64) (float64, float64, float64) {
	cx, cy, cz, cm := ar.cx, ar.cy, ar.cz, ar.cm
	for i := lo; i < hi; i++ {
		dx := cx[i] - x
		dy := cy[i] - y
		dz := cz[i] - z
		d2 := dx*dx + dy*dy + dz*dz
		r2 := d2 + eps2
		rinv := 1 / math.Sqrt(r2)
		rinv2 := rinv * rinv
		mono := cm[i] * rinv * rinv2
		ax += mono * dx
		ay += mono * dy
		az += mono * dz
	}
	return ax, ay, az
}

// evalCellsQuad is evalCellsMono plus the traceless-quadrupole term,
// again with the recursive walk's exact expression shapes.
func (ar *WalkArena) evalCellsQuad(x, y, z, eps2 float64, lo, hi int, ax, ay, az float64) (float64, float64, float64) {
	cx, cy, cz, cm := ar.cx, ar.cy, ar.cz, ar.cm
	qxx, qyy, qzz := ar.qxx, ar.qyy, ar.qzz
	qxy, qxz, qyz := ar.qxy, ar.qxz, ar.qyz
	for i := lo; i < hi; i++ {
		dx := cx[i] - x
		dy := cy[i] - y
		dz := cz[i] - z
		d2 := dx*dx + dy*dy + dz*dz
		r2 := d2 + eps2
		rinv := 1 / math.Sqrt(r2)
		rinv2 := rinv * rinv
		mono := cm[i] * rinv * rinv2
		ax += mono * dx
		ay += mono * dy
		az += mono * dz
		qx := qxx[i]*dx + qxy[i]*dy + qxz[i]*dz
		qy := qxy[i]*dx + qyy[i]*dy + qyz[i]*dz
		qz := qxz[i]*dx + qyz[i]*dy + qzz[i]*dz
		rinv5 := rinv2 * rinv2 * rinv
		rqr := qx*dx + qy*dy + qz*dz
		c1 := -rinv5
		c2 := 2.5 * rqr * rinv5 * rinv2
		ax += c1*qx + c2*dx
		ay += c1*qy + c2*dy
		az += c1*qz + c2*dz
	}
	return ax, ay, az
}

// evalParts evaluates leaf sources [lo,hi) of the list, with the
// recursive leaf loop's expression shape (f := m·rinv·rinv·rinv — note
// the association differs from the cell monopole's, deliberately).
func (ar *WalkArena) evalParts(x, y, z, eps2 float64, lo, hi int, ax, ay, az float64) (float64, float64, float64) {
	sx, sy, sz, sm := ar.px, ar.py, ar.pz, ar.pm
	for i := lo; i < hi; i++ {
		px := sx[i] - x
		py := sy[i] - y
		pz := sz[i] - z
		r2 := px*px + py*py + pz*pz + eps2
		rinv := 1 / math.Sqrt(r2)
		f := sm[i] * rinv * rinv * rinv
		ax += f * px
		ay += f * py
		az += f * pz
	}
	return ax, ay, az
}

// evalPartsExcept is evalParts with per-target self-exclusion by
// particle index — the scalar form of the group and dual engines' leaf
// kernel, where one list serves every target of a bucket; the two-lane
// pairPartsExcept must match it bit for bit. Returns the number of
// excluded entries so the caller's PP count matches the per-particle
// walk's.
func (ar *WalkArena) evalPartsExcept(x, y, z, eps2 float64, selfIdx int32, lo, hi int, ax, ay, az float64) (float64, float64, float64, int) {
	sx, sy, sz, sm, idx := ar.px, ar.py, ar.pz, ar.pm, ar.pidx
	skipped := 0
	for i := lo; i < hi; i++ {
		if idx[i] == selfIdx {
			skipped++
			continue
		}
		px := sx[i] - x
		py := sy[i] - y
		pz := sz[i] - z
		r2 := px*px + py*py + pz*pz + eps2
		rinv := 1 / math.Sqrt(r2)
		f := sm[i] * rinv * rinv * rinv
		ax += f * px
		ay += f * py
		az += f * pz
	}
	return ax, ay, az, skipped
}

// ForceAtList evaluates the softened acceleration at a point with the
// list engine: one traversal into the arena's interaction lists, then
// segment-ordered evaluation. Bit-identical to ForceAtRecursive for
// every theta/eps/Quadrupole/bucket combination; the arena is caller
// scratch and carries no state between walks.
func (t *Tree) ForceAtList(x, y, z float64, selfIdx int, theta, eps float64, st *Stats, ar *WalkArena) (ax, ay, az float64) {
	t.appendInteractions(ar, x, y, z, selfIdx, theta)
	eps2 := softening2(eps)
	co, po := 0, 0
	for _, seg := range ar.segs {
		if seg.cells > 0 {
			if t.Quadrupole {
				ax, ay, az = ar.evalCellsQuad(x, y, z, eps2, co, co+int(seg.cells), ax, ay, az)
			} else {
				ax, ay, az = ar.evalCellsMono(x, y, z, eps2, co, co+int(seg.cells), ax, ay, az)
			}
			co += int(seg.cells)
		}
		if seg.parts > 0 {
			ax, ay, az = ar.evalParts(x, y, z, eps2, po, po+int(seg.parts), ax, ay, az)
			po += int(seg.parts)
		}
	}
	st.PC += uint64(co)
	st.PP += uint64(po)
	return ax, ay, az
}

// forceArenas pools arenas for the thin ForceAt compatibility wrapper,
// so callers without a per-worker arena still walk allocation-free at
// steady state.
var forceArenas = sync.Pool{}

// Engine selects the force-evaluation engine of a Forcer or a parallel
// configuration. The zero value is EngineAuto: the engine is picked by
// the error budget (see Forcer.ErrorBudget) — the amortized dual-tree
// engine when an RMS-bounded deviation is acceptable (the default), the
// bit-identical list engine when the budget demands exactness.
type Engine int

const (
	// EngineAuto resolves through the error budget: a budget of at
	// least 1 (in units of the exact walk's own RMS error against
	// direct summation — the default) selects EngineDual, whose
	// conservative MAC keeps it at or below that error; a smaller
	// budget demands bit-exactness and falls back to EngineList.
	EngineAuto Engine = iota
	// EngineList is the exact engine: explicit-stack traversal into SoA
	// interaction lists, evaluated in flat kernels. Bit-identical to
	// EngineRecursive (and to the PR 5 default) for every
	// theta/eps/Quadrupole/bucket combination.
	EngineList
	// EngineRecursive is the original closure-recursive walk, retained
	// as the golden reference and benchmark baseline.
	EngineRecursive
	// EngineGroup amortizes one traversal per target group of up to
	// GroupSize particles under a conservative group MAC. RMS-bounded
	// by the exact walk's error, not bit-identical to it.
	EngineGroup
	// EngineDual is the mutual/dual-tree traversal: the tree is walked
	// against itself, so one MAC decision accepts a source cell for a
	// whole target subtree and is inherited by every group below it.
	// Same acceptance criterion (and therefore the same error bound) as
	// EngineGroup, with both sides of the interaction amortized.
	EngineDual
)

// String returns the flag spelling of the engine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineList:
		return "list"
	case EngineRecursive:
		return "recursive"
	case EngineGroup:
		return "group"
	case EngineDual:
		return "dual"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine parses a -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "list":
		return EngineList, nil
	case "recursive":
		return EngineRecursive, nil
	case "group", "groupwalk":
		return EngineGroup, nil
	case "dual":
		return EngineDual, nil
	}
	return 0, fmt.Errorf("treecode: unknown engine %q (want auto, list, recursive, group or dual)", s)
}

// DefaultErrorBudget is the error budget EngineAuto assumes when none
// is set: exactly the exact walk's own accuracy. The budget is measured
// in units of the exact theta-walk's RMS force error against direct
// summation, so 1 reads "no worse than the reference engine" — which
// the group/dual engines' conservative MAC guarantees (they open
// strictly more cells, and measure ~2x better). Any budget below 1 can
// only be met by bit-exactness and selects the list engine.
const DefaultErrorBudget = 1.0

// ResolveEngine maps an engine selection plus an error budget to the
// concrete engine a force computation runs. budget == 0 means "unset"
// (DefaultErrorBudget); budget < 1 demands exactness. An explicit
// non-auto engine always wins.
func ResolveEngine(e Engine, budget float64) Engine {
	if e != EngineAuto {
		return e
	}
	if budget == 0 {
		budget = DefaultErrorBudget
	}
	if budget < 1 {
		return EngineList
	}
	return EngineDual
}

// softening2 is the one place the Plummer softening length becomes the
// squared softening every force kernel consumes — hoisted out of the
// recursive, list, group and dual paths so they cannot drift.
func softening2(eps float64) float64 { return eps * eps }
