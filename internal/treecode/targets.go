package treecode

// Target groups: the dual engine evaluates forces one *group* of
// nearby target particles at a time — a maximal subtree of at most
// DefaultGroupSize particles sharing one interaction list — optionally
// restricted to a Selection of active targets.

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

// evalTargets evaluates the arena's current shared interaction list —
// all cells, then all leaf sources with per-target self-exclusion —
// for every selected real target in the key-sorted source range
// [first, first+count), appending (index, acceleration) rows to the
// arena's target buffers. It is the dual engine's evaluation path,
// and the one place its softening handling lives. Targets run in
// pairs through the two-lane kernels (an odd last target pairs with
// itself and its second lane is dropped); quadrupole cells run the
// scalar kernel once per lane. Stats count per-target interactions
// exactly as the per-particle walk would (self-matches are excluded
// from PP).
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

// NumTargets reports how many targets the last DualForceWalk filled.
func (ar *WalkArena) NumTargets() int { return len(ar.tIdx) }

// Target returns the k-th target's particle index and acceleration.
func (ar *WalkArena) Target(k int) (idx int, ax, ay, az float64) {
	return int(ar.tIdx[k]), ar.tax[k], ar.tay[k], ar.taz[k]
}

// DefaultGroupSize is the dual engine's target-group granularity: a
// target subtree of at most this many particles stops splitting and
// evaluates one shared interaction list for all of them. Decoupled
// from the tree's leaf bucket — groups want coarser granularity than
// the force-accuracy-driven bucket size, and a group is any maximal
// subtree small enough, not just one leaf. Coarser groups only
// *improve* accuracy (the conservative MAC opens more), at the cost of
// longer per-target lists; 64 is the throughput sweet spot measured on
// the default bucket-8 tree.
const DefaultGroupSize = 64

// AppendGroups appends, in DFS preorder, the node indices of the
// maximal subtrees holding at most maxParts particles — a disjoint
// cover of all sources. Each returned node is a valid DualForceWalk
// target: its particles are the contiguous source range
// [First, First+Count). maxParts below the leaf bucket degenerates to
// the leaves.
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
