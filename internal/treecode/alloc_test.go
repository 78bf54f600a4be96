package treecode

import (
	"fmt"
	"testing"

	"repro/internal/nbody"
)

// TestForceAtListZeroAlloc pins the steady-state per-particle force
// path at zero allocations per call: after a warm-up walk sizes the
// arena, traversal and evaluation run entirely inside reused storage.
func TestForceAtListZeroAlloc(t *testing.T) {
	s := nbody.NewPlummer(4000, 1, 13)
	tr := buildFromSystem(t, s, BuildOptions{Quadrupole: true})
	ar := NewWalkArena()
	var st Stats
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		tr.ForceAtList(s.X[i], s.Y[i], s.Z[i], i, 0.7, s.Eps, &st, ar)
		i = (i + 37) % s.N()
	})
	if allocs != 0 {
		t.Fatalf("ForceAtList allocates %.1f times per call, want 0", allocs)
	}
}

// TestGroupForceLeafZeroAlloc pins the group-walk leaf evaluation at
// zero allocations per call once the arena is warm, on the monopole
// (two-lane kernel) and quadrupole cell paths.
func TestGroupForceLeafZeroAlloc(t *testing.T) {
	s := nbody.NewPlummer(4000, 1, 13)
	for _, quad := range []bool{false, true} {
		t.Run(fmt.Sprintf("quad=%v", quad), func(t *testing.T) {
			tr := buildFromSystem(t, s, BuildOptions{Quadrupole: quad})
			leaves := tr.AppendLeaves(nil)
			ar := NewWalkArena()
			var st Stats
			k := 0
			allocs := testing.AllocsPerRun(200, func() {
				tr.GroupForceLeaf(leaves[k], 0.7, s.Eps, ar, &st)
				k = (k + 1) % len(leaves)
			})
			if allocs != 0 {
				t.Fatalf("GroupForceLeaf allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestDualForceWalkZeroAlloc pins the dual-tree task walk at zero
// allocations per call once the arena (lists, target buffers, and the
// undecided-source stack) is warm, on the monopole (two-lane kernel)
// and quadrupole cell paths.
func TestDualForceWalkZeroAlloc(t *testing.T) {
	s := nbody.NewPlummer(4000, 1, 13)
	for _, quad := range []bool{false, true} {
		t.Run(fmt.Sprintf("quad=%v", quad), func(t *testing.T) {
			tr := buildFromSystem(t, s, BuildOptions{Quadrupole: quad})
			tasks := tr.AppendGroups(nil, DualTaskSize)
			ar := NewWalkArena()
			var st Stats
			for _, ti := range tasks {
				tr.DualForceWalk(ti, 0.7, s.Eps, 0, nil, ar, &st)
			}
			k := 0
			allocs := testing.AllocsPerRun(50, func() {
				tr.DualForceWalk(tasks[k], 0.7, s.Eps, 0, nil, ar, &st)
				k = (k + 1) % len(tasks)
			})
			if allocs != 0 {
				t.Fatalf("DualForceWalk allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestForceSweepZeroAlloc runs a full warm sweep over every particle
// with a single arena — the exact shape of one worker's chunk loop in
// Forcer.Forces — and pins it at zero allocations. (The whole Forces
// call still allocates for the fresh tree build, which is by design:
// particles move between steps.)
func TestForceSweepZeroAlloc(t *testing.T) {
	s := nbody.NewPlummer(2000, 1, 29)
	tr := buildFromSystem(t, s, BuildOptions{})
	ar := NewWalkArena()
	var st Stats
	// Warm the arena on the deepest walks before measuring.
	sweepList(tr, s, 0.7)
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < s.N(); i++ {
			ax, ay, az := tr.ForceAtList(s.X[i], s.Y[i], s.Z[i], i, 0.7, s.Eps, &st, ar)
			s.AX[i], s.AY[i], s.AZ[i] = ax, ay, az
		}
	})
	if allocs != 0 {
		t.Fatalf("warm force sweep allocates %.1f times per pass, want 0", allocs)
	}
}
