package treecode

// Two-lane force kernels. evalTargets feeds the shared interaction
// list to two targets at once: lane k of every pairAcc column belongs
// to target k, and each source column entry is read once for both
// lanes. Lanes are targets, not sources, so each lane runs its own
// target's scalar sequence — same summation order, same expression
// shapes as evalCellsMono and evalPartsExcept — and the accumulated
// bits equal the scalar kernels' exactly. kernel_amd64.s holds the
// SSE2 kernels; kernel_other.go runs the scalar kernels once per lane
// on every other GOARCH.

// pairAcc is one pair of targets in flight: positions and particle
// indices in, accumulated accelerations and self-exclusion counts out.
type pairAcc struct {
	x, y, z    [2]float64
	ax, ay, az [2]float64
	self       [2]int32
	// skip counts, per lane, the leaf sources the particle kernel
	// excluded as that lane's own particle.
	skip [2]uint64
}
