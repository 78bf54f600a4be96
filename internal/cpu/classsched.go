package cpu

import "math"

// classSched tracks functional-unit occupancy for one timing class.
//
// Pipelined units (RecipThroughput ≤ 1) accept a fixed number of issues
// per clock cycle; tracking per-cycle issue counts lets a younger
// instruction that becomes ready early claim a cycle an older (but
// later-issuing) instruction left idle — which a greedy "next-free time
// per unit" model cannot express. Blocking units (dividers, square-root
// units; RecipThroughput > 1) keep the per-unit next-free model, which is
// accurate for them because their use is serialized by data dependences
// in practice.
//
// The per-cycle counts live in a dense sliding window, win[i] holding
// the issues booked in cycle base+i. The scheduler's results depend on a
// prune rule inherited from the map the counts used to live in: once
// more than pruneLive cycles hold a booking, every cycle below
// max(minLiveBin, bin−pruneKeep) is forgotten, and a later booking that
// lands in a forgotten cycle finds it empty. Such bookings are rare but
// do occur (a long dependence chain books a class thousands of cycles
// ahead of its independent work), so the window keeps the rule exactly:
// live counts the booked cycles as the map's length did, and prune
// empties the same cycles the map deleted. The window starts pruneKeep
// cycles below the lowest cycle any later booking can reach (see
// acquire's lo), so every booked cycle that slides out of it lies below
// the floor of the next prune; those cycles are only counted, in old.
// Per-block counts of booked cycles let slides and prunes count what
// they drop without visiting every cycle.
type classSched struct {
	blocking bool
	rt       float64
	// Pipelined: issues booked per cycle for cycles [base, base+len(win)),
	// and booked cycles per block of blockLen cycles; base is a multiple
	// of blockLen.
	win        []int32
	blocks     []int32
	base       int64
	perCycle   int32
	live       int // booked cycles, including the old ones
	old        int // booked cycles below base
	minLiveBin int64
	// Blocking: next-free time per unit instance.
	pool []float64
}

const (
	// The prune rule: prune once more than pruneLive cycles hold a
	// booking, keeping the pruneKeep cycles below the current one.
	pruneLive = 8192
	pruneKeep = 4096
	// winInit is the window's initial length: pruneKeep cycles of
	// history plus room ahead, so that slides are rare and a steady-state
	// run never grows the window.
	winInit    = 4 * pruneKeep
	blockShift = 6
	blockLen   = 1 << blockShift
)

func newClassSched(u *UnitSpec) classSched {
	if u.RecipThroughput > 1 {
		return classSched{
			blocking: true,
			rt:       u.RecipThroughput,
			pool:     make([]float64, u.Count),
		}
	}
	per := math.Round(float64(u.Count) / u.RecipThroughput)
	per = min(max(per, 1), math.MaxInt32)
	return classSched{
		rt:       u.RecipThroughput,
		win:      make([]int32, winInit),
		blocks:   make([]int32, winInit/blockLen),
		perCycle: int32(per),
	}
}

// book is acquire's inlined fast path for the common case: a pipelined
// unit whose first candidate cycle, floor(t), is in the window and not
// full, with no prune due after the booking. It books that cycle and
// reports true, the issue time being t; otherwise it books nothing and
// the caller falls back to acquire.
func (c *classSched) book(t float64) bool {
	bin := int64(math.Floor(t))
	i := bin - c.base
	if uint64(i) >= uint64(len(c.win)) || c.win[i] >= c.perCycle || c.live >= pruneLive {
		return false
	}
	if c.win[i] == 0 {
		c.live++
		c.blocks[i>>blockShift]++
	}
	c.win[i]++
	if bin > c.minLiveBin {
		c.minLiveBin = bin - pruneKeep
	}
	return true
}

// acquire books the unit at the earliest time ≥ t and returns the issue
// time. lo is a lower bound on every later call's t: the window may
// forget the cycles below lo−pruneKeep.
func (c *classSched) acquire(t float64, lo int64) float64 {
	if c.blocking {
		return c.acquireBlocking(t)
	}
	bin := int64(math.Floor(t))
	at := t
	i := bin - c.base
	for i < int64(len(c.win)) && c.win[i] >= c.perCycle {
		i++
		at = float64(c.base + i)
	}
	bin = c.base + i
	if i >= int64(len(c.win)) {
		c.slide(bin, lo)
		i = bin - c.base
	}
	if c.win[i] == 0 {
		c.live++
		c.blocks[i>>blockShift]++
	}
	c.win[i]++
	if c.live > pruneLive {
		c.prune(bin)
	}
	if bin > c.minLiveBin {
		// Track a loose lower bound of useful bins for pruning.
		c.minLiveBin = bin - pruneKeep
	}
	return at
}

// slide moves the window up so that it covers bin, dropping the blocks
// below lo−pruneKeep (counting their booked cycles into old), and
// doubles it while it would be more than half full.
func (c *classSched) slide(bin, lo int64) {
	newBase := (lo - pruneKeep) &^ (blockLen - 1)
	if k := newBase - c.base; k > 0 {
		n := int64(len(c.win))
		k = min(k, n)
		kb := k >> blockShift
		for _, b := range c.blocks[:kb] {
			c.old += int(b)
		}
		copy(c.win, c.win[k:])
		clear(c.win[n-k:])
		copy(c.blocks, c.blocks[kb:])
		clear(c.blocks[int64(len(c.blocks))-kb:])
		c.base = newBase
	}
	for bin-c.base >= int64(len(c.win))/2 {
		c.win = append(c.win, make([]int32, len(c.win))...)
		c.blocks = append(c.blocks, make([]int32, len(c.blocks))...)
	}
}

// prune forgets every booking below max(minLiveBin, current−pruneKeep).
func (c *classSched) prune(current int64) {
	floor := max(c.minLiveBin, current-pruneKeep)
	// Every old cycle lies below base ≤ lo−pruneKeep ≤ current−pruneKeep.
	c.live -= c.old
	c.old = 0
	end := min(floor-c.base, int64(len(c.win)))
	if end <= 0 {
		return
	}
	full := end >> blockShift
	for j, b := range c.blocks[:full] {
		if b != 0 {
			c.live -= int(b)
			c.blocks[j] = 0
			clear(c.win[j<<blockShift : (j+1)<<blockShift])
		}
	}
	for i := full << blockShift; i < end; i++ {
		if c.win[i] != 0 {
			c.win[i] = 0
			c.live--
			c.blocks[full]--
		}
	}
}

// acquireBlocking prefers a unit already idle at t (latest such), else
// waits for the earliest-free one.
func (c *classSched) acquireBlocking(t float64) float64 {
	bestIdle, bestBusy := -1, 0
	for i := range c.pool {
		if c.pool[i] <= t {
			if bestIdle < 0 || c.pool[i] > c.pool[bestIdle] {
				bestIdle = i
			}
		}
		if c.pool[i] < c.pool[bestBusy] {
			bestBusy = i
		}
	}
	at := t
	unit := bestIdle
	if unit < 0 {
		unit = bestBusy
		at = c.pool[unit]
	}
	c.pool[unit] = at + c.rt
	return at
}
