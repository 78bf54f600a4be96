package cpu

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// This file keeps the original map-backed scoreboard as a test oracle:
// refRun must agree with Arch.Run bit for bit on cycles and trace. The
// code is the scheduler as it stood before the dense window replaced it,
// renamed, plus one counter: belowFloor counts bookings that land below
// the floor of the most recent prune — the path that makes the prune
// rule observable.

type refClassSched struct {
	blocking bool
	rt       float64
	// Pipelined: issues already booked per cycle index.
	bins       map[int64]int
	perCycle   int
	minLiveBin int64
	// Blocking: next-free time per unit instance.
	pool []float64

	pruned     bool
	pruneFloor int64
	belowFloor int
}

func newRefClassSched(u *UnitSpec) *refClassSched {
	if u.RecipThroughput > 1 {
		return &refClassSched{
			blocking: true,
			rt:       u.RecipThroughput,
			pool:     make([]float64, u.Count),
		}
	}
	per := int(math.Round(float64(u.Count) / u.RecipThroughput))
	if per < 1 {
		per = 1
	}
	return &refClassSched{
		rt:       u.RecipThroughput,
		bins:     map[int64]int{},
		perCycle: per,
	}
}

func (c *refClassSched) acquire(t float64) float64 {
	if !c.blocking {
		bin := int64(math.Floor(t))
		at := t
		for c.bins[bin] >= c.perCycle {
			bin++
			at = float64(bin)
		}
		if c.pruned && bin < c.pruneFloor {
			c.belowFloor++
		}
		c.bins[bin]++
		if len(c.bins) > 8192 {
			c.prune(bin)
		}
		if bin > c.minLiveBin {
			// Track a loose lower bound of useful bins for pruning.
			c.minLiveBin = bin - 4096
		}
		return at
	}
	// Blocking unit: prefer a unit already idle at t (latest such), else
	// wait for the earliest-free one.
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

func (c *refClassSched) prune(current int64) {
	c.pruned = true
	c.pruneFloor = max(c.minLiveBin, current-4096)
	for b := range c.bins {
		if b < c.minLiveBin || b < current-4096 {
			delete(c.bins, b)
		}
	}
}

type refSimState struct {
	arch       *Arch
	readyR     [isa.NumRegs]float64
	readyF     [isa.NumRegs]float64
	readyFlags float64
	sched      map[isa.Class]*refClassSched
	dispatch   float64
	lastIssue  float64
	ring       []float64
	ringPos    int
	cycles     float64
}

// refRun is the original Arch.Run over the map-backed scoreboard. It
// also returns how many bookings landed below a pruned floor.
func refRun(a *Arch, p isa.Program, st *isa.State, fuel uint64) (RunResult, int, error) {
	var res RunResult
	if err := a.Validate(); err != nil {
		return res, 0, err
	}
	if err := p.Validate(); err != nil {
		return res, 0, err
	}
	ss := &refSimState{arch: a, sched: map[isa.Class]*refClassSched{}}
	if !a.InOrder {
		ss.ring = make([]float64, a.Window)
	}
	executed := uint64(0)
	for !st.Halted {
		if fuel > 0 && executed >= fuel {
			return res, 0, ErrFuel
		}
		if st.PC < 0 || st.PC >= len(p) {
			return res, 0, fmt.Errorf("cpu: PC %d out of range", st.PC)
		}
		in := p[st.PC]
		takenBefore := res.Trace.Taken
		if err := isa.Step(p, st, &res.Trace); err != nil {
			return res, 0, err
		}
		taken := res.Trace.Taken != takenBefore
		ss.time(in, taken)
		executed++
	}
	res.Cycles = ss.cycles
	res.Seconds = res.Cycles / (a.ClockMHz * 1e6)
	below := 0
	for _, cs := range ss.sched {
		below += cs.belowFloor
	}
	return res, below, nil
}

func (s *refSimState) time(in isa.Instr, taken bool) float64 {
	a := s.arch
	c := isa.ClassOf(in.Op)
	u := a.unitFor(c)

	d := s.dispatch
	if !a.InOrder {
		if oldest := s.ring[s.ringPos]; oldest > d {
			d = oldest
		}
	}
	s.dispatch = d + 1/float64(a.IssueWidth)

	t := d
	rI, rF, rFl := refSrcRegs(in)
	for _, r := range rI {
		if s.readyR[r] > t {
			t = s.readyR[r]
		}
	}
	for _, r := range rF {
		if s.readyF[r] > t {
			t = s.readyF[r]
		}
	}
	if rFl && s.readyFlags > t {
		t = s.readyFlags
	}
	if a.InOrder && s.lastIssue > t {
		t = s.lastIssue
	}

	cs := s.sched[c]
	if cs == nil {
		cs = newRefClassSched(u)
		s.sched[c] = cs
	}
	t = cs.acquire(t)
	s.lastIssue = t

	lat := u.Latency
	if c == isa.ClassLoad {
		lat += a.LoadMissRate * a.LoadMissPenalty
	}
	done := t + lat
	if wI, wF := refDstReg(in); wI != nil {
		s.readyR[*wI] = done
	} else if wF != nil {
		s.readyF[*wF] = done
	}
	if writesFlags(in.Op) {
		s.readyFlags = done
	}
	if !a.InOrder {
		s.ring[s.ringPos] = done
		s.ringPos = (s.ringPos + 1) % len(s.ring)
	}

	if taken {
		stall := (1 - a.PredictAccuracy) * a.MispredictPenalty
		s.dispatch += stall
	}
	if done > s.cycles {
		s.cycles = done
	}
	if t+1 > s.cycles {
		s.cycles = t + 1
	}
	return t
}

func refSrcRegs(in isa.Instr) (ints, fps []uint8, flags bool) {
	switch in.Op {
	case isa.Mov, isa.AddI, isa.SubI, isa.Shl, isa.Shr, isa.CmpI, isa.CvtIF, isa.Ld, isa.FLd:
		ints = []uint8{in.Ra}
	case isa.Add, isa.Sub, isa.Mul, isa.And, isa.Or, isa.Xor, isa.Cmp:
		ints = []uint8{in.Ra, in.Rb}
	case isa.St:
		ints = []uint8{in.Ra, in.Rb}
	case isa.FSt:
		ints = []uint8{in.Ra}
		fps = []uint8{in.Rb}
	case isa.FMov, isa.FSqrt, isa.FNeg, isa.FAbs, isa.CvtFI:
		fps = []uint8{in.Ra}
	case isa.FAdd, isa.FSub, isa.FMul, isa.FDiv, isa.FCmp:
		fps = []uint8{in.Ra, in.Rb}
	case isa.Jz, isa.Jnz, isa.Jl, isa.Jle, isa.Jg, isa.Jge:
		flags = true
	}
	return
}

func refDstReg(in isa.Instr) (ints, fps *uint8) {
	switch in.Op {
	case isa.MovI, isa.Mov, isa.Add, isa.AddI, isa.Sub, isa.SubI, isa.Mul,
		isa.And, isa.Or, isa.Xor, isa.Shl, isa.Shr, isa.Ld, isa.CvtFI:
		d := in.Rd
		return &d, nil
	case isa.FLd, isa.FMovI, isa.FMov, isa.FAdd, isa.FSub, isa.FMul,
		isa.FDiv, isa.FSqrt, isa.FNeg, isa.FAbs, isa.CvtIF:
		d := in.Rd
		return nil, &d
	}
	return nil, nil
}
