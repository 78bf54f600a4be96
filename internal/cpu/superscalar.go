// Package cpu provides timing models for the commodity processors the
// paper benchmarks against the Transmeta TM5600: trace-driven superscalar
// models (used for the gravitational microkernel, Table 1) and a coarse
// op-mix cost model calibrated from them (used for the NAS and treecode
// workloads, Tables 2–4). The TM5600 itself is modelled by the full
// CMS+VLIW simulation in internal/cms; this package wraps it behind the
// same interfaces.
package cpu

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cms"
	"repro/internal/isa"
)

// UnitSpec describes one functional-unit pool of a superscalar core.
type UnitSpec struct {
	Count int // identical units in the pool
	// Latency is producer→consumer distance in cycles.
	Latency float64
	// RecipThroughput is the per-unit issue interval (1 = fully
	// pipelined; = Latency for blocking units like dividers).
	RecipThroughput float64
}

// Arch parameterizes a hardware superscalar core. The model is a one-pass
// scoreboard: with register renaming only true (RAW) dependences stall;
// in-order cores additionally issue in program order. It intentionally
// omits fetch alignment, TLBs, and replay traps — the paper's comparisons
// live at the level this captures (issue width, FP latencies, divide/sqrt
// cost, memory latency, branch penalty).
type Arch struct {
	Name     string
	ClockMHz float64

	IssueWidth int
	InOrder    bool
	// Window is the out-of-order instruction window (ROB) size; ignored
	// for in-order cores.
	Window int

	// Units per timing class group.
	IntALU UnitSpec
	IntMul UnitSpec
	Mem    UnitSpec // load/store ports; Latency applies to loads
	FPAdd  UnitSpec
	FPMul  UnitSpec
	FPDiv  UnitSpec
	FPSqrt UnitSpec

	// LoadMissRate is the expected fraction of loads missing the first-
	// level cache for the modelled working sets; LoadMissPenalty is the
	// extra latency applied (as an expected value).
	LoadMissRate    float64
	LoadMissPenalty float64

	// Branch handling: taken branches that mispredict cost
	// MispredictPenalty; PredictAccuracy is applied as an expectation.
	MispredictPenalty float64
	PredictAccuracy   float64

	// MissScale adjusts workload-supplied miss rates for this core's
	// cache hierarchy (an 8 MB L2 sees far fewer Class-W misses than a
	// 256 KB one). Zero means 1.
	MissScale float64
}

// Validate sanity-checks the parameters.
func (a *Arch) Validate() error {
	if a.ClockMHz <= 0 {
		return fmt.Errorf("cpu: %s: non-positive clock", a.Name)
	}
	if a.IssueWidth <= 0 {
		return fmt.Errorf("cpu: %s: non-positive issue width", a.Name)
	}
	if !a.InOrder && a.Window <= 0 {
		return fmt.Errorf("cpu: %s: out-of-order core needs a window", a.Name)
	}
	for _, u := range []UnitSpec{a.IntALU, a.IntMul, a.Mem, a.FPAdd, a.FPMul, a.FPDiv, a.FPSqrt} {
		if u.Count <= 0 || !finitePositive(u.Latency) || !finitePositive(u.RecipThroughput) {
			return fmt.Errorf("cpu: %s: unit spec must be positive and finite: %+v", a.Name, u)
		}
	}
	if !(a.PredictAccuracy >= 0 && a.PredictAccuracy <= 1) {
		return fmt.Errorf("cpu: %s: predict accuracy out of [0,1]", a.Name)
	}
	if !(a.LoadMissRate >= 0 && a.LoadMissRate <= 1) {
		return fmt.Errorf("cpu: %s: load miss rate out of [0,1]", a.Name)
	}
	// The scoreboard relies on a finite dispatch clock that never moves
	// back.
	if !finiteNonNegative(a.LoadMissPenalty) || !finiteNonNegative(a.MispredictPenalty) {
		return fmt.Errorf("cpu: %s: penalties must be non-negative and finite", a.Name)
	}
	return nil
}

func finitePositive(x float64) bool    { return x > 0 && x <= math.MaxFloat64 }
func finiteNonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

func (a *Arch) unitFor(c isa.Class) *UnitSpec {
	switch c {
	case isa.ClassIntALU, isa.ClassNop, isa.ClassBranch:
		return &a.IntALU
	case isa.ClassIntMul:
		return &a.IntMul
	case isa.ClassLoad, isa.ClassStore:
		return &a.Mem
	case isa.ClassFPAdd:
		return &a.FPAdd
	case isa.ClassFPMul:
		return &a.FPMul
	case isa.ClassFPDiv:
		return &a.FPDiv
	case isa.ClassFPSqrt:
		return &a.FPSqrt
	}
	return &a.IntALU
}

// RunResult reports a timed execution.
type RunResult struct {
	Cycles  float64
	Seconds float64
	Trace   isa.Trace
	// CMS carries the CMS statistics of the run when the processor was a
	// Crusoe (nil for hardware superscalar models). Cold-start runs
	// report the run's own stats; warm-start runs report the persistent
	// machine's accumulated stats. cms.Stats implements obs.Source, so a
	// driver can gather this directly into its snapshot.
	CMS *cms.Stats
}

// Mflops returns the achieved floating-point rate.
func (r RunResult) Mflops() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.Trace.Flops) / r.Seconds / 1e6
}

// ErrFuel mirrors isa.ErrFuel for timed runs.
var ErrFuel = errors.New("cpu: instruction budget exhausted")

// simState is the per-run scoreboard. The front end dispatches in program
// order at IssueWidth instructions per cycle into the out-of-order window;
// execution starts when operands and a functional unit are available
// (register renaming removes WAR/WAW stalls); the ROB-full condition
// blocks dispatch when the instruction Window instructions older has not
// completed. In-order cores additionally start execution in program order.
type simState struct {
	arch *Arch
	// Completion cycle per register (RAW only; renaming removes WAR/WAW).
	readyR     [isa.NumRegs]float64
	readyF     [isa.NumRegs]float64
	readyFlags float64
	// Per-class unit schedules, created on a class's first instruction.
	// Load and Store share the Mem unit spec but book separate schedules.
	sched  [isa.NumClasses]classSched
	booked [isa.NumClasses]bool
	// Per-class completion latency (a load's includes the expected miss
	// cost).
	lat [isa.NumClasses]float64
	// 1/IssueWidth, and the expected front-end stall per taken branch.
	dispatchStep float64
	branchStall  float64
	// Front-end dispatch clock (advances 1/IssueWidth per instruction).
	dispatch float64
	// Most recent execution-start cycle (in-order issue constraint).
	lastIssue float64
	// Ring of completion times for the window (ROB) constraint.
	ring    []float64
	ringPos int
	cycles  float64
}

func newSimState(a *Arch) *simState {
	s := &simState{
		arch:         a,
		dispatchStep: 1 / float64(a.IssueWidth),
		branchStall:  (1 - a.PredictAccuracy) * a.MispredictPenalty,
	}
	for c := range s.lat {
		s.lat[c] = a.unitFor(isa.Class(c)).Latency
		if isa.Class(c) == isa.ClassLoad {
			s.lat[c] += a.LoadMissRate * a.LoadMissPenalty
		}
	}
	if !a.InOrder {
		s.ring = make([]float64, a.Window)
	}
	return s
}

// Run executes the program with isa semantics, recording its path
// (isa.RecordPath), then times the path's dynamic instructions through
// the core model. fuel of 0 means unlimited.
func (a *Arch) Run(p isa.Program, st *isa.State, fuel uint64) (RunResult, error) {
	var res RunResult
	if err := a.Validate(); err != nil {
		return res, err
	}
	if err := p.Validate(); err != nil {
		return res, err
	}
	path, err := isa.RecordPath(p, st, &res.Trace, fuel, nil)
	switch {
	case errors.Is(err, isa.ErrFuel):
		return res, ErrFuel
	case err != nil && (st.PC < 0 || st.PC >= len(p)):
		return res, fmt.Errorf("cpu: PC %d out of range", st.PC)
	case err != nil:
		return res, err
	}
	res.Cycles = a.timePath(p, path)
	res.Seconds = res.Cycles / (a.ClockMHz * 1e6)
	return res, nil
}

// timePath replays a recorded path of the program through a fresh
// scoreboard and returns its cycle count.
func (a *Arch) timePath(p isa.Program, path []isa.Block) float64 {
	dec := make([]decoded, len(p))
	for i, in := range p {
		dec[i] = decode(in)
	}
	ss := newSimState(a)
	for _, b := range path {
		body, last := dec[b.Start:b.End], &dec[b.End]
		for n := b.Count; n > 0; n-- {
			for i := range body {
				ss.time(&body[i], false)
			}
			ss.time(last, b.Taken)
		}
	}
	return ss.cycles
}

// time advances the scoreboard for one dynamic instruction and returns
// the execution-start cycle (useful for tests and debugging).
func (s *simState) time(in *decoded, taken bool) float64 {
	a := s.arch
	c := in.class

	// Front end: in-order dispatch at IssueWidth/cycle, blocked while the
	// window is full (the instruction Window slots older must complete
	// before this one can enter).
	d := s.dispatch
	if !a.InOrder {
		if oldest := s.ring[s.ringPos]; oldest > d {
			d = oldest
		}
	}
	s.dispatch = d + s.dispatchStep

	// No later instruction starts before d, nor, in order, before
	// lastIssue: the unit schedules may forget what lies further back.
	lo := d
	if a.InOrder && s.lastIssue > lo {
		lo = s.lastIssue
	}

	// Execution start: dispatched, operands ready, unit free.
	t := d
	for _, r := range in.srcI[:in.nSrcI] {
		if s.readyR[r] > t {
			t = s.readyR[r]
		}
	}
	for _, r := range in.srcF[:in.nSrcF] {
		if s.readyF[r] > t {
			t = s.readyF[r]
		}
	}
	if in.readsFlags && s.readyFlags > t {
		t = s.readyFlags
	}
	if a.InOrder && s.lastIssue > t {
		t = s.lastIssue
	}

	// Functional-unit availability.
	cs := &s.sched[c]
	if !s.booked[c] {
		*cs = newClassSched(a.unitFor(c))
		s.booked[c] = true
	}
	if !cs.book(t) {
		t = cs.acquire(t, int64(math.Floor(lo)))
	}
	s.lastIssue = t

	// Completion.
	done := t + s.lat[c]
	switch in.dst {
	case regInt:
		s.readyR[in.rd] = done
	case regFP:
		s.readyF[in.rd] = done
	}
	if in.writesFlags {
		s.readyFlags = done
	}
	if !a.InOrder {
		s.ring[s.ringPos] = done
		if s.ringPos++; s.ringPos == len(s.ring) {
			s.ringPos = 0
		}
	}

	// Branch handling: a mispredicted taken branch stalls the front end
	// from the branch's resolution; applied as an expected value.
	if taken {
		s.dispatch += s.branchStall
	}
	if done > s.cycles {
		s.cycles = done
	}
	if t+1 > s.cycles {
		s.cycles = t + 1
	}
	return t
}

// decoded holds what the scoreboard needs of one static instruction,
// decoded once per run.
type decoded struct {
	class        isa.Class
	srcI, srcF   [2]uint8 // source registers by file
	nSrcI, nSrcF uint8
	readsFlags   bool
	writesFlags  bool
	dst          regKind
	rd           uint8
}

// regKind names the register file an instruction writes.
type regKind uint8

const (
	regNone regKind = iota
	regInt
	regFP
)

func decode(in isa.Instr) decoded {
	d := decoded{class: isa.ClassOf(in.Op), rd: in.Rd}
	switch in.Op {
	case isa.Mov, isa.AddI, isa.SubI, isa.Shl, isa.Shr, isa.CmpI, isa.CvtIF, isa.Ld, isa.FLd:
		d.srcI, d.nSrcI = [2]uint8{in.Ra}, 1
	case isa.Add, isa.Sub, isa.Mul, isa.And, isa.Or, isa.Xor, isa.Cmp, isa.St:
		d.srcI, d.nSrcI = [2]uint8{in.Ra, in.Rb}, 2
	case isa.FSt:
		d.srcI, d.nSrcI = [2]uint8{in.Ra}, 1
		d.srcF, d.nSrcF = [2]uint8{in.Rb}, 1
	case isa.FMov, isa.FSqrt, isa.FNeg, isa.FAbs, isa.CvtFI:
		d.srcF, d.nSrcF = [2]uint8{in.Ra}, 1
	case isa.FAdd, isa.FSub, isa.FMul, isa.FDiv, isa.FCmp:
		d.srcF, d.nSrcF = [2]uint8{in.Ra, in.Rb}, 2
	case isa.Jz, isa.Jnz, isa.Jl, isa.Jle, isa.Jg, isa.Jge:
		d.readsFlags = true
	}
	switch in.Op {
	case isa.MovI, isa.Mov, isa.Add, isa.AddI, isa.Sub, isa.SubI, isa.Mul,
		isa.And, isa.Or, isa.Xor, isa.Shl, isa.Shr, isa.Ld, isa.CvtFI:
		d.dst = regInt
	case isa.FLd, isa.FMovI, isa.FMov, isa.FAdd, isa.FSub, isa.FMul,
		isa.FDiv, isa.FSqrt, isa.FNeg, isa.FAbs, isa.CvtIF:
		d.dst = regFP
	}
	d.writesFlags = writesFlags(in.Op)
	return d
}

func writesFlags(op isa.Op) bool {
	return op == isa.Cmp || op == isa.CmpI || op == isa.FCmp
}
