package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/par"
)

// EffCosts is the coarse op-mix cost model: effective cycles per operation
// per timing class, calibrated by running per-class kernels through a
// processor's full model (trace-driven superscalar for hardware CPUs, the
// CMS+VLIW simulation for the Crusoe). Large workloads that are
// implemented natively in Go (NAS kernels, the treecode) count their
// operations and are timed through this model.
type EffCosts struct {
	Processor string
	ClockMHz  float64
	Cost      [isa.NumClasses]float64
}

// CalibIters is the iteration count used for calibration loops; large
// enough that the Crusoe's one-time translation cost (thousands of cycles
// per region) amortizes to noise, as it does over a real benchmark's
// billions of iterations.
const CalibIters = 200_000

// Calibrate measures the effective per-class costs of a processor. The
// kernels run concurrently on the par pool, each writing its own slot,
// so the costs do not depend on scheduling. A hardware model times the
// kernels' recorded paths (calibCycles); other processors run them. A
// warm-start Crusoe runs them serially in kernel order: each kernel
// inherits the translation cache the previous ones left behind.
func Calibrate(p Processor) (EffCosts, error) {
	e := EffCosts{Processor: p.Name(), ClockMHz: p.ClockMHz()}
	ks := kernels.CalibKernels()
	cycles := make([]float64, len(ks))
	errs := make([]error, len(ks))
	pool := par.Default()
	if c, ok := p.(*Crusoe); ok && c.WarmStart {
		pool = par.New(1)
	}
	hw, isHW := p.(archProcessor)
	pool.For(len(ks), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if isHW {
				cycles[i], errs[i] = hw.a.calibCycles(ks[i])
				continue
			}
			prog, st, err := ks[i].Build(CalibIters)
			if err == nil {
				var res RunResult
				res, err = p.RunKernel(prog, st)
				cycles[i] = res.Cycles
			}
			errs[i] = err
		}
	})
	for i, k := range ks {
		if errs[i] != nil {
			return e, fmt.Errorf("cpu: calibrate %s/%s: %w", p.Name(), k.Name, errs[i])
		}
		e.Cost[k.Class] = cycles[i] / float64(CalibIters*k.OpsPerIteration())
	}
	// Branches and nops ride along inside the calibration loop bodies;
	// charge branches like simple ALU ops and nops free.
	e.Cost[isa.ClassBranch] = e.Cost[isa.ClassIntALU]
	e.Cost[isa.ClassNop] = 0
	return e, nil
}

// Cycles returns the modelled cycle count for an operation mix.
func (e EffCosts) Cycles(mix *isa.Trace) float64 {
	total := 0.0
	for c, n := range mix.ByClass {
		total += float64(n) * e.Cost[c]
	}
	return total
}

// Seconds converts a mix to wall-clock at the calibrated clock.
func (e EffCosts) Seconds(mix *isa.Trace) float64 {
	return e.Cycles(mix) / (e.ClockMHz * 1e6)
}

// Mflops rates a mix: counted flops over modelled time.
func (e EffCosts) Mflops(mix *isa.Trace) float64 {
	s := e.Seconds(mix)
	if s <= 0 {
		return 0
	}
	return float64(mix.Flops) / s / 1e6
}

// Mops rates a mix the way the NAS Parallel Benchmarks report: millions
// of benchmark operations per second, where ops is the benchmark's own
// nominal operation count.
func (e EffCosts) Mops(ops float64, mix *isa.Trace) float64 {
	s := e.Seconds(mix)
	if s <= 0 {
		return 0
	}
	return ops / s / 1e6
}

// CalibrateForUncached calibrates with a workload-specific expected
// cache-miss rate on loads — large working sets (NPB Class W grids,
// treecode bodies) miss far more than the tiny calibration arena. For
// hardware models the arch's LoadMissRate is replaced; for the Crusoe
// the flat VLIW load latency is raised by the expected miss cost (its
// on-die L2 kept the penalty modest).
//
// Every call re-runs the full per-class timing simulations (a hardware
// model replays the recorded kernel paths); most callers want the
// memoized CalibrateFor, keeping this as the explicit bypass for
// ablations that must observe a fresh simulation.
func CalibrateForUncached(p Processor, missRate float64) (EffCosts, error) {
	switch pr := p.(type) {
	case archProcessor:
		return Calibrate(pr.a.withMissRate(missRate).AsProcessor())
	case *Crusoe:
		c := pr.Clone()
		c.Timing.LoadLatency += int(missRate*10 + 0.5)
		return Calibrate(c)
	default:
		return Calibrate(p)
	}
}

// withMissRate returns a copy of the arch whose LoadMissRate is the
// workload's miss rate scaled by MissScale, capped at 1.
func (a *Arch) withMissRate(missRate float64) *Arch {
	b := *a
	scale := b.MissScale
	if scale == 0 {
		scale = 1
	}
	b.LoadMissRate = missRate * scale
	if b.LoadMissRate > 1 {
		b.LoadMissRate = 1
	}
	return &b
}

// Workload-class miss rates used by the experiment drivers.
const (
	// MissRateSmall suits cache-resident kernels (the microbenchmarks).
	MissRateSmall = 0.01
	// MissRateTree suits the treecode's pointer-walking working sets.
	MissRateTree = 0.04
	// MissRateClassW suits NPB Class W grids (several MB per array).
	MissRateClassW = 0.09
)
