package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/treecode"
)

// The nbody workloads: the host treecode at full width with the
// default engine and tree reuse, integrated for the measurement time.
const (
	nbodyParticles = 20000
	theta          = 0.7
	leapfrogDT     = 0.005
	// forceSample is how many particles the step-0 force error compares
	// against direct summation.
	forceSample = 256
	// maxForceErr and maxEnergyDrift bound the physics: a force engine
	// or integrator past them is wrong, not fast. The drift is taken
	// over the first integrator call.
	maxForceErr    = 0.05
	maxEnergyDrift = 1e-3
)

var blockConfig = nbody.BlockConfig{DT: 0.02, MaxRung: 6}

// segmentChunks is how many integrator calls a run makes before it
// starts again from the initial state.
const segmentChunks = 2

// nbodyCase is one of the two nbody workloads. An op is one base step.
type nbodyCase struct {
	ic    func(n int, seed uint64) *nbody.System
	block bool
	// chunk is how many ops one integrator call advances; each call
	// starts with a force evaluation that belongs to no op.
	chunk int
	// gateSteps is the length of the determinism check's integrations.
	gateSteps int
}

func runNbody(cfg config, out *outcome) error {
	plummer := func(n int, seed uint64) *nbody.System { return nbody.NewPlummer(n, 1, seed) }
	return nbodyCase{ic: plummer, chunk: 16, gateSteps: 2}.run(cfg, out)
}

func runNbodyBlock(cfg config, out *outcome) error {
	return nbodyCase{ic: nbody.NewColdDisk, block: true, chunk: 4, gateSteps: 1}.run(cfg, out)
}

// advance integrates ops base steps.
func (c nbodyCase) advance(s *nbody.System, f nbody.ActiveForcer, st *nbody.BlockStepper, ops int) error {
	if c.block {
		return st.Run(s, f, blockConfig, ops)
	}
	return s.Leapfrog(f, leapfrogDT, ops)
}

// nbodyLayers accumulates the traced chunks' per-layer figures.
type nbodyLayers struct {
	n                    int
	wall, inside         time.Duration // whole chunks; inside force calls
	buildMS, walkMS      float64
	calls                int
	nodes, reused        float64
	interactions         uint64
	ops                  int
	opWall, opInside     time.Duration
	opCalls, activeTotal int
	tracedOps, plainOps  []float64 // op times, ms
}

func (c nbodyCase) run(cfg config, out *outcome) error {
	n := cfg.particles
	if n == 0 {
		n = nbodyParticles
	}
	var s *nbody.System
	var f *treecode.Forcer
	setup, err := timeSetup(9, func() error {
		s = c.ic(n, cfg.seed)
		f = &treecode.Forcer{Theta: theta}
		return f.Forces(s)
	})
	if err != nil {
		return err
	}
	ferr, listErr, err := forceErrors(s, cfg.seed)
	if err != nil {
		return err
	}
	out.note("force_rms_err", "1", ferr)
	out.note("force_rms_err_list_engine", "1", listErr)
	out.check("force_rms_err", checkForceError(ferr, listErr))
	e0 := energy(s)

	// The run repeats one segment of the integration from the initial
	// state, so every run, at any speed, times the same physics.
	// Segments alternate untraced and traced in a traced run.
	var st *nbody.BlockStepper
	cf := &clockedForcer{inner: f, n: n}
	var opMS []float64
	lay := nbodyLayers{n: n}
	minChunks := 1 // a traced run needs a segment of each kind
	if cfg.trace {
		minChunks = 2 * segmentChunks
	}
	heap := startHeapSampler()
	rt0 := readRuntime()
	start := time.Now()
	for i := 0; i < minChunks || time.Since(start) < cfg.measure(); i++ {
		if i%segmentChunks == 0 {
			if i > 0 {
				s = nil // let the old state go before the new one is built
				s = c.ic(n, cfg.seed)
				// Collect between segments, so a collection inside one
				// marks only that segment's state.
				runtime.GC()
			}
			st = &nbody.BlockStepper{}
			if c.block {
				cf.stepper = st
			}
		}
		traced := cfg.trace && (i/segmentChunks)%2 == 1
		if traced {
			f.Tracer = obs.NewTracer()
		}
		reused0 := reuseNodes()
		total0 := f.Total
		cf.traced = traced
		ops, wall, err := cf.chunk(func() error { return c.advance(s, cf, st, c.chunk) })
		if err != nil {
			return err
		}
		out.op(len(ops))
		opMS = append(opMS, ops...)
		if i == 0 {
			drift := math.Abs((energy(s) - e0) / e0)
			out.note("energy_drift", "1", drift)
			out.check("energy_drift", bounded(drift, maxEnergyDrift))
		}
		if !cfg.trace {
			continue
		}
		if !traced {
			lay.plainOps = append(lay.plainOps, ops...)
			continue
		}
		lay.tracedOps = append(lay.tracedOps, ops...)
		if err := lay.add(cf, f, wall, total0, reused0); err != nil {
			return err
		}
		f.Tracer = nil
	}
	rt1 := readRuntime()
	heapMB := heap.peakMB()

	c.checkDeterminism(cfg, n, out)

	step := median(opMS)
	rate := float64(len(opMS)) / (sum(opMS) / 1000)
	out.note("step_ms", "ms", step)
	out.note("steps", "count", float64(len(opMS)))
	out.note("setup_s", "s", setup)
	out.note("heap_peak_mb", "MB", heapMB)
	if !cfg.trace {
		out.set("setup_s", setup)
		out.set("op_ms", step)
		out.set("ops_per_s", rate)
		out.set("heap_peak_mb", heapMB)
		return nil
	}
	out.setRuntime(rt0, rt1, len(opMS))
	eff, err := walkParEff(s)
	if err != nil {
		return err
	}
	out.set("treecode.walk_par_eff", eff)
	lay.report(out)
	return nil
}

// add folds one traced chunk into the totals.
func (l *nbodyLayers) add(cf *clockedForcer, f *treecode.Forcer, wall time.Duration, total0 treecode.Stats, reused0 uint64) error {
	sp, err := spans(f.Tracer)
	if err != nil {
		return err
	}
	for _, s := range sp {
		switch {
		case s.Cat == "treecode" && s.Name == "build":
			l.buildMS += s.Dur / 1000
			nodes, _ := s.Args["nodes"].(float64)
			l.nodes += nodes
		case s.Cat == "treecode" && s.Name == "forces":
			l.walkMS += s.Dur / 1000
		}
	}
	l.wall += wall
	l.calls += len(cf.calls)
	l.interactions += f.Total.Interactions() - total0.Interactions()
	l.reused += float64(reuseNodes() - reused0)
	for _, call := range cf.calls {
		l.inside += call.end.Sub(call.start)
	}
	// Attribute the calls that fall inside an op (every call but the
	// chunk's opening evaluation).
	for j := 0; j+1 < len(cf.marks); j++ {
		lo, hi := cf.marks[j], cf.marks[j+1]
		l.ops++
		l.opWall += hi.Sub(lo)
		for _, call := range cf.calls {
			if !call.start.Before(lo) && call.start.Before(hi) {
				l.opInside += call.end.Sub(call.start)
				l.opCalls++
				l.activeTotal += call.active
			}
		}
	}
	return nil
}

func (l *nbodyLayers) report(out *outcome) {
	if l.calls == 0 || l.ops == 0 {
		return
	}
	calls := float64(l.calls)
	out.set("treecode.build_ms", l.buildMS/calls)
	out.set("treecode.walk_ms", l.walkMS/calls)
	out.set("treecode.interactions", float64(l.interactions)/calls)
	out.set("treecode.ns_per_interaction", l.walkMS*1e6/float64(l.interactions))
	out.set("treecode.reuse_frac", l.reused/l.nodes)
	ops := float64(l.ops)
	out.set("nbody.integrate_ms", ms(l.opWall-l.opInside)/ops)
	out.set("nbody.force_calls", float64(l.opCalls)/ops)
	out.set("nbody.active_frac", float64(l.activeTotal)/float64(l.opCalls)/float64(l.n))
	out.set("trace_overhead_frac", median(l.tracedOps)/median(l.plainOps)-1)
	// Layers: build and walk (spans) plus integrate (everything outside
	// the force calls); what is left is force-call time no span covers.
	layers := l.buildMS + l.walkMS + ms(l.wall-l.inside)
	out.set("unaccounted_frac", 1-layers/ms(l.wall))
}

// clockedForcer wraps the treecode forcer to mark op boundaries and,
// in traced chunks, to time every force call.
type clockedForcer struct {
	inner   *treecode.Forcer
	stepper *nbody.BlockStepper // nil for uniform leapfrog
	n       int
	traced  bool
	base    uint64 // stepper.Stats.BaseSteps at the last mark
	marks   []time.Time
	calls   []forceCall
}

type forceCall struct {
	start, end time.Time
	active     int
}

func (c *clockedForcer) Forces(s *nbody.System) error { return c.ForcesActive(s, nil) }

// ForcesActive marks op boundaries. Leapfrog ends a step with a force
// call, so every call's end is a mark. The block stepper counts a base
// step after its closing kicks; the first call after the count moves
// marks the boundary, and the chunk's end marks the last one.
func (c *clockedForcer) ForcesActive(s *nbody.System, active []bool) error {
	t0 := time.Now()
	if c.stepper != nil && c.stepper.Stats.BaseSteps != c.base {
		c.base = c.stepper.Stats.BaseSteps
		c.marks = append(c.marks, t0)
	}
	err := c.inner.ForcesActive(s, active)
	t1 := time.Now()
	if c.stepper == nil || len(c.marks) == 0 {
		c.marks = append(c.marks, t1)
	}
	if c.traced {
		na := c.n
		if active != nil {
			na = 0
			for _, a := range active {
				if a {
					na++
				}
			}
		}
		c.calls = append(c.calls, forceCall{t0, t1, na})
	}
	return err
}

// chunk runs one integrator call and returns its op times in ms and
// its whole wall time.
func (c *clockedForcer) chunk(advance func() error) ([]float64, time.Duration, error) {
	c.marks, c.calls = c.marks[:0], c.calls[:0]
	if c.stepper != nil {
		c.base = c.stepper.Stats.BaseSteps
	}
	t0 := time.Now()
	if err := advance(); err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	if c.stepper != nil {
		c.marks = append(c.marks, t1)
	}
	ops := make([]float64, 0, len(c.marks))
	for j := 0; j+1 < len(c.marks); j++ {
		ops = append(ops, ms(c.marks[j+1].Sub(c.marks[j])))
	}
	return ops, t1.Sub(t0), nil
}

// forceErrors compares the system's current accelerations, and those
// of the bit-exact list engine, with direct summation over a seeded
// sample of particles. Each error is the RMS of the acceleration error
// relative to the RMS acceleration, as the treecode tests measure it.
func forceErrors(s *nbody.System, seed uint64) (got, list float64, err error) {
	n := s.N()
	mask := make([]bool, n)
	rng := rand.New(rand.NewPCG(seed, 0xf0cce))
	for _, i := range rng.Perm(n)[:min(forceSample, n)] {
		mask[i] = true
	}
	ref := cloneSystem(s)
	if err := (nbody.DirectForcer{}).ForcesActive(ref, mask); err != nil {
		return 0, 0, err
	}
	exact := cloneSystem(s)
	if err := (&treecode.Forcer{Theta: theta, Engine: treecode.EngineList}).Forces(exact); err != nil {
		return 0, 0, err
	}
	rms := func(a *nbody.System) float64 {
		var num, den float64
		for i, on := range mask {
			if !on {
				continue
			}
			dx, dy, dz := a.AX[i]-ref.AX[i], a.AY[i]-ref.AY[i], a.AZ[i]-ref.AZ[i]
			num += dx*dx + dy*dy + dz*dz
			den += ref.AX[i]*ref.AX[i] + ref.AY[i]*ref.AY[i] + ref.AZ[i]*ref.AZ[i]
		}
		return math.Sqrt(num / den)
	}
	return rms(s), rms(exact), nil
}

// checkForceError holds the default engine to its documented error
// budget: no worse than the exact walk's own error (with the treecode
// tests' 5% slack), and under an absolute ceiling.
func checkForceError(got, list float64) error {
	if got > 1.05*list {
		return fmt.Errorf("%g exceeds the list engine's %g by more than 5%%", got, list)
	}
	return bounded(got, maxForceErr)
}

func energy(s *nbody.System) float64 {
	k, p := s.Energy()
	return k + p
}

func bounded(v, limit float64) error {
	if !(v <= limit) {
		return fmt.Errorf("%g exceeds %g", v, limit)
	}
	return nil
}

// checkDeterminism integrates the workload's initial state for a few
// steps twice at full width and once on one worker: all three final
// states must be bit-identical.
func (c nbodyCase) checkDeterminism(cfg config, n int, out *outcome) {
	final := func(workers int) ([32]byte, error) {
		s := c.ic(n, cfg.seed)
		f := &treecode.Forcer{Theta: theta, Workers: workers}
		var st nbody.BlockStepper
		if err := c.advance(s, f, &st, c.gateSteps); err != nil {
			return [32]byte{}, err
		}
		return stateHash(s), nil
	}
	w := runtime.GOMAXPROCS(0)
	a, errA := final(w)
	b, errB := final(w)
	one, errOne := final(1)
	out.check("state_repeat", sameHash(a, errA, b, errB))
	out.check("state_one_worker", sameHash(a, errA, one, errOne))
}

func sameHash(a [32]byte, errA error, b [32]byte, errB error) error {
	switch {
	case errA != nil:
		return errA
	case errB != nil:
		return errB
	case a != b:
		return fmt.Errorf("final states differ: %x vs %x", a[:6], b[:6])
	}
	return nil
}

// stateHash digests every particle's position, velocity and
// acceleration bits.
func stateHash(s *nbody.System) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, a := range [][]float64{s.X, s.Y, s.Z, s.VX, s.VY, s.VZ, s.AX, s.AY, s.AZ} {
		for _, v := range a {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func cloneSystem(s *nbody.System) *nbody.System {
	c := *s
	for _, p := range []*[]float64{&c.X, &c.Y, &c.Z, &c.VX, &c.VY, &c.VZ, &c.AX, &c.AY, &c.AZ, &c.M} {
		*p = append([]float64(nil), *p...)
	}
	return &c
}

// walkParEff times the walk of one state at one worker and at full
// width: t1 / (width * tN), medians of five interleaved repetitions.
func walkParEff(s *nbody.System) (float64, error) {
	width := runtime.GOMAXPROCS(0)
	if width == 1 {
		return 1, nil
	}
	s = cloneSystem(s)
	var t1, tN []float64
	for range 5 {
		for _, workers := range []int{1, width} {
			f := &treecode.Forcer{Theta: theta, Workers: workers, Tracer: obs.NewTracer()}
			if err := f.Forces(s); err != nil {
				return 0, err
			}
			sp, err := spans(f.Tracer)
			if err != nil {
				return 0, err
			}
			walk := spanTotal(sp, "treecode", "forces")
			if workers == 1 {
				t1 = append(t1, walk)
			} else {
				tN = append(tN, walk)
			}
		}
	}
	return median(t1) / (float64(width) * median(tN)), nil
}

// reuseNodes reads the tree maintainer's cumulative reused-node count.
func reuseNodes() uint64 {
	snap := obs.NewSnapshot()
	snap.Gather(treecode.ListTelemetry())
	return snap.Counter("treecode.reuse.nodes_reused")
}
