package cpu

import (
	"sync"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// Calibration is deterministic for a given processor model and miss
// rate, yet every benchmark table, driver and example used to re-run the
// full per-class kernel simulations (eight kernels × 200k iterations of
// CMS+VLIW for the Crusoe) at each call site. This file memoizes
// CalibrateFor process-wide.
//
// The memo key is (processor name, clock, warm start, miss rate): a
// processor's name and clock identify its timing model everywhere in
// this repo, and a warm-start Crusoe calibrates to different costs than
// a cold one of the same name. Callers who mutate a model's parameters
// without renaming it must use CalibrateForUncached (the ablation
// bypass) or ResetCalibCache.

type calibKey struct {
	name      string
	clockMHz  float64
	warmStart bool
	missRate  float64
}

type calibEntry struct {
	once  sync.Once
	costs EffCosts
	err   error
}

// The hit/miss counters live in an obs registry; CalibCacheCounters
// remains as a thin view over it.
var (
	calibMemo   sync.Map // calibKey -> *calibEntry
	calibReg    = obs.NewRegistry()
	calibHits   = calibReg.Counter("cpu.calib.memo.hits", "", "CalibrateFor calls served from the process-wide memo")
	calibMisses = calibReg.Counter("cpu.calib.memo.misses", "", "CalibrateFor calls that ran the full calibration")
)

// CalibMemoSource returns the obs source for the calibration memo's
// process-wide hit/miss counters (live cumulative semantics).
func CalibMemoSource() obs.Source { return calibReg }

// CalibrateFor is the memoized form of CalibrateForUncached: the first
// call for a (processor, miss rate) pair runs the full calibration
// simulations; concurrent and subsequent calls for the same pair share
// that one run. Safe for concurrent use.
func CalibrateFor(p Processor, missRate float64) (EffCosts, error) {
	key := calibKey{name: p.Name(), clockMHz: p.ClockMHz(), missRate: missRate}
	if c, ok := p.(*Crusoe); ok {
		key.warmStart = c.WarmStart
	}
	v, _ := calibMemo.LoadOrStore(key, &calibEntry{})
	e := v.(*calibEntry)
	first := false
	e.once.Do(func() {
		first = true
		e.costs, e.err = CalibrateForUncached(p, missRate)
	})
	if first {
		calibMisses.Inc()
	} else {
		calibHits.Inc()
	}
	return e.costs, e.err
}

// CalibCacheCounters reports the process-wide memo hit and miss counts
// (a call that waited on another goroutine's in-flight calibration
// counts as a hit).
func CalibCacheCounters() (hits, misses uint64) {
	return calibHits.Value(), calibMisses.Value()
}

// calibPaths holds each calibration kernel's recorded path (isa
// semantics, CalibIters iterations), by kernel name. A path does not
// depend on the processor that times it: the first hardware calibration
// records it and every hardware model replays it.
var calibPaths sync.Map // kernel name -> func() (calibPath, error)

type calibPath struct {
	prog isa.Program
	path []isa.Block
}

// calibCycles times a calibration kernel's recorded path on the core,
// recording the path on first use: the cycles Run reports for the
// kernel. Safe for concurrent use.
func (a *Arch) calibCycles(k kernels.CalibKernel) (float64, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	v, _ := calibPaths.LoadOrStore(k.Name, sync.OnceValues(func() (calibPath, error) {
		prog, st, err := k.Build(CalibIters)
		if err != nil {
			return calibPath{}, err
		}
		path, err := isa.RecordPath(prog, st, nil, 0, nil)
		return calibPath{prog, path}, err
	}))
	cp, err := v.(func() (calibPath, error))()
	if err != nil {
		return 0, err
	}
	return a.timePath(cp.prog, cp.path), nil
}

// ResetCalibCache drops every memoized calibration and recorded
// calibration path and zeroes the counters, for tests and ablations.
func ResetCalibCache() {
	for _, m := range []*sync.Map{&calibMemo, &calibPaths} {
		m.Range(func(k, _ any) bool {
			m.Delete(k)
			return true
		})
	}
	calibHits.Reset()
	calibMisses.Reset()
}
