package core

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/nas"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/treecode"
)

// Run is one instrumented experiment session: a Snapshot accumulating
// every table's metrics and an optional Tracer recording phase spans.
// The TableN methods record into both as they execute; a nil Tracer
// disables tracing (all tracer methods are nil-safe) and the Snapshot is
// always live. Drivers normally obtain a Run from Driver.Setup, which
// also stamps the meta and wires the -trace flag.
//
// The zero Run is not usable; construct with NewRun.
type Run struct {
	// Snap accumulates counters, timers and gauges from every
	// experiment executed on this Run.
	Snap *obs.Snapshot
	// Tracer, when non-nil, receives phase spans in the three time
	// domains (obs.PidHost, obs.PidCMS, obs.PidSim).
	Tracer *obs.Tracer

	// treecode holds the treecode force counts measured on this Run,
	// by particle count (see treecodeRate).
	treecodeMu sync.Mutex
	treecode   map[int]treecode.Stats
}

// NewRun returns a Run with a fresh snapshot and no tracer.
func NewRun() *Run {
	return &Run{Snap: obs.NewSnapshot(), treecode: map[int]treecode.Stats{}}
}

// gather folds sources into the run's snapshot, skipping nils.
func (r *Run) gather(srcs ...obs.Source) {
	r.Snap.Gather(srcs...)
}

// The package-level experiment functions predate Run and remain as thin
// wrappers over a throwaway Run, for callers that only want the rows and
// rendered tables.

// Table1 runs the gravitational microkernel comparison on a fresh Run.
func Table1() ([]Table1Row, *metrics.Table, error) { return NewRun().Table1() }

// Table2 runs the MetaBlade scalability sweep on a fresh Run.
func Table2(cfg Table2Config) ([]Table2Row, *metrics.Table, error) { return NewRun().Table2(cfg) }

// Table3 runs the NPB kernel grid on a fresh Run.
func Table3(class nas.Class) (*Table3Data, *metrics.Table, error) { return NewRun().Table3(class) }

// Table4 rates the historical machines on a fresh Run.
func Table4() ([]Table4Row, *metrics.Table, error) { return NewRun().Table4() }

// Table5 computes the cost-of-ownership table on a fresh Run.
func Table5() ([]Table5Row, *metrics.Table, error) { return NewRun().Table5() }

// ToPPeR computes the §4.1 comparison on a fresh Run.
func ToPPeR() (*ToPPeRSummary, error) { return NewRun().ToPPeR() }

// SpacePower computes Tables 6 and 7 on a fresh Run.
func SpacePower() ([]SpacePowerRow, *metrics.Table, *metrics.Table, error) {
	return NewRun().SpacePower()
}

// Figure3 runs the collapse rendering on a fresh Run.
func Figure3(cfg Figure3Config) (*nbody.DensityImage, *nbody.System, error) {
	return NewRun().Figure3(cfg)
}
