package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/nas"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/treecode"
)

// The paper workload regenerates every table of the paper with the
// default configurations (Table 3 at NPB class S), starting from an
// empty calibration memo as every metablade run does. An op is one
// whole regeneration, and a run holds one.

// paperValues are a regeneration's simulated values: step name → value
// name → value. They must match the golden file bit for bit.
type paperValues map[string]map[string]float64

//go:embed golden/paper.json
var goldenJSON []byte

// calibPair is one processor model calibrated at one miss rate.
type calibPair struct {
	proc cpu.Processor
	miss float64
}

// paperStep is one table: the calibrations it needs and how to run it.
// Its per-layer metric is core.<name>_s.
type paperStep struct {
	name  string
	calib func() ([]calibPair, error)
	run   func(r *core.Run) (map[string]float64, error)
}

// treePairs pairs each processor with the treecode's miss rate.
func treePairs(procs ...cpu.Processor) []calibPair {
	var ps []calibPair
	for _, p := range procs {
		ps = append(ps, calibPair{p, cpu.MissRateTree})
	}
	return ps
}

func noCalib() ([]calibPair, error) { return nil, nil }

func paperSteps() []paperStep {
	return []paperStep{
		{"table1", noCalib, func(r *core.Run) (map[string]float64, error) {
			rows, _, err := r.Table1()
			v := map[string]float64{}
			for _, row := range rows {
				v[row.Processor+"/math_mflops"] = row.MathMflops
				v[row.Processor+"/karp_mflops"] = row.KarpMflops
			}
			return v, err
		}},
		{"table2", func() ([]calibPair, error) { return treePairs(cpu.NewTM5600()), nil },
			func(r *core.Run) (map[string]float64, error) {
				rows, _, err := r.Table2(core.DefaultTable2Config())
				v := map[string]float64{}
				for _, row := range rows {
					v[fmt.Sprintf("p%02d/time_sec", row.CPUs)] = row.TimeSec
					v[fmt.Sprintf("p%02d/speedup", row.CPUs)] = row.Speedup
				}
				return v, err
			}},
		{"table3", func() ([]calibPair, error) {
			var ps []calibPair
			for _, p := range cpu.NASCPUs() {
				ps = append(ps, calibPair{p, cpu.MissRateClassW})
			}
			return ps, nil
		}, func(r *core.Run) (map[string]float64, error) {
			d, _, err := r.Table3(nas.ClassS)
			if err != nil {
				return nil, err
			}
			v := map[string]float64{}
			for k, kernel := range d.Kernels {
				for p, proc := range d.Processors {
					v[kernel+"/"+proc+"/mops"] = d.Mops[k][p]
				}
				v[kernel+"/verified"] = b2f(d.Verified[k])
			}
			return v, nil
		}},
		{"table4", func() ([]calibPair, error) {
			ms, err := core.Registry()
			var procs []cpu.Processor
			for _, m := range ms {
				procs = append(procs, m.CPU)
			}
			return treePairs(procs...), err
		}, func(r *core.Run) (map[string]float64, error) {
			rows, _, err := r.Table4()
			v := map[string]float64{}
			for _, row := range rows {
				v[row.Machine+"/gflop"] = row.Gflop
				v[row.Machine+"/mflop_per_proc"] = row.MflopPerProc
			}
			return v, err
		}},
		{"table5", noCalib, func(r *core.Run) (map[string]float64, error) {
			rows, _, err := r.Table5()
			v := map[string]float64{}
			for _, row := range rows {
				b := row.B
				v[row.Name+"/acquisition"] = b.Acquisition
				v[row.Name+"/sysadmin"] = b.SysAdmin
				v[row.Name+"/power_cooling"] = b.PowerCooling
				v[row.Name+"/space"] = b.Space
				v[row.Name+"/downtime"] = b.Downtime
				v[row.Name+"/tco"] = b.TCO()
			}
			return v, err
		}},
		{"topper", func() ([]calibPair, error) {
			return treePairs(cpu.PentiumIII500().AsProcessor(), cpu.NewTM5600()), nil
		}, func(r *core.Run) (map[string]float64, error) {
			s, err := r.ToPPeR()
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"trad_topper":      s.TradToPPeR,
				"blade_topper":     s.BladeToPPeR,
				"trad_priceperf":   s.TradPricePerf,
				"blade_priceperf":  s.BladePricePerf,
				"topper_advantage": s.ToPPeRAdvantage,
				"priceperf_ratio":  s.PricePerfRatio,
			}, nil
		}},
		{"spacepower", func() ([]calibPair, error) {
			return treePairs(cpu.AlphaEV56_533().AsProcessor(), cpu.NewTM5600(), cpu.NewTM5800()), nil
		}, func(r *core.Run) (map[string]float64, error) {
			rows, _, _, err := r.SpacePower()
			v := map[string]float64{}
			for _, row := range rows {
				v[row.Machine+"/gflop"] = row.Gflop
				v[row.Machine+"/area_sqft"] = row.AreaSqFt
				v[row.Machine+"/power_kw"] = row.PowerKW
				v[row.Machine+"/perf_space"] = row.PerfSpace
				v[row.Machine+"/perf_power"] = row.PerfPower
			}
			return v, err
		}},
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// regenerate runs the steps on one Run, timing each.
func regenerate(steps []paperStep, tracer *obs.Tracer) (paperValues, []float64, *core.Run, error) {
	r := core.NewRun()
	r.Tracer = tracer
	vals := paperValues{}
	var secs []float64
	for _, st := range steps {
		t0 := time.Now()
		v, err := st.run(r)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", st.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		vals[st.name] = v
	}
	return vals, secs, r, nil
}

// coldRegenerate empties the calibration memo and regenerates, so the
// run pays every calibration.
func coldRegenerate(steps []paperStep) (paperValues, float64, error) {
	cpu.ResetCalibCache()
	t0 := time.Now()
	vals, _, _, err := regenerate(steps, nil)
	return vals, time.Since(t0).Seconds(), err
}

// checkGolden compares every step's values with the golden ones, bit
// for bit; one check per step.
func checkGolden(out *outcome, steps []paperStep, got, golden paperValues) {
	for _, st := range steps {
		out.check("golden/"+st.name, sameValues(got[st.name], golden[st.name]))
	}
}

func sameValues(got, want map[string]float64) error {
	if len(want) == 0 {
		return fmt.Errorf("no golden values")
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("%s missing", k)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("%s = %v, golden %v", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("%s not in the golden file", k)
		}
	}
	return nil
}

func runPaper(cfg config, out *outcome) error {
	steps := cfg.steps
	if steps == nil {
		steps = paperSteps()
	}
	golden := cfg.golden
	// Set-up: read the golden values, build the machine registry and
	// make the first treecode force call on Table 4's input.
	setup, err := timeSetup(9, func() error {
		if cfg.golden == nil {
			golden = paperValues{}
			if err := json.Unmarshal(goldenJSON, &golden); err != nil {
				return fmt.Errorf("golden file: %w", err)
			}
		}
		if _, err := core.Registry(); err != nil {
			return err
		}
		return (&treecode.Forcer{Theta: theta}).Forces(nbody.NewPlummer(core.Table4Particles, 1, 1997))
	})
	if err != nil {
		return err
	}
	out.note("setup_s", "s", setup)

	// One regeneration takes far longer than the measurement window, so
	// a run holds exactly one, whatever --seconds says.
	heap := startHeapSampler()
	rt0 := readRuntime()
	vals, paperS, err := coldRegenerate(steps)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	heapMB := heap.peakMB()
	out.op(1)
	checkGolden(out, steps, vals, golden)
	out.note("paper_s", "s", paperS)
	out.note("heap_peak_mb", "MB", heapMB)
	if !cfg.trace {
		out.set("setup_s", setup)
		out.set("op_ms", paperS*1000)
		out.set("ops_per_s", 1/paperS)
		out.set("heap_peak_mb", heapMB)
		return nil
	}
	out.setRuntime(rt0, rt1, 1)
	return paperLayers(steps, golden, paperS, out)
}

// paperLayers splits a regeneration: it calibrates every pair the
// steps need on an empty memo, then runs the steps on the warm memo
// untraced, traced and untraced again. The table passes must add no
// memo miss, or the calibration times would be incomplete.
func paperLayers(steps []paperStep, golden paperValues, coldS float64, out *outcome) error {
	cpu.ResetCalibCache()
	var hwS, cmsS float64
	for _, st := range steps {
		pairs, err := st.calib()
		if err != nil {
			return err
		}
		for _, p := range pairs {
			_, miss0 := cpu.CalibCacheCounters()
			t0 := time.Now()
			if _, err := cpu.CalibrateFor(p.proc, p.miss); err != nil {
				return err
			}
			dt := time.Since(t0).Seconds()
			if _, miss1 := cpu.CalibCacheCounters(); miss1 == miss0 {
				continue
			}
			if _, crusoe := p.proc.(*cpu.Crusoe); crusoe {
				cmsS += dt
			} else {
				hwS += dt
			}
		}
	}
	out.set("cpu.calibrate_s", hwS)
	out.set("cms.calibrate_s", cmsS)

	// The untraced passes bracket the traced one, so the heap's growth
	// over the first pass weighs on both sides of the overhead alike.
	_, miss0 := cpu.CalibCacheCounters()
	_, plain1, _, err := regenerate(steps, nil)
	if err != nil {
		return err
	}
	vals, traced, r, err := regenerate(steps, obs.NewTracer())
	if err != nil {
		return err
	}
	_, plain2, _, err := regenerate(steps, nil)
	if err != nil {
		return err
	}
	checkGolden(out, steps, vals, golden)
	_, miss1 := cpu.CalibCacheCounters()
	var split error
	if miss1 != miss0 {
		split = fmt.Errorf("the warm table passes missed the memo %d times", miss1-miss0)
	}
	out.check("calibration_split", split)

	for i, st := range steps {
		out.set("core."+st.name+"_s", traced[i])
	}
	if i := slices.IndexFunc(steps, func(s paperStep) bool { return s.name == "table2" }); i >= 0 {
		worlds := float64(len(core.DefaultTable2Config().CPUCounts))
		out.set("mpi.messages", float64(r.Snap.Counter("mpi.messages.total"))/worlds)
		out.set("mpi.bytes", float64(r.Snap.Counter("mpi.bytes.total"))/worlds)
	}
	plain := (sum(plain1) + sum(plain2)) / 2
	out.set("trace_overhead_frac", sum(traced)/plain-1)
	out.set("unaccounted_frac", 1-(hwS+cmsS+plain)/coldS)
	return simMIPS(out)
}

// simMIPS times Processor.RunKernel on Table 1's microkernels: guest
// instructions per host second, for the hardware models and the
// Crusoe, and the Crusoe's interpreted share of instructions.
func simMIPS(out *outcome) error {
	var hwInstrs, cmsInstrs, interp uint64
	var hwS, cmsS float64
	for _, p := range cpu.EvaluationCPUs() {
		for _, variant := range []kernels.GravVariant{kernels.GravMath, kernels.GravKarp} {
			prog, st, err := kernels.DefaultGravMicro(variant).Build()
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := p.RunKernel(prog, st)
			if err != nil {
				return err
			}
			dt := time.Since(t0).Seconds()
			if res.CMS != nil {
				cmsInstrs += res.Trace.Instrs
				interp += res.CMS.InterpInstrs
				cmsS += dt
			} else {
				hwInstrs += res.Trace.Instrs
				hwS += dt
			}
		}
	}
	out.set("cpu.sim_mips", float64(hwInstrs)/hwS/1e6)
	out.set("cms.sim_mips", float64(cmsInstrs)/cmsS/1e6)
	out.set("cms.interp_frac", float64(interp)/float64(cmsInstrs))
	return nil
}

// writeGolden regenerates every table and writes the values as the
// golden file.
func writeGolden(path string) error {
	vals, _, err := coldRegenerate(paperSteps())
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(vals, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
