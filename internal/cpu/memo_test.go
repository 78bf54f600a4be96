package cpu

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/par"
)

// TestCalibrateForMemoized asserts the second calibration of the same
// (processor, miss rate) pair hits the process-wide cache and returns
// the identical cost table.
func TestCalibrateForMemoized(t *testing.T) {
	ResetCalibCache()
	p := PentiumIII500().AsProcessor()
	first, err := CalibrateFor(p, 0.0123)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := CalibCacheCounters()
	if hits0 != 0 || misses0 != 1 {
		t.Fatalf("after first call: hits=%d misses=%d, want 0/1", hits0, misses0)
	}
	second, err := CalibrateFor(p, 0.0123)
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := CalibCacheCounters()
	if hits1 != 1 || misses1 != 1 {
		t.Fatalf("after second call: hits=%d misses=%d, want 1/1", hits1, misses1)
	}
	if first != second {
		t.Fatalf("memoized costs differ: %+v vs %+v", first, second)
	}
	// A different miss rate is a different cache line.
	if _, err := CalibrateFor(p, 0.0456); err != nil {
		t.Fatal(err)
	}
	if _, misses := CalibCacheCounters(); misses != 2 {
		t.Fatalf("different miss rate should miss; misses=%d, want 2", misses)
	}
	ResetCalibCache()
}

// TestCalibrateForConcurrent hammers the memo from concurrent goroutines
// (run under -race in CI): the calibration must run exactly once and
// every caller must observe the same result.
func TestCalibrateForConcurrent(t *testing.T) {
	ResetCalibCache()
	p := AthlonMP1200().AsProcessor()
	const goroutines = 16
	results := make([]EffCosts, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = CalibrateFor(p, 0.0789)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("goroutine %d observed different costs", i)
		}
	}
	hits, misses := CalibCacheCounters()
	if misses != 1 {
		t.Fatalf("concurrent hammer ran calibration %d times, want 1", misses)
	}
	if hits != goroutines-1 {
		t.Fatalf("hits=%d, want %d", hits, goroutines-1)
	}
	ResetCalibCache()
}

// TestCalibrateForUncachedBypassesMemo asserts the ablation bypass never
// touches the cache.
func TestCalibrateForUncachedBypassesMemo(t *testing.T) {
	ResetCalibCache()
	p := PentiumIII500().AsProcessor()
	if _, err := CalibrateForUncached(p, 0.0111); err != nil {
		t.Fatal(err)
	}
	if hits, misses := CalibCacheCounters(); hits != 0 || misses != 0 {
		t.Fatalf("bypass touched the memo: hits=%d misses=%d", hits, misses)
	}
}

// TestCrusoeWarmStart asserts cold-cache stays the default (every
// RunKernel pays translation again) while WarmStart reuses the
// translation cache, runs faster from the second kernel on, and the
// difference is visible in the CMS statistics.
func TestCrusoeWarmStart(t *testing.T) {
	k := kernels.CalibKernels()[0]
	run := func(c *Crusoe) float64 {
		prog, st, err := k.Build(2000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunKernel(prog, st)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}

	cold := NewTM5600()
	c1 := run(cold)
	c2 := run(cold)
	if c1 != c2 {
		t.Fatalf("cold-cache default should repeat identically: %v vs %v", c1, c2)
	}
	if st := cold.WarmStats(); st.Runs != 0 {
		t.Fatalf("cold default touched the warm machine: %+v", st)
	}

	warm := NewTM5600()
	warm.WarmStart = true
	w1 := run(warm)
	if w1 != c1 {
		t.Fatalf("first warm-start run should match a cold run: %v vs %v", w1, c1)
	}
	w2 := run(warm)
	if w2 >= w1 {
		t.Fatalf("second warm run should be cheaper: first %v, second %v", w1, w2)
	}
	st := warm.WarmStats()
	if st.Runs != 2 || st.WarmRuns != 1 {
		t.Fatalf("warm stats Runs=%d WarmRuns=%d, want 2/1", st.Runs, st.WarmRuns)
	}
	if st.Translations == 0 {
		t.Fatalf("expected translations in warm stats: %+v", st)
	}
}

// TestCalibrateForWarmThenCold asserts a warm-start Crusoe has its own
// memo identity: calibrating one first must not hand its costs to a
// later cold calibration of the same model.
func TestCalibrateForWarmThenCold(t *testing.T) {
	ResetCalibCache()
	defer ResetCalibCache()
	warm := NewTM5600()
	warm.WarmStart = true
	warmCosts, err := CalibrateFor(warm, MissRateTree)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := CalibrateFor(NewTM5600(), MissRateTree)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CalibrateForUncached(NewTM5600(), MissRateTree)
	if err != nil {
		t.Fatal(err)
	}
	if cold != want {
		t.Fatalf("cold costs after a warm calibration: %v, want %v", cold.Cost, want.Cost)
	}
	if warmCosts == cold {
		t.Fatalf("warm and cold calibrations agree; the test no longer separates them")
	}
	if _, misses := CalibCacheCounters(); misses != 2 {
		t.Fatalf("misses=%d, want 2 (one per memo identity)", misses)
	}
}

// TestCalibrateDeterministicAcrossWorkers asserts the parallel
// calibration gives bit-identical costs at any pool width, for every
// preset and both Crusoe models with gears off and on.
func TestCalibrateDeterministicAcrossWorkers(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var procs []Processor
	for _, a := range allArchs() {
		procs = append(procs, a.AsProcessor())
	}
	for _, gears := range []bool{false, true} {
		for _, c := range []*Crusoe{NewTM5600(), NewTM5800()} {
			c.Gears = gears
			procs = append(procs, c)
		}
	}
	if raceDetector {
		// The race detector checks how the pool shares the cost slots,
		// which every processor exercises alike; at its slowdown the
		// full list takes minutes, so it checks an out-of-order core,
		// an in-order core and a Crusoe. The plain build checks all.
		procs = []Processor{PentiumIII500().AsProcessor(), Alpha21064_150().AsProcessor(), NewTM5600()}
	}
	for _, p := range procs {
		var first EffCosts
		for i, w := range []int{1, 2, 8} {
			par.SetWorkers(w)
			got, err := CalibrateForUncached(p, MissRateTree)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s: costs at %d workers %v, at 1 worker %v", p.Name(), w, got.Cost, first.Cost)
			}
		}
	}
}

// TestCalibrationPathsRecordedOnce checks the recorded calibration
// paths: each kernel's is a handful of runs, equals a fresh recording of
// the kernel (whose execution matches isa.Run exactly), timing it gives
// Arch.Run's cycles, and ResetCalibCache drops every path with the memo.
func TestCalibrationPathsRecordedOnce(t *testing.T) {
	ResetCalibCache()
	a := PentiumIII500()
	if _, err := CalibrateFor(a.AsProcessor(), MissRateTree); err != nil {
		t.Fatal(err)
	}
	for _, k := range kernels.CalibKernels() {
		v, ok := calibPaths.Load(k.Name)
		if !ok {
			t.Fatalf("%s: no recorded path", k.Name)
		}
		cp, err := v.(func() (calibPath, error))()
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.path) > 8 {
			t.Errorf("%s: %d runs, want at most 8", k.Name, len(cp.path))
		}
		prog, st, err := k.Build(CalibIters)
		if err != nil {
			t.Fatal(err)
		}
		ref := st.Clone()
		var tr, refTr isa.Trace
		path, err := isa.RecordPath(prog, st, &tr, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := isa.Run(prog, ref, &refTr, 0); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(path, cp.path) || tr != refTr || !st.Equal(ref) {
			t.Fatalf("%s: recorded path or its execution differs", k.Name)
		}
		cycles, err := a.calibCycles(k)
		if err != nil {
			t.Fatal(err)
		}
		prog, st, _ = k.Build(CalibIters)
		res, err := a.Run(prog, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cycles != res.Cycles {
			t.Fatalf("%s: recorded path times to %v cycles, Run %v", k.Name, cycles, res.Cycles)
		}
	}
	ResetCalibCache()
	calibPaths.Range(func(k, _ any) bool {
		t.Errorf("ResetCalibCache kept the recorded path of %v", k)
		return true
	})
}
