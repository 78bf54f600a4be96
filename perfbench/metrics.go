package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// metricDef names one metric of BENCHMARK.json and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one; "op" is the workload's unit of work (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer the workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"treecode.build_ms", "ms"},
	{"treecode.walk_ms", "ms"},
	{"treecode.interactions", "count"},
	{"treecode.ns_per_interaction", "ns"},
	{"treecode.reuse_frac", "1"},
	{"treecode.walk_par_eff", "1"},
	{"nbody.integrate_ms", "ms"},
	{"nbody.force_calls", "count"},
	{"nbody.active_frac", "1"},
	{"cpu.calibrate_s", "s"},
	{"cms.calibrate_s", "s"},
	{"cpu.sim_mips", "MIPS"},
	{"cms.sim_mips", "MIPS"},
	{"cms.interp_frac", "1"},
	{"core.table1_s", "s"},
	{"core.table2_s", "s"},
	{"core.table3_s", "s"},
	{"core.table4_s", "s"},
	{"core.table5_s", "s"},
	{"core.topper_s", "s"},
	{"core.spacepower_s", "s"},
	{"mpi.messages", "count"},
	{"mpi.bytes", "bytes"},
	{"mpi.host_us_per_msg", "us"},
	{"serve.decode_hash_us", "us"},
	{"serve.doc_kb", "kB"},
	{"serve.run_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.hit_ratio", "1"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"runtime.gc_frac", "1"},
	{"runtime.alloc_mb", "MB"},
	{"trace_overhead_frac", "1"},
	{"unaccounted_frac", "1"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// quantile returns the q-quantile (nearest rank) of xs, and whether xs
// holds at least ten samples beyond it, the support a named percentile
// needs.
func quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i], len(s)-1-i >= 10
}

// median is the nearest-rank median, however few the samples.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetup runs setup reps times and returns the median wall time in
// seconds (setup_s); the last rep's state is the one the run keeps.
func timeSetup(reps int, setup func() error) (float64, error) {
	var ts []float64
	for range reps {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// runtimeStats are cumulative Go runtime counters.
type runtimeStats struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeStats{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
	}
}

// setRuntime records runtime.gc_frac and runtime.alloc_mb (per op)
// between two readings.
func (o *outcome) setRuntime(before, after runtimeStats, ops int) {
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		o.set("runtime.gc_frac", (after.gcCPU-before.gcCPU)/cpu)
	}
	if ops > 0 {
		o.set("runtime.alloc_mb", float64(after.allocBytes-before.allocBytes)/float64(ops)/1e6)
	}
}

// heapSampler tracks the peak of heap memory in use while it runs: the
// live heap each garbage collection marks, which unlike the heap's
// current size does not count garbage awaiting collection.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64 // since the start or the last lap
	max  uint64 // since the start
}

// startHeapSampler collects the set-up's garbage first, so the peak
// reflects the measured work.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.max = max(h.max, h.peak)
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// lapMB returns the peak in MB since the start or the last lap, and
// starts a new lap.
func (h *heapSampler) lapMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / 1e6
}

// peakMB stops the sampler, waits for it and returns the peak since
// the start in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.max) / 1e6
}
