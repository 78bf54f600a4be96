// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, checks the program's outputs, and
// prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload nbody --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	nbody        uniform leapfrog on a Plummer sphere (treecode, nbody)
//	nbody-block  block timesteps on a cold disk (treecode, nbody)
//	paper        every table of the paper from an empty calibration memo
//	             (cpu, cms, core, nas, mpi)
//	gridd        an in-process experiment gateway under two closed-loop
//	             clients (serve, mpi, netsim)
//
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// The line before it is a JSON report: the host facts, the seed, every
// named figure of the workload with its unit, and any failed check. A
// failed check makes the run print "correct": false and exit with
// status 1. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload runs one workload and records its metrics and checks.
type workload func(cfg config, out *outcome) error

var workloads = map[string]workload{
	"nbody":       runNbody,
	"nbody-block": runNbodyBlock,
	"paper":       runPaper,
	"gridd":       runGridd,
}

// config is one invocation's settings. The sizes default to the
// benchmark's; tests shrink them.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// particles sizes the nbody workloads (0 = 20000).
	particles int
	// steps lists the paper steps to regenerate (nil = all).
	steps []paperStep
	// golden holds the paper's expected values (nil = the embedded file).
	golden paperValues
}

func (c config) measure() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates a run's checks, the metrics of its mode and the
// report of named figures.
type outcome struct {
	attempted int
	failures  []string
	metrics   map[string]metric
	report    map[string]metric
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, report: map[string]metric{}}
}

// op counts n attempted operations that completed.
func (o *outcome) op(n int) { o.attempted += n }

// check records one attempted check; a non-nil err counts it failed.
func (o *outcome) check(name string, err error) {
	o.attempted++
	if err != nil {
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

func (o *outcome) set(name string, v float64) {
	o.metrics[name] = metric{v, unitOf(name)}
}

func (o *outcome) note(name, unit string, v float64) {
	o.report[name] = metric{v, unit}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result fills every metric of the mode from the outcome. A metric the
// run did not set reads 0: the workload does not exercise that layer.
// An unset end-to-end metric is a benchmark bug.
func (o *outcome) result(trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(o.failures) == 0,
		Attempted: o.attempted,
		Failed:    len(o.failures),
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		m, ok := o.metrics[d.name]
		if !ok && !trace {
			return res, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metric{m.Value, d.unit}
	}
	if res.Attempted == 0 {
		return res, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: nbody, nbody-block, paper or gridd")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: inputs derive from it")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "0 prints end-to-end metrics, 1 the per-layer metrics of a traced run")
	goldenOut := flag.String("write-golden", "", "regenerate the paper's golden values into this `file` and exit")
	flag.Parse()
	cfg.trace = trace == 1

	if *goldenOut != "" {
		if err := writeGolden(*goldenOut); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	out := newOutcome()
	if err := run(cfg, out); err != nil {
		fatal(err)
	}
	res, err := out.result(cfg.trace)
	if err != nil {
		fatal(err)
	}
	if err := printResult(os.Stdout, cfg, out, res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// printResult writes the report line and then the result line.
func printResult(w io.Writer, cfg config, out *outcome, res result) error {
	sort.Strings(out.failures)
	report := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"host":     hostFacts(),
		"figures":  out.report,
		"failures": out.failures,
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(report); err != nil {
		return err
	}
	return enc.Encode(res)
}

// hostFacts identifies the machine so two result sets can be compared.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

// cpuModel returns the "model name" line of /proc/cpuinfo, or
// "unknown".
func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
