package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/nbody"
	"repro/internal/serve"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// declared returns BENCHMARK.json's metrics of one mode as name → unit.
func (bj benchmarkJSON) declared(trace bool) map[string]string {
	m := map[string]string{}
	if trace {
		for _, d := range bj.PerLayer {
			m[d.Name] = d.Unit
		}
	} else {
		for _, d := range bj.EndToEnd {
			m[d.Name] = d.Unit
		}
	}
	return m
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		want := bj.declared(trace)
		if len(want) != len(defs) {
			t.Errorf("trace=%v: BENCHMARK.json declares %d metrics, the code %d", trace, len(want), len(defs))
		}
		for _, d := range defs {
			if u, ok := want[d.name]; !ok || u != d.unit {
				t.Errorf("trace=%v: %s [%s] declared as %q (present %v)", trace, d.name, d.unit, u, ok)
			}
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
}

// smoke runs a workload at a tiny size in both modes and checks that
// the result line carries every declared metric with its unit, that
// the run passed its checks, and that the layers the workload
// exercises read non-zero.
func smoke(t *testing.T, cfg config, layers []string) {
	t.Helper()
	bj := loadBenchmarkJSON(t)
	for _, trace := range []bool{false, true} {
		cfg.trace = trace
		out := newOutcome()
		if err := workloads[cfg.workload](cfg, out); err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		res, err := out.result(trace)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		var buf bytes.Buffer
		if err := printResult(&buf, cfg, out, res); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d, failures %v",
				trace, last.Correct, last.Attempted, last.Failed, out.failures)
		}
		want := bj.declared(trace)
		if len(last.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics emitted, %d declared", trace, len(last.Metrics), len(want))
		}
		for name, unit := range want {
			m, ok := last.Metrics[name]
			if !ok || m.Unit != unit {
				t.Errorf("trace=%v: %s emitted as %+v (present %v), want unit %q", trace, name, m, ok, unit)
			}
			if !trace && !(m.Value > 0) {
				t.Errorf("%s = %v, want > 0", name, m.Value)
			}
		}
		if trace {
			for _, name := range layers {
				if last.Metrics[name].Value == 0 {
					t.Errorf("layer metric %s reads 0", name)
				}
			}
		}
	}
}

func TestSmokeNbody(t *testing.T) {
	smoke(t, config{workload: "nbody", seed: 3, seconds: 0.2, particles: 2000}, []string{
		"treecode.build_ms", "treecode.walk_ms", "treecode.interactions",
		"treecode.ns_per_interaction", "treecode.walk_par_eff",
		"nbody.integrate_ms", "nbody.force_calls", "nbody.active_frac",
		"runtime.alloc_mb", "unaccounted_frac",
	})
}

func TestSmokeNbodyBlock(t *testing.T) {
	smoke(t, config{workload: "nbody-block", seed: 3, seconds: 0.2, particles: 2000}, []string{
		"treecode.build_ms", "treecode.walk_ms", "treecode.reuse_frac",
		"nbody.integrate_ms", "nbody.force_calls", "nbody.active_frac",
	})
}

func TestSmokePaper(t *testing.T) {
	// Two cheap tables, one of which calibrates, against values this
	// test captures itself; the full default regeneration takes tens of
	// seconds and is what the benchmark runs.
	steps := stepsNamed(t, "table5", "topper")
	golden, _, err := coldRegenerate(steps)
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, config{workload: "paper", seconds: 0.01, steps: steps, golden: golden}, []string{
		"cpu.calibrate_s", "cms.calibrate_s", "cpu.sim_mips", "cms.sim_mips", "cms.interp_frac",
		"core.table5_s", "core.topper_s",
	})
}

func TestSmokeGridd(t *testing.T) {
	smoke(t, config{workload: "gridd", seed: 3, seconds: 4}, []string{
		"mpi.messages", "mpi.bytes", "mpi.host_us_per_msg", "serve.decode_hash_us",
		"serve.doc_kb", "serve.run_ms", "serve.queue_ms", "serve.hit_ratio",
	})
}

func stepsNamed(t *testing.T, names ...string) []paperStep {
	t.Helper()
	var steps []paperStep
	for _, st := range paperSteps() {
		if slices.Contains(names, st.name) {
			steps = append(steps, st)
		}
	}
	if len(steps) != len(names) {
		t.Fatalf("steps %v not all found", names)
	}
	return steps
}

func TestGoldenFileCoversEveryStep(t *testing.T) {
	var golden paperValues
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, st := range paperSteps() {
		if len(golden[st.name]) == 0 {
			t.Errorf("golden file has no values for %s", st.name)
		}
	}
}

func TestGoldenCheckTrips(t *testing.T) {
	steps := stepsNamed(t, "table5")
	golden, _, err := coldRegenerate(steps)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameValues(golden["table5"], golden["table5"]); err != nil {
		t.Fatalf("golden check fails on its own values: %v", err)
	}
	corrupt := func(edit func(m map[string]float64)) paperValues {
		m := map[string]float64{}
		for k, v := range golden["table5"] {
			m[k] = v
		}
		edit(m)
		return paperValues{"table5": m}
	}
	cases := map[string]paperValues{
		"last bit": corrupt(func(m map[string]float64) {
			for k, v := range m {
				m[k] = math.Float64frombits(math.Float64bits(v) ^ 1)
				return
			}
		}),
		"missing value": corrupt(func(m map[string]float64) {
			for k := range m {
				delete(m, k)
				return
			}
		}),
		"extra value": corrupt(func(m map[string]float64) { m["extra"] = 1 }),
		"empty file":  {},
	}
	for name, bad := range cases {
		out := newOutcome()
		if err := runPaper(config{workload: "paper", seconds: 0.01, steps: steps, golden: bad}, out); err != nil {
			t.Fatal(err)
		}
		if res, _ := out.result(false); res.Correct || res.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d, want the golden check to trip", name, res.Correct, res.Failed)
		}
		for _, f := range out.failures {
			if !strings.HasPrefix(f, "golden/table5") {
				t.Errorf("%s: unexpected failure %s", name, f)
			}
		}
	}
}

func TestCalibrationSplitCheckTrips(t *testing.T) {
	// ToPPeR also calibrates the Pentium III; declaring only the TM5600
	// leaves a miss for the table pass.
	st := stepsNamed(t, "topper")[0]
	st.calib = func() ([]calibPair, error) { return treePairs(cpu.NewTM5600()), nil }
	golden, coldS, err := coldRegenerate([]paperStep{st})
	if err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	if err := paperLayers([]paperStep{st}, golden, coldS, out); err != nil {
		t.Fatal(err)
	}
	if len(out.failures) != 1 || !strings.HasPrefix(out.failures[0], "calibration_split") {
		t.Errorf("failures %v, want the calibration split check to trip", out.failures)
	}
}

func TestStateChecksTrip(t *testing.T) {
	s := nbody.NewPlummer(500, 1, 9)
	a := stateHash(s)
	if err := sameHash(a, nil, stateHash(s), nil); err != nil {
		t.Fatalf("identical states: %v", err)
	}
	s.X[123] = math.Float64frombits(math.Float64bits(s.X[123]) ^ 1)
	if sameHash(a, nil, stateHash(s), nil) == nil {
		t.Error("a one-bit perturbation of the state did not trip the hash check")
	}
	if checkForceError(0.0106, 0.01) == nil {
		t.Error("an engine 6% less accurate than the list engine passed")
	}
	if checkForceError(0.06, 0.06) == nil {
		t.Error("a force error beyond the ceiling passed")
	}
	if bounded(2*maxEnergyDrift, maxEnergyDrift) == nil || bounded(math.NaN(), maxEnergyDrift) == nil {
		t.Error("energy drift check passed a drift beyond its limit")
	}
}

func TestDeterminismCheckPasses(t *testing.T) {
	out := newOutcome()
	nbodyCase{ic: nbody.NewColdDisk, block: true, chunk: 1, gateSteps: 1}.checkDeterminism(config{seed: 4}, 1000, out)
	if len(out.failures) != 0 || out.attempted != 2 {
		t.Errorf("attempted %d, failures %v", out.attempted, out.failures)
	}
}

func TestGriddChecksTrip(t *testing.T) {
	doc := []byte(`{"kind":"naskernels","result":{"data":[{"kernel":"IS","verified":true}]}}`)
	if _, err := checkDoc(doc); err != nil {
		t.Fatalf("verified document: %v", err)
	}
	if _, err := checkDoc(bytes.Replace(doc, []byte("true"), []byte("false"), 1)); err == nil {
		t.Error("an unverified NAS row passed")
	}
	hit := &serve.Envelope{Cached: true, Doc: doc}
	if err := checkHit(hit, doc); err != nil {
		t.Fatalf("identical hit: %v", err)
	}
	flipped := bytes.Clone(doc)
	flipped[len(flipped)-3] ^= 1
	if checkHit(hit, flipped) == nil {
		t.Error("a hit differing by one byte passed")
	}
	if checkHit(&serve.Envelope{Doc: doc}, doc) == nil {
		t.Error("a repeat that missed the cache passed")
	}
}

func TestSpecStreamIsDistinctAndSeeded(t *testing.T) {
	a, b := newSpecStream(7), newSpecStream(7)
	seen := map[string]bool{}
	for range 600 {
		x, err := a.next()
		if err != nil {
			t.Fatal(err)
		}
		y, _ := b.next()
		if !bytes.Equal(x, y) {
			t.Fatalf("same seed, different streams: %s vs %s", x, y)
		}
		if seen[string(x)] {
			t.Fatalf("spec %s repeated", x)
		}
		seen[string(x)] = true
		spec, err := core.DecodeSpec(x)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := core.CanonicalSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := canon.Validate(); err != nil {
			t.Fatalf("%s: %v", x, err)
		}
	}
	c, d := newSpecStream(7), newSpecStream(8)
	same := 0
	for range 12 {
		x, _ := c.next()
		y, _ := d.next()
		if bytes.Equal(x, y) {
			same++
		}
	}
	if same == 12 {
		t.Error("different seeds give the same stream")
	}
}
