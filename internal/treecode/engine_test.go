package treecode

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nbody"
)

// sweepRecursive evaluates forces for every particle with the exact
// walk, returning packed accelerations and stats.
func sweepRecursive(tr *Tree, s *nbody.System, theta float64) ([]float64, Stats) {
	var st Stats
	out := make([]float64, 3*s.N())
	for i := 0; i < s.N(); i++ {
		ax, ay, az := tr.ForceAt(s.X[i], s.Y[i], s.Z[i], i, theta, s.Eps, &st)
		out[3*i], out[3*i+1], out[3*i+2] = ax, ay, az
	}
	return out, st
}

func bitsEqual(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// goldenForceAtDigest is the SHA-256 of every acceleration bit pattern
// and interaction count TestForceAtGoldenBits produces; a change here
// means the exact engine's results moved, and with them every cached
// result of a recursive-engine spec.
const goldenForceAtDigest = "2d57b0e4495e1863849d5cc53a09e05213482f31de6a533f9444130d79f33a95"

// TestForceAtGoldenBits pins the exact engine across theta, eps,
// quadrupole and bucket sizes: accelerations are hashed by their bit
// patterns together with the Stats, so any reordering of float
// additions or change in the acceptance logic fails here.
func TestForceAtGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are recorded on amd64; other GOARCHes may fuse multiply-adds")
	}
	s := nbody.NewPlummer(2000, 1, 7)
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, quad := range []bool{false, true} {
		for _, bucket := range []int{1, 8, 16} {
			tr := buildFromSystem(t, s, BuildOptions{Bucket: bucket, Quadrupole: quad})
			for _, theta := range []float64{0.3, 0.7, 1.0} {
				for _, eps := range []float64{0, 0.05} {
					sys := *s
					sys.Eps = eps
					acc, st := sweepRecursive(tr, &sys, theta)
					if st.PP == 0 || st.PC == 0 {
						t.Fatalf("quad=%v bucket=%d theta=%g eps=%g: degenerate sweep %+v", quad, bucket, theta, eps, st)
					}
					for _, a := range acc {
						put(math.Float64bits(a))
					}
					put(st.PP)
					put(st.PC)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenForceAtDigest {
		t.Fatalf("ForceAt digest %s, golden %s", got, goldenForceAtDigest)
	}
}

// forcerAccels runs one Forces call and returns the acceleration
// arrays and the call's stats.
func forcerAccels(t *testing.T, f *Forcer, n int) ([]float64, Stats) {
	t.Helper()
	s := nbody.NewPlummer(n, 1, 99)
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 0, 3*n)
	for i := 0; i < n; i++ {
		out = append(out, s.AX[i], s.AY[i], s.AZ[i])
	}
	return out, f.LastStats
}

// TestForcerEnginesBitIdentical: every spelling of the exact engine —
// EngineRecursive, EngineAuto under a sub-1 error budget, and the
// deprecated EngineList — must make the Forcer's chunked parallel loop
// reproduce a plain serial ForceAt sweep bit for bit, with the same
// Stats, at one worker and at four.
func TestForcerEnginesBitIdentical(t *testing.T) {
	const n = 3000
	s := nbody.NewPlummer(n, 1, 99)
	ref, refSt := sweepRecursive(buildFromSystem(t, s, BuildOptions{}), s, 0.7)
	for _, w := range []int{1, 4} {
		for _, f := range []*Forcer{
			{Theta: 0.7, Engine: EngineRecursive, Workers: w},
			{Theta: 0.7, ErrorBudget: 0.5, Workers: w},
			{Theta: 0.7, Engine: EngineList, Workers: w},
		} {
			got, gotSt := forcerAccels(t, f, n)
			if i := bitsEqual(ref, got); i >= 0 {
				t.Fatalf("engine=%v budget=%g workers=%d: component %d differs from the ForceAt sweep", f.Engine, f.ErrorBudget, w, i)
			}
			if refSt != gotSt {
				t.Fatalf("engine=%v budget=%g workers=%d: stats differ: %+v vs %+v", f.Engine, f.ErrorBudget, w, refSt, gotSt)
			}
		}
	}
}

// TestRecursiveWorkersBitIdentical is the par-pool determinism contract
// for the exact engine: workers 1, 2 and 8 must produce bit-identical
// accelerations and identical Stats{PP,PC}, with monopoles and with
// quadrupoles. CI runs this under -race, so it also proves the
// per-chunk counters never share.
func TestRecursiveWorkersBitIdentical(t *testing.T) {
	const n = 6000
	for _, quad := range []bool{false, true} {
		ref, refSt := forcerAccels(t, &Forcer{Theta: 0.7, Quadrupole: quad, Engine: EngineRecursive, Workers: 1}, n)
		for _, w := range []int{2, 8} {
			got, gotSt := forcerAccels(t, &Forcer{Theta: 0.7, Quadrupole: quad, Engine: EngineRecursive, Workers: w}, n)
			if i := bitsEqual(ref, got); i >= 0 {
				t.Fatalf("quad=%v workers=%d: component %d differs from serial", quad, w, i)
			}
			if refSt != gotSt {
				t.Fatalf("quad=%v workers=%d: stats differ: %+v vs %+v", quad, w, refSt, gotSt)
			}
		}
	}
}

// rmsError returns the RMS acceleration error of f against direct
// summation over every particle.
func rmsError(s *nbody.System, acc []float64) float64 {
	n := s.N()
	var num, den float64
	for i := 0; i < n; i++ {
		var ax, ay, az float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx := s.X[j] - s.X[i]
			dy := s.Y[j] - s.Y[i]
			dz := s.Z[j] - s.Z[i]
			r2 := dx*dx + dy*dy + dz*dz + s.Eps*s.Eps
			rinv := 1 / math.Sqrt(r2)
			f := s.M[j] * rinv * rinv * rinv
			ax += f * dx
			ay += f * dy
			az += f * dz
		}
		ex := acc[3*i] - ax
		ey := acc[3*i+1] - ay
		ez := acc[3*i+2] - az
		num += ex*ex + ey*ey + ez*ez
		den += ax*ax + ay*ay + az*az
	}
	return math.Sqrt(num / den)
}

// TestGroupWalkTelemetrySavings: the dual engine amortizes one
// traversal over every target of a group, and must say so in the
// treecode.list.groupwalk.saved counter (every target beyond the first
// per group).
func TestGroupWalkTelemetrySavings(t *testing.T) {
	before := listGroupSaved.Value()
	f := &Forcer{Theta: 0.7, Engine: EngineDual, Workers: 1}
	s := nbody.NewPlummer(2000, 1, 3)
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	saved := listGroupSaved.Value() - before
	if saved == 0 {
		t.Fatal("dual walk over a bucketed tree saved no traversals")
	}
	if saved >= uint64(s.N()) {
		t.Fatalf("savings %d exceed particle count %d", saved, s.N())
	}
}

// TestArenaReuseTelemetry: a second Forces call on the same Forcer must
// reuse its per-worker arenas and say so in the counters.
func TestArenaReuseTelemetry(t *testing.T) {
	f := &Forcer{Theta: 0.7, Workers: 2}
	s := nbody.NewPlummer(1500, 1, 21)
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	before := listArenaReuse.Value()
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	if reused := listArenaReuse.Value() - before; reused < 2 {
		t.Fatalf("second Forces call reused %d arenas, want >= 2", reused)
	}
}

// TestParseEngine covers the flag parser, the default, the fold of the
// retired list engine into recursive, and the removed group engine's
// error naming its successor.
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
	}{
		{"", EngineAuto}, {"auto", EngineAuto},
		{"recursive", EngineRecursive}, {"list", EngineRecursive},
		{"dual", EngineDual},
	} {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseEngine("turbo"); err == nil {
		t.Fatal("ParseEngine accepted an unknown engine")
	}
	for _, removed := range []string{"group", "groupwalk"} {
		if _, err := ParseEngine(removed); err == nil || !strings.Contains(err.Error(), "dual") {
			t.Fatalf("ParseEngine(%q) = %v, want an error naming dual", removed, err)
		}
	}
	for e, want := range map[Engine]string{
		EngineAuto: "auto", EngineRecursive: "recursive", EngineDual: "dual",
	} {
		if e.String() != want {
			t.Fatalf("engine %d spelled %q, want %q", int(e), e.String(), want)
		}
	}
}

// TestResolveEngine pins the error-budget resolution: auto defaults to
// the dual engine (budget 1 = "no worse than the reference"), budgets
// below 1 demand bit-exactness, and explicit engines always win.
func TestResolveEngine(t *testing.T) {
	for _, tc := range []struct {
		e      Engine
		budget float64
		want   Engine
	}{
		{EngineAuto, 0, EngineDual},
		{EngineAuto, 1, EngineDual},
		{EngineAuto, 2.5, EngineDual},
		{EngineAuto, 0.5, EngineRecursive},
		{EngineRecursive, 5, EngineRecursive},
		{EngineDual, 0.1, EngineDual},
	} {
		if got := ResolveEngine(tc.e, tc.budget); got != tc.want {
			t.Fatalf("ResolveEngine(%v, %g) = %v, want %v", tc.e, tc.budget, got, tc.want)
		}
	}
}

// TestMinDist2MatchesMinDist pins the squared-distance helper to its
// sqrt counterpart.
func TestMinDist2MatchesMinDist(t *testing.T) {
	b := Box{CX: 1, CY: -2, CZ: 0.5, Half: 0.25}
	pts := [][3]float64{{1, -2, 0.5}, {2, -2, 0.5}, {0, 0, 0}, {1.25, -1.75, 0.75}, {-3, 4, 9}}
	for _, p := range pts {
		d := b.MinDist(p[0], p[1], p[2])
		d2 := b.MinDist2(p[0], p[1], p[2])
		if math.Abs(d*d-d2) > 1e-12*(1+d2) {
			t.Fatalf("MinDist²=%g vs MinDist2=%g at %v", d*d, d2, p)
		}
	}
	if d2 := boxToBoxDist2(b, Box{CX: 1, CY: -2, CZ: 0.5, Half: 1}); d2 != 0 {
		t.Fatalf("overlapping boxes have dist2 %g", d2)
	}
	d := boxToBoxDist(b, Box{CX: 5, CY: -2, CZ: 0.5, Half: 1})
	if math.Abs(d-2.75) > 1e-12 {
		t.Fatalf("boxToBoxDist = %g, want 2.75", d)
	}
}
