package nas

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// TestParallelKernelsPoolInvariant pins the substrate's core contract:
// buffer pooling is invisible in the physics. Results, checksums,
// communication volumes and simulated times of the distributed kernels
// must be bit-for-bit identical with pooling disabled.
func TestParallelKernelsPoolInvariant(t *testing.T) {
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p int, disable bool) (*ParallelResult, *ParallelResult) {
		mk := func() *mpi.World {
			w, err := mpi.NewWorldWithConfig(p, mpi.Config{
				Fabric:      netsim.FastEthernet(),
				DisablePool: disable,
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		ep, err := ParallelEP(mk(), ClassS, costs)
		if err != nil {
			t.Fatalf("p=%d EP: %v", p, err)
		}
		is, err := ParallelIS(mk(), ClassS, costs)
		if err != nil {
			t.Fatalf("p=%d IS: %v", p, err)
		}
		return ep, is
	}
	same := func(name string, a, b *ParallelResult, p int) {
		if math.Float64bits(a.SimTime) != math.Float64bits(b.SimTime) {
			t.Errorf("p=%d %s: sim time %x vs %x", p, name,
				math.Float64bits(a.SimTime), math.Float64bits(b.SimTime))
		}
		if math.Float64bits(a.Checksum) != math.Float64bits(b.Checksum) {
			t.Errorf("p=%d %s: checksum differs", p, name)
		}
		if a.Ops != b.Ops || a.CommByte != b.CommByte || a.Verified != b.Verified {
			t.Errorf("p=%d %s: ops/bytes/verified differ: %+v vs %+v", p, name, a, b)
		}
	}
	for _, p := range []int{2, 8, 24} {
		epP, isP := run(p, false)
		epU, isU := run(p, true)
		same("EP", epP, epU, p)
		same("IS", isP, isU, p)
		if !epP.Verified || !isP.Verified {
			t.Fatalf("p=%d: kernels must verify (EP %v, IS %v)", p, epP.Verified, isP.Verified)
		}
	}
}
