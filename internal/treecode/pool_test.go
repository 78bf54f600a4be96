package treecode

import (
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/netsim"
)

// TestParallelForcesPoolInvariant pins pooling out of the physics for
// the treecode: accelerations, interaction counts, communication
// volumes and simulated times must be bit-for-bit identical with the
// buffer pools disabled.
func TestParallelForcesPoolInvariant(t *testing.T) {
	const n = 3000
	run := func(p int, disable bool) (*nbody.System, *ParallelResult) {
		s := nbody.NewPlummer(n, 1, 2001)
		w, err := mpi.NewWorldWithConfig(p, mpi.Config{
			Fabric:      netsim.FastEthernet(),
			DisablePool: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ParallelForces(w, s, ParallelConfig{Theta: 0.7})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		return s, res
	}
	for _, p := range []int{2, 8, 24} {
		sP, rP := run(p, false)
		sU, rU := run(p, true)
		if math.Float64bits(rP.SimTime) != math.Float64bits(rU.SimTime) {
			t.Errorf("p=%d: sim time %x vs %x", p,
				math.Float64bits(rP.SimTime), math.Float64bits(rU.SimTime))
		}
		if rP.CommBytes != rU.CommBytes || rP.CommMessages != rU.CommMessages ||
			rP.ImportedSources != rU.ImportedSources {
			t.Errorf("p=%d: comm stats differ: %+v vs %+v", p, rP, rU)
		}
		if rP.Stats != rU.Stats {
			t.Errorf("p=%d: interaction stats differ: %+v vs %+v", p, rP.Stats, rU.Stats)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(sP.AX[i]) != math.Float64bits(sU.AX[i]) ||
				math.Float64bits(sP.AY[i]) != math.Float64bits(sU.AY[i]) ||
				math.Float64bits(sP.AZ[i]) != math.Float64bits(sU.AZ[i]) {
				t.Fatalf("p=%d: acceleration of particle %d differs", p, i)
			}
		}
	}
}
