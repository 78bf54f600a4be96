package mpi

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// mkEventWorld builds an event-mode world over the given fabric.
func mkEventWorld(t *testing.T, p int, f *netsim.Fabric) *World {
	t.Helper()
	w, err := NewWorldWithConfig(p, Config{Fabric: f, Event: true})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunEventRequiresEventWorld(t *testing.T) {
	w, err := NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunEvent(func(c *Comm) Proc {
		return ProcFunc(func(c *Comm) (bool, error) { return true, nil })
	}); err == nil || !strings.Contains(err.Error(), "goroutine-mode world") {
		t.Fatalf("RunEvent on a goroutine world: %v", err)
	}
	we := mkEventWorld(t, 2, nil)
	if err := we.Run(func(c *Comm) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "RunEvent") {
		t.Fatalf("Run on an event world: %v", err)
	}
}

func TestBlockingRecvOnEventWorldErrors(t *testing.T) {
	w := mkEventWorld(t, 2, nil)
	err := w.RunEvent(func(c *Comm) Proc {
		return ProcFunc(func(c *Comm) (bool, error) {
			if c.Rank() == 0 {
				c.Recv(1, 0) // blocking receive is a programming error here
			}
			return true, nil
		})
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") ||
		!strings.Contains(err.Error(), "blocking recv") {
		t.Fatalf("blocking recv on event world: %v", err)
	}
}

// TestEventDeadlockDiagnosticMatchesWatchdog pins the satellite
// contract: a stuck event loop surfaces the same per-rank pending-op
// diagnostic the goroutine watchdog produces, from the same
// describeRanks state. The event loop detects the deadlock
// deterministically (empty ready heap), no wall-clock wait needed.
func TestEventDeadlockDiagnosticMatchesWatchdog(t *testing.T) {
	we := mkEventWorld(t, 2, nil)
	errEvent := we.RunEvent(func(c *Comm) Proc {
		return ProcFunc(func(c *Comm) (bool, error) {
			if c.Rank() == 0 {
				if _, ok := c.TryRecvF64(1, 42); !ok { // never sent
					return false, nil
				}
			}
			return true, nil
		})
	})
	if errEvent == nil {
		t.Fatal("deadlocked event run did not error")
	}

	wg, err := NewWorldWithConfig(2, Config{
		WatchdogTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	errGo := wg.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 42)
		}
		return nil
	})
	if errGo == nil {
		t.Fatal("deadlocked goroutine run did not error")
	}

	// Both schedulers must name the stuck rank and its pending op
	// identically.
	const diag = "rank 0: blocked in recv(src=1, tag=42)"
	for name, e := range map[string]error{"event": errEvent, "goroutine": errGo} {
		if !strings.Contains(e.Error(), diag) {
			t.Errorf("%s diagnostic missing %q: %v", name, diag, e)
		}
	}
	if !strings.Contains(errEvent.Error(), "deadlock") {
		t.Errorf("event error does not say deadlock: %v", errEvent)
	}
}

// TestEventCollectivesMatchBlocking drives the resumable collective
// state machines on event worlds and checks values and virtual times
// bit-match the blocking collectives on goroutine worlds, across world
// sizes (including non-powers of two) and both allreduce algorithms.
func TestEventCollectivesMatchBlocking(t *testing.T) {
	const n = 96
	for _, native := range []bool{false, true} {
		for p := 1; p <= 17; p += 2 {
			goOut := make([][]float64, p)
			wg, err := NewWorldWithConfig(p, Config{
				Fabric: netsim.FastEthernet(), Native: native,
			})
			if err != nil {
				t.Fatal(err)
			}
			err = wg.Run(func(c *Comm) error {
				buf := make([]float64, n)
				for i := range buf {
					buf[i] = float64(c.Rank()*n + i)
				}
				c.AllreduceInto(Sum, buf)
				goOut[c.Rank()] = buf
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			evOut := make([][]float64, p)
			we, err := NewWorldWithConfig(p, Config{
				Fabric: netsim.FastEthernet(), Native: native, Event: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			err = we.RunEvent(func(c *Comm) Proc {
				buf := make([]float64, n)
				for i := range buf {
					buf[i] = float64(c.Rank()*n + i)
				}
				var ar AllreduceState
				started := false
				return ProcFunc(func(c *Comm) (bool, error) {
					if !started {
						ar.Start(c, Sum, buf)
						started = true
					}
					if !ar.Step(c) {
						return false, nil
					}
					evOut[c.Rank()] = buf
					return true, nil
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				for i := range goOut[r] {
					if math.Float64bits(goOut[r][i]) != math.Float64bits(evOut[r][i]) {
						t.Fatalf("native=%v p=%d rank %d elem %d: %v vs %v",
							native, p, r, i, goOut[r][i], evOut[r][i])
					}
				}
			}
			if math.Float64bits(wg.MaxTime()) != math.Float64bits(we.MaxTime()) {
				t.Fatalf("native=%v p=%d: makespan %v vs %v", native, p, wg.MaxTime(), we.MaxTime())
			}
		}
	}
}

// TestEventLoopSteadyStateAllocFree pins the event scheduler's
// steady-state allocation behavior: after the first run fills the
// buffer pools and inbox lanes, further event-loop traffic allocates
// (nearly) nothing — inbox slots recycle through their free lists.
func TestEventLoopSteadyStateAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const p, n, iters = 8, 64, 300
	w := mkEventWorld(t, p, netsim.FastEthernet())
	sweep := func(iters int) {
		err := w.RunEvent(func(c *Comm) Proc {
			buf := make([]float64, n)
			var ar AllreduceState
			i, inStep := 0, false
			return ProcFunc(func(c *Comm) (bool, error) {
				for ; i < iters; i++ {
					if !inStep {
						buf[0] = float64(c.Rank() + i)
						ar.Start(c, Sum, buf)
						inStep = true
					}
					if !ar.Step(c) {
						return false, nil
					}
					inStep = false
				}
				return true, nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sweep(8) // warmup: pools and inbox lanes reach equilibrium
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweep(iters)
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	// Per-run setup (procs, scheduler, closures) is O(p) allocations;
	// the p*iters allreduce messages themselves must allocate nothing.
	if got > 8*p+iters/10 {
		t.Fatalf("event-loop steady state: %d mallocs over %d iterations", got, iters)
	}
}

// TestExactPredictorsMatchEmergent pins the closed forms in netsim
// against the emergent virtual times of the substrate: AllreduceTime,
// BcastTime, ReduceTime and FanInTime must equal the measured makespan
// bit-for-bit on every topology, with and without port contention,
// across payload sizes (8 B – 4 MB) and world sizes 2..64.
func TestExactPredictorsMatchEmergent(t *testing.T) {
	mkFab := func(topo string, contended bool, p int) *netsim.Fabric {
		f := netsim.FastEthernet()
		f.PortContention = contended
		if err := netsim.ApplyTopology(f, topo, p); err != nil {
			t.Fatal(err)
		}
		return f
	}
	measure := func(f *netsim.Fabric, p int, prog func(c *Comm)) float64 {
		w, err := NewWorldWithConfig(p, Config{Fabric: f})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error { prog(c); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	for _, topo := range []string{"star", "fattree", "torus2d", "torus3d"} {
		for _, contended := range []bool{false, true} {
			for _, p := range []int{2, 3, 5, 8, 16, 24, 64} {
				for _, elems := range []int{1, 512, 4096, 512 << 10} {
					if elems == 512<<10 && p > 8 {
						continue // 4 MB buffers: keep host memory sane
					}
					bytes := 8 * elems
					f := mkFab(topo, contended, p)
					cases := []struct {
						name string
						want float64
						prog func(c *Comm)
					}{
						{"allreduce", f.AllreduceTime(p, bytes), func(c *Comm) {
							buf := make([]float64, elems)
							c.AllreduceInto(Sum, buf)
						}},
						{"bcast", f.BcastTime(p, bytes), func(c *Comm) {
							buf := make([]float64, elems)
							c.BcastInto(0, buf)
						}},
						{"reduce", f.ReduceTime(p, bytes), func(c *Comm) {
							buf := make([]float64, elems)
							c.ReduceInto(0, Sum, buf)
						}},
						{"fanin", f.FanInTime(p, bytes), func(c *Comm) {
							if c.Rank() == 0 {
								for src := 1; src < p; src++ {
									c.ReleaseF64(c.Recv(src, 0))
								}
							} else {
								c.Send(0, 0, make([]float64, elems))
							}
						}},
					}
					for _, tc := range cases {
						got := measure(f, p, tc.prog)
						if math.Float64bits(got) != math.Float64bits(tc.want) {
							t.Errorf("%s/%s contended=%v p=%d bytes=%d: emergent %.17g, predicted %.17g",
								topo, tc.name, contended, p, bytes, got, tc.want)
						}
					}
				}
			}
		}
	}
}
