package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestSendsNeverBlock pins that a send completes without a matching
// receive: one rank posts 10,000 messages, more than any fixed per-pair
// buffer would hold, before its peer receives any of them.
func TestSendsNeverBlock(t *testing.T) {
	const n = 10000
	w, err := NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.SendInts(1, i%7, []int64{int64(i)})
			}
			close(sent)
			return nil
		}
		select {
		case <-sent:
		case <-time.After(30 * time.Second):
			return fmt.Errorf("sender still blocked after 30s")
		}
		for i := 0; i < n; i++ {
			got := c.RecvInts(0, i%7)
			if len(got) != 1 || got[0] != int64(i) {
				return fmt.Errorf("message %d: got %v", i, got)
			}
			c.ReleaseI64(got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// trafficOp is one step of a rank's program in a random-traffic test:
// compute for a while, then send message k to peer or receive the next
// message from peer.
type trafficOp struct {
	send    bool
	peer    int
	tag     int
	k       int // message id, the payload's first element
	size    int // payload floats
	compute float64
}

// randomTraffic generates per-rank programs from one random global
// schedule of sends and receives over p ranks, and the receive sequence
// each rank must observe, computed with a plain per-(src,dst) reference
// queue. Every receive comes after its send in the global schedule and
// sends never block, so the programs cannot deadlock under either
// scheduler.
func randomTraffic(seed int64, p, msgs int) (progs [][]trafficOp, want [][]int) {
	rng := rand.New(rand.NewSource(seed))
	progs = make([][]trafficOp, p)
	want = make([][]int, p)
	ref := make([][]trafficOp, p*p) // ref[src*p+dst]: sent, not yet received
	pending := 0
	recvOne := func(dst int) {
		srcs := rng.Perm(p)
		for _, src := range srcs {
			q := ref[src*p+dst]
			if len(q) == 0 {
				continue
			}
			m := q[0]
			ref[src*p+dst] = q[1:]
			pending--
			progs[dst] = append(progs[dst], trafficOp{
				peer: src, tag: m.tag, k: m.k, compute: rng.Float64() * 1e-4,
			})
			want[dst] = append(want[dst], m.k)
			return
		}
	}
	for k := 0; k < msgs; {
		if pending > 0 && rng.Intn(3) == 0 {
			recvOne(rng.Intn(p))
			continue
		}
		src := rng.Intn(p)
		dst := (src + 1 + rng.Intn(p-1)) % p
		m := trafficOp{send: true, peer: dst, tag: rng.Intn(1 << 20), k: k,
			size: 1 + rng.Intn(2048), compute: rng.Float64() * 1e-4}
		progs[src] = append(progs[src], m)
		ref[src*p+dst] = append(ref[src*p+dst], m)
		pending++
		k++
	}
	for pending > 0 {
		recvOne(rng.Intn(p))
	}
	return progs, want
}

// trafficRun records one rank's observations: received message ids and
// the virtual clock after each receive.
type trafficRun struct {
	got    []int
	clocks []float64
}

func (tr *trafficRun) step(c *Comm, op trafficOp, data []float64) {
	if op.send {
		buf := c.AcquireF64(op.size)
		buf[0] = float64(op.k)
		c.SendOwned(op.peer, op.tag, buf)
		return
	}
	tr.got = append(tr.got, int(data[0]))
	tr.clocks = append(tr.clocks, c.Now())
	c.ReleaseF64(data)
}

// TestInboxFIFORandomTraffic drives seeded random point-to-point
// programs, with many messages in flight from many senders at once,
// through both schedulers. Each rank must receive exactly the sequence
// a plain per-pair FIFO reference queue predicts, and the two
// schedulers must agree on every virtual clock bit for bit. At p=20 the
// busiest inboxes outgrow sparseLanes with messages still queued, so
// the switch to the dense table is exercised mid-traffic.
func TestInboxFIFORandomTraffic(t *testing.T) {
	fab := func() *netsim.Fabric {
		f := netsim.FastEthernet()
		f.PortContention = true
		return f
	}
	for _, tc := range []struct {
		p, msgs int
		seeds   int
	}{{3, 300, 6}, {7, 600, 6}, {sparseLanes + 4, 2000, 3}} {
		for seed := int64(1); seed <= int64(tc.seeds); seed++ {
			progs, want := randomTraffic(seed, tc.p, tc.msgs)

			goRuns := make([]trafficRun, tc.p)
			wg, err := NewWorldWithConfig(tc.p, Config{Fabric: fab(), WatchdogTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			err = wg.Run(func(c *Comm) error {
				tr := &goRuns[c.Rank()]
				for _, op := range progs[c.Rank()] {
					c.AddCompute(op.compute)
					var data []float64
					if !op.send {
						data = c.Recv(op.peer, op.tag)
					}
					tr.step(c, op, data)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d seed=%d goroutine: %v", tc.p, seed, err)
			}

			evRuns := make([]trafficRun, tc.p)
			we, err := NewWorldWithConfig(tc.p, Config{Fabric: fab(), Event: true})
			if err != nil {
				t.Fatal(err)
			}
			err = we.RunEvent(func(c *Comm) Proc {
				tr := &evRuns[c.Rank()]
				prog := progs[c.Rank()]
				pc, computed := 0, false
				return ProcFunc(func(c *Comm) (bool, error) {
					for ; pc < len(prog); pc++ {
						op := prog[pc]
						if !computed {
							c.AddCompute(op.compute)
							computed = true
						}
						var data []float64
						if !op.send {
							var ok bool
							if data, ok = c.TryRecvF64(op.peer, op.tag); !ok {
								return false, nil
							}
						}
						tr.step(c, op, data)
						computed = false
					}
					return true, nil
				})
			})
			if err != nil {
				t.Fatalf("p=%d seed=%d event: %v", tc.p, seed, err)
			}

			for r := 0; r < tc.p; r++ {
				for name, run := range map[string]trafficRun{"goroutine": goRuns[r], "event": evRuns[r]} {
					if fmt.Sprint(run.got) != fmt.Sprint(want[r]) {
						t.Fatalf("p=%d seed=%d rank %d %s: received %v, reference queue says %v",
							tc.p, seed, r, name, run.got, want[r])
					}
				}
				for i := range goRuns[r].clocks {
					g, e := goRuns[r].clocks[i], evRuns[r].clocks[i]
					if math.Float64bits(g) != math.Float64bits(e) {
						t.Fatalf("p=%d seed=%d rank %d recv %d: clock %v (goroutine) vs %v (event)",
							tc.p, seed, r, i, g, e)
					}
				}
			}
			if math.Float64bits(wg.MaxTime()) != math.Float64bits(we.MaxTime()) {
				t.Fatalf("p=%d seed=%d: makespan %v vs %v", tc.p, seed, wg.MaxTime(), we.MaxTime())
			}
			if tc.p > sparseLanes+1 {
				dense := 0
				for r := range we.inbox {
					if we.inbox[r].dense != nil {
						dense++
					}
				}
				if dense == 0 {
					t.Fatalf("p=%d seed=%d: no inbox outgrew %d sparse lanes; the dense switch went untested",
						tc.p, seed, sparseLanes)
				}
			}
		}
	}
}

// TestInboxLanesStaySparse pins that inbox memory follows the rank
// pairs that talk: in a p=4096 event-mode allreduce (binomial reduce
// then binomial broadcast), every rank whose fan-in is within
// sparseLanes keeps exactly one sparse lane per sender and no dense
// table. A gather root, which hears from every rank, does switch.
func TestInboxLanesStaySparse(t *testing.T) {
	const p = 4096
	w := mkEventWorld(t, p, nil)
	err := w.RunEvent(func(c *Comm) Proc {
		buf := []float64{float64(c.Rank())}
		var ar AllreduceState
		started := false
		return ProcFunc(func(c *Comm) (bool, error) {
			if !started {
				ar.Start(c, Sum, buf)
				started = true
			}
			return ar.Step(c), nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// fanIn is the number of distinct senders rank r hears from: its
	// reduce children r+1, r+2, r+4, … below its lowest set bit, plus
	// its broadcast parent.
	fanIn := func(r int) int {
		n := 0
		for d := 1; d < p; d *= 2 {
			if r%(2*d) != 0 {
				return n + 1
			}
			if r+d < p {
				n++
			}
		}
		return n
	}
	checked := 0
	for r := 0; r < p; r++ {
		if f := fanIn(r); f <= sparseLanes {
			in := &w.inbox[r]
			if in.dense != nil || len(in.lanes) != f {
				t.Fatalf("rank %d (fan-in %d): dense=%v, %d sparse lanes",
					r, f, in.dense != nil, len(in.lanes))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no rank checked")
	}

	const pg = sparseLanes + 2
	wg, err := NewWorld(pg, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = wg.Run(func(c *Comm) error {
		c.Gather(0, []float64{float64(c.Rank())})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if wg.inbox[0].dense == nil {
		t.Fatalf("gather root heard from %d senders but kept sparse lanes", pg-1)
	}
	for r := 1; r < pg; r++ {
		if len(wg.inbox[r].lanes) != 0 || wg.inbox[r].dense != nil {
			t.Fatalf("rank %d received nothing but holds lanes", r)
		}
	}
}
