package cpu

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
)

// parity runs the program through Arch.Run and the map-backed oracle,
// whose interleaved isa.Step loop executes as it times, and fails unless
// cycles, trace, final state and error agree bit for bit. It returns the
// oracle's count of bookings below a pruned floor.
func parity(t *testing.T, name string, a *Arch, p isa.Program, st *isa.State) int {
	return parityFuel(t, name, a, p, st, 0)
}

func parityFuel(t *testing.T, name string, a *Arch, p isa.Program, st *isa.State, fuel uint64) int {
	t.Helper()
	ref := st.Clone()
	want, below, wantErr := refRun(a, p, ref, fuel)
	got, gotErr := a.Run(p, st, fuel)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
	}
	if math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) || got.Trace != want.Trace {
		t.Fatalf("%s: cycles %v trace %+v, oracle %v %+v", name, got.Cycles, got.Trace, want.Cycles, want.Trace)
	}
	if !st.Equal(ref) {
		t.Fatalf("%s: final state differs from the oracle's", name)
	}
	return below
}

// TestArchParityRecordedPathErrors holds the recorded path to the
// oracle's interleaved execution where a run stops early: fuel runs out
// (ErrFuel), the PC falls off the end or starts out of range, or a load
// faults. Error, partial trace and state must match.
func TestArchParityRecordedPathErrors(t *testing.T) {
	cases := []struct {
		name, src string
		pc        int
		fuel      uint64
	}{
		{"fuel", "movi r1, 0\nloop: addi r1, r1, 1\ncmpi r1, 1000\njl loop\nhlt", 0, 1500},
		{"spin", "spin: jmp spin", 0, 1000},
		{"falls off", "movi r1, 1\nfmovi f1, 2.5\nfmul f2, f1, f1", 0, 0},
		{"bad start", "hlt", -1, 0},
		{"load fault", "movi r1, 1\nld r2, [r1+100]\nhlt", 0, 0},
	}
	for _, c := range cases {
		st := isa.NewState(4)
		st.PC = c.pc
		parityFuel(t, c.name, PentiumIII500(), isa.MustAssemble(c.src), st, c.fuel)
	}
}

// TestArchParity holds the dense-window scoreboard to the map-backed
// oracle on every preset at the drivers' miss rates over every
// calibration kernel, and on Table 1's microkernels.
func TestArchParity(t *testing.T) {
	// Enough iterations that every class booked once per iteration
	// passes pruneLive and prunes.
	const iters = 9_000
	for _, a0 := range allArchs() {
		for _, miss := range []float64{MissRateSmall, MissRateTree, MissRateClassW} {
			a := a0.withMissRate(miss)
			for _, k := range kernels.CalibKernels() {
				p, st, err := k.Build(iters)
				if err != nil {
					t.Fatal(err)
				}
				parity(t, fmt.Sprintf("%s/%v/%s", a.Name, miss, k.Name), a, p, st)
			}
		}
	}
	for _, p := range EvaluationCPUs() {
		ap, ok := p.(archProcessor)
		if !ok {
			continue
		}
		for _, v := range []kernels.GravVariant{kernels.GravMath, kernels.GravKarp} {
			prog, st, err := kernels.DefaultGravMicro(v).Build()
			if err != nil {
				t.Fatal(err)
			}
			parity(t, fmt.Sprintf("%s/%v", ap.a.Name, v), ap.a, prog, st)
		}
	}
}

// TestArchParityBelowPrunedFloor covers the bookings that make the prune
// rule observable. The kernels above never make one. Here an add waits
// on a chain of 40 missing loads, so it books the ALU schedule thousands
// of cycles ahead of the loop counter's ALU work; after a prune keyed to
// the add, the counter's bookings land below the pruned floor.
func TestArchParityBelowPrunedFloor(t *testing.T) {
	var b strings.Builder
	b.WriteString("movi r1, 0\nmovi r4, 0\nloop:\n")
	for i := 0; i < 40; i++ {
		b.WriteString("ld r4, [r4+0]\n")
	}
	b.WriteString("add r6, r4, r4\naddi r1, r1, 1\ncmpi r1, 4000\njl loop\nhlt\n")
	p := isa.MustAssemble(b.String())
	a := Pentium4_1300()
	a.LoadMissRate = 1
	if below := parity(t, "load chain", a, p, isa.NewState(1)); below == 0 {
		t.Fatal("no booking landed below a pruned floor")
	}
}

// fuzzProgram decodes fuzz bytes into a preset and a valid, bounded
// program: a counted loop around up to 32 register, load and store
// operations on an 8-word memory. r14 holds the memory base (0) and r15
// the loop counter; the body writes neither.
func fuzzProgram(data []byte) (*Arch, isa.Program) {
	const memWords = 8
	bodyOps := []isa.Op{
		isa.Nop, isa.MovI, isa.Mov, isa.Add, isa.AddI, isa.Sub, isa.SubI,
		isa.Mul, isa.And, isa.Or, isa.Xor, isa.Shl, isa.Shr, isa.Cmp,
		isa.CmpI, isa.Ld, isa.St, isa.FLd, isa.FSt, isa.FMovI, isa.FMov,
		isa.FAdd, isa.FSub, isa.FMul, isa.FDiv, isa.FSqrt, isa.FNeg,
		isa.FAbs, isa.CvtIF, isa.CvtFI, isa.FCmp,
	}
	for len(data) < 2 {
		data = append(data, 0)
	}
	archs := allArchs()
	a := archs[int(data[0])%len(archs)]
	iters := 1 + 4*int64(data[1])
	p := isa.Program{
		{Op: isa.MovI, Rd: 15},
		{Op: isa.MovI, Rd: 14},
	}
	body := data[2:]
	for i := 0; i+4 <= len(body) && i < 4*32; i += 4 {
		g := body[i : i+4]
		in := isa.Instr{Op: bodyOps[int(g[0])%len(bodyOps)], Rd: g[1] % 14, Ra: g[2] % 14, Rb: g[3] % 14}
		switch in.Op {
		case isa.Ld, isa.St, isa.FLd, isa.FSt:
			in.Ra, in.Imm = 14, int64(g[2]%memWords)
		case isa.MovI, isa.AddI, isa.SubI, isa.CmpI, isa.Shl, isa.Shr:
			in.Imm = int64(int8(g[3]))
		case isa.FMovI:
			in.F = float64(int8(g[3])) / 4
		}
		p = append(p, in)
	}
	p = append(p,
		isa.Instr{Op: isa.AddI, Rd: 15, Ra: 15, Imm: 1},
		isa.Instr{Op: isa.CmpI, Ra: 15, Imm: iters},
		isa.Instr{Op: isa.Jl, Imm: 2},
		isa.Instr{Op: isa.Hlt},
	)
	return a, p
}

func FuzzArchTimingParity(f *testing.F) {
	f.Add([]byte{0, 10, 22, 1, 2, 3, 24, 4, 1, 5, 15, 6, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, p := fuzzProgram(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("decoded an invalid program: %v", err)
		}
		parity(t, a.Name, a, p, isa.NewState(8))
	})
}

// TestArchRunZeroAlloc pins the scoreboard's allocations to a per-run
// constant: a 100× longer run of the same kernel allocates no more.
func TestArchRunZeroAlloc(t *testing.T) {
	allocs := func(a *Arch, k kernels.CalibKernel, iters int) float64 {
		p, st0, err := k.Build(iters)
		if err != nil {
			t.Fatal(err)
		}
		st := st0.Clone()
		return testing.AllocsPerRun(2, func() {
			mem := st.Mem
			*st = *st0
			st.Mem = mem
			copy(st.Mem, st0.Mem)
			if _, err := a.Run(p, st, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, a := range []*Arch{PentiumIII500(), Alpha21064_150()} {
		for _, k := range kernels.CalibKernels() {
			short, long := allocs(a, k, 1_000), allocs(a, k, 100_000)
			if long > short {
				t.Errorf("%s/%s: %v allocations at 100k iterations, %v at 1k", a.Name, k.Name, long, short)
			}
		}
	}
}

// TestClassSchedMatchesOracle drives one pipelined unit schedule (through
// book's fast path and acquire, as the scoreboard does) and the
// map-backed oracle with the same bookings: a dispatch clock that only
// moves forward, most bookings a few cycles past it and, in the second
// pass, one in 64 thousands of cycles ahead. Forgotten cycles are then
// found full or empty exactly as the oracle finds them, and the count of
// booked cycles that drives the prune rule matches the oracle's map at
// every step.
func TestClassSchedMatchesOracle(t *testing.T) {
	for _, far := range []int{0, 64} {
		for _, u := range []UnitSpec{
			{Count: 1, Latency: 1, RecipThroughput: 1},
			{Count: 2, Latency: 1, RecipThroughput: 0.5},
			{Count: 3, Latency: 1, RecipThroughput: 1},
		} {
			rng := rand.New(rand.NewPCG(uint64(far), uint64(u.Count)))
			got, want := newClassSched(&u), newRefClassSched(&u)
			d := 0.0
			for i := 0; i < 200_000; i++ {
				d += rng.Float64() * 2
				t0 := d + float64(rng.IntN(16))
				if far > 0 && rng.IntN(far) == 0 {
					t0 += 4000 + float64(rng.IntN(4000))
				}
				// The scoreboard's entry: the inlined fast path, then
				// the full booking.
				g, w := t0, want.acquire(t0)
				if !got.book(t0) {
					g = got.acquire(t0, int64(math.Floor(d)))
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%+v booking %d at %v: issued at %v, oracle %v", u, i, t0, g, w)
				}
				if got.live != len(want.bins) {
					t.Fatalf("%+v booking %d: %d booked cycles, oracle %d", u, i, got.live, len(want.bins))
				}
			}
			if far > 0 && want.belowFloor == 0 {
				t.Errorf("%+v: no booking landed below a pruned floor", u)
			}
		}
	}
}
