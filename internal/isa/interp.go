package isa

import (
	"errors"
	"fmt"
	"math"
)

// State is the architectural state every execution engine (reference
// interpreter, CMS interpreter, translated VLIW code) operates on.
type State struct {
	R  [NumRegs]int64
	F  [NumRegs]float64
	PC int
	// Flags from the last Cmp/CmpI/FCmp.
	FlagZ bool // equal
	FlagL bool // less (signed / FP ordered)
	Mem   []uint64
	// Halted is set by Hlt.
	Halted bool
}

// NewState allocates a state with the given number of memory words.
func NewState(memWords int) *State {
	return &State{Mem: make([]uint64, memWords)}
}

// LoadF reads memory word addr as a float64.
func (s *State) LoadF(addr int64) float64 { return math.Float64frombits(s.Mem[addr]) }

// StoreF writes v into memory word addr.
func (s *State) StoreF(addr int64, v float64) { s.Mem[addr] = math.Float64bits(v) }

// LoadI reads memory word addr as an int64.
func (s *State) LoadI(addr int64) int64 { return int64(s.Mem[addr]) }

// StoreI writes v into memory word addr.
func (s *State) StoreI(addr int64, v int64) { s.Mem[addr] = uint64(v) }

// Equal reports whether two states agree on registers, flags, PC and
// memory. Used by property tests that check CMS translations against the
// reference interpreter. NaN floating registers compare equal to NaN.
func (s *State) Equal(o *State) bool {
	if s.R != o.R || s.PC != o.PC || s.FlagZ != o.FlagZ || s.FlagL != o.FlagL || s.Halted != o.Halted {
		return false
	}
	for i := range s.F {
		a, b := s.F[i], o.F[i]
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			return false
		}
	}
	if len(s.Mem) != len(o.Mem) {
		return false
	}
	for i := range s.Mem {
		if s.Mem[i] != o.Mem[i] {
			return false
		}
	}
	return true
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := *s
	c.Mem = make([]uint64, len(s.Mem))
	copy(c.Mem, s.Mem)
	return &c
}

// Trace accumulates dynamic execution statistics for timing models.
type Trace struct {
	ByClass [NumClasses]uint64
	Flops   uint64 // IsFlop ops executed
	Taken   uint64 // taken branches
	Instrs  uint64
}

// Add accumulates another trace into t.
func (t *Trace) Add(o *Trace) {
	for i := range t.ByClass {
		t.ByClass[i] += o.ByClass[i]
	}
	t.Flops += o.Flops
	t.Taken += o.Taken
	t.Instrs += o.Instrs
}

// Scale multiplies every counter by k (for extrapolating a measured
// iteration to a full run).
func (t *Trace) Scale(k uint64) {
	for i := range t.ByClass {
		t.ByClass[i] *= k
	}
	t.Flops *= k
	t.Taken *= k
	t.Instrs *= k
}

// ErrFuel is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrFuel = errors.New("isa: instruction budget exhausted")

// Step executes the single instruction at s.PC, updating the state and,
// when tr is non-nil, the trace. It returns an error on PC or memory
// range violations; architectural FP exceptions follow Go float64
// semantics (Inf/NaN propagate, as on real hardware with masked
// exceptions).
func Step(p Program, s *State, tr *Trace) error {
	if s.PC < 0 || s.PC >= len(p) {
		return fmt.Errorf("isa: PC %d out of range [0,%d)", s.PC, len(p))
	}
	in := p[s.PC]
	next := s.PC + 1
	taken := false
	switch in.Op {
	case Nop:
	case Hlt:
		s.Halted = true
	case MovI:
		s.R[in.Rd] = in.Imm
	case Mov:
		s.R[in.Rd] = s.R[in.Ra]
	case Add:
		s.R[in.Rd] = s.R[in.Ra] + s.R[in.Rb]
	case AddI:
		s.R[in.Rd] = s.R[in.Ra] + in.Imm
	case Sub:
		s.R[in.Rd] = s.R[in.Ra] - s.R[in.Rb]
	case SubI:
		s.R[in.Rd] = s.R[in.Ra] - in.Imm
	case Mul:
		s.R[in.Rd] = s.R[in.Ra] * s.R[in.Rb]
	case And:
		s.R[in.Rd] = s.R[in.Ra] & s.R[in.Rb]
	case Or:
		s.R[in.Rd] = s.R[in.Ra] | s.R[in.Rb]
	case Xor:
		s.R[in.Rd] = s.R[in.Ra] ^ s.R[in.Rb]
	case Shl:
		s.R[in.Rd] = s.R[in.Ra] << uint(in.Imm&63)
	case Shr:
		s.R[in.Rd] = int64(uint64(s.R[in.Ra]) >> uint(in.Imm&63))
	case Cmp:
		a, b := s.R[in.Ra], s.R[in.Rb]
		s.FlagZ, s.FlagL = a == b, a < b
	case CmpI:
		a, b := s.R[in.Ra], in.Imm
		s.FlagZ, s.FlagL = a == b, a < b
	case Ld:
		addr := s.R[in.Ra] + in.Imm
		if addr < 0 || addr >= int64(len(s.Mem)) {
			return fmt.Errorf("isa: PC %d: load address %d out of range", s.PC, addr)
		}
		s.R[in.Rd] = s.LoadI(addr)
	case St:
		addr := s.R[in.Ra] + in.Imm
		if addr < 0 || addr >= int64(len(s.Mem)) {
			return fmt.Errorf("isa: PC %d: store address %d out of range", s.PC, addr)
		}
		s.StoreI(addr, s.R[in.Rb])
	case FLd:
		addr := s.R[in.Ra] + in.Imm
		if addr < 0 || addr >= int64(len(s.Mem)) {
			return fmt.Errorf("isa: PC %d: fload address %d out of range", s.PC, addr)
		}
		s.F[in.Rd] = s.LoadF(addr)
	case FSt:
		addr := s.R[in.Ra] + in.Imm
		if addr < 0 || addr >= int64(len(s.Mem)) {
			return fmt.Errorf("isa: PC %d: fstore address %d out of range", s.PC, addr)
		}
		s.StoreF(addr, s.F[in.Rb])
	case FMovI:
		s.F[in.Rd] = in.F
	case FMov:
		s.F[in.Rd] = s.F[in.Ra]
	case FAdd:
		s.F[in.Rd] = s.F[in.Ra] + s.F[in.Rb]
	case FSub:
		s.F[in.Rd] = s.F[in.Ra] - s.F[in.Rb]
	case FMul:
		s.F[in.Rd] = s.F[in.Ra] * s.F[in.Rb]
	case FDiv:
		s.F[in.Rd] = s.F[in.Ra] / s.F[in.Rb]
	case FSqrt:
		s.F[in.Rd] = math.Sqrt(s.F[in.Ra])
	case FNeg:
		s.F[in.Rd] = -s.F[in.Ra]
	case FAbs:
		s.F[in.Rd] = math.Abs(s.F[in.Ra])
	case CvtIF:
		s.F[in.Rd] = float64(s.R[in.Ra])
	case CvtFI:
		s.R[in.Rd] = int64(s.F[in.Ra])
	case FCmp:
		a, b := s.F[in.Ra], s.F[in.Rb]
		s.FlagZ, s.FlagL = a == b, a < b
	case Jmp:
		next, taken = int(in.Imm), true
	case Jz:
		if s.FlagZ {
			next, taken = int(in.Imm), true
		}
	case Jnz:
		if !s.FlagZ {
			next, taken = int(in.Imm), true
		}
	case Jl:
		if s.FlagL {
			next, taken = int(in.Imm), true
		}
	case Jle:
		if s.FlagL || s.FlagZ {
			next, taken = int(in.Imm), true
		}
	case Jg:
		if !s.FlagL && !s.FlagZ {
			next, taken = int(in.Imm), true
		}
	case Jge:
		if !s.FlagL {
			next, taken = int(in.Imm), true
		}
	default:
		return fmt.Errorf("isa: PC %d: unknown opcode %d", s.PC, in.Op)
	}
	if tr != nil {
		tr.Instrs++
		tr.ByClass[ClassOf(in.Op)]++
		if IsFlop(in.Op) {
			tr.Flops++
		}
		if taken {
			tr.Taken++
		}
	}
	s.PC = next
	return nil
}

// Run executes the program from s.PC until Hlt, an error, or fuel
// instructions have retired. A fuel of 0 means unlimited.
func Run(p Program, s *State, tr *Trace, fuel uint64) error {
	_, err := RecordPath(p, s, tr, fuel, nil)
	return err
}

// Block is one run of a recorded path: Count back-to-back executions of
// the straight-line instructions Start..End, the last a taken branch
// when Taken.
type Block struct {
	Start, End int32
	Taken      bool
	Count      uint64
}

// RecordPath executes the program like Run and appends the executed path
// to path in run-length basic blocks, each ending at a branch or Hlt. A
// run stopped by an error leaves the path without its open block.
func RecordPath(p Program, s *State, tr *Trace, fuel uint64, path []Block) ([]Block, error) {
	if err := p.Validate(); err != nil {
		return path, err
	}
	if tr == nil {
		tr = new(Trace)
	}
	start := s.PC
	for executed := uint64(0); !s.Halted; executed++ {
		if fuel > 0 && executed >= fuel {
			return path, ErrFuel
		}
		pc, taken := s.PC, tr.Taken
		if err := Step(p, s, tr); err != nil {
			return path, err
		}
		if op := p[pc].Op; IsBranch(op) || op == Hlt {
			b := Block{int32(start), int32(pc), tr.Taken != taken, 1}
			if n := len(path); n > 0 && path[n-1].Start == b.Start && path[n-1].End == b.End && path[n-1].Taken == b.Taken {
				path[n-1].Count++
			} else {
				path = append(path, b)
			}
			start = s.PC
		}
	}
	return path, nil
}
