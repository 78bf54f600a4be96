package treecode

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/nbody"
)

// scalarEvalTargets is the per-target oracle for evalTargets: every
// selected target runs the scalar kernels alone — cells (monopole or
// quadrupole) from +0, then leaf sources with self-exclusion — and
// returns its (index, ax, ay, az) rows plus the Stats the pass adds.
func scalarEvalTargets(tr *Tree, first, count int32, eps float64, sel *Selection, ar *WalkArena) ([]int32, []float64, Stats) {
	eps2 := softening2(eps)
	cells, parts := len(ar.cm), len(ar.pm)
	var idx []int32
	var acc []float64
	var st Stats
	for i := first; i < first+count; i++ {
		s := &tr.Sources[i]
		if !sel.selected(s) {
			continue
		}
		var ax, ay, az float64
		if tr.Quadrupole {
			ax, ay, az = ar.evalCellsQuad(s.X, s.Y, s.Z, eps2, 0, cells, ax, ay, az)
		} else {
			ax, ay, az = ar.evalCellsMono(s.X, s.Y, s.Z, eps2, 0, cells, ax, ay, az)
		}
		var skipped int
		ax, ay, az, skipped = ar.evalPartsExcept(s.X, s.Y, s.Z, eps2, int32(s.Index), 0, parts, ax, ay, az)
		st.PC += uint64(cells)
		st.PP += uint64(parts - skipped)
		idx = append(idx, int32(s.Index))
		acc = append(acc, ax, ay, az)
	}
	return idx, acc, st
}

// pairedEvalTargets runs evalTargets over the arena's current list and
// returns its rows and the Stats it adds.
func pairedEvalTargets(tr *Tree, first, count int32, eps float64, sel *Selection, ar *WalkArena) ([]int32, []float64, Stats) {
	ar.tIdx = ar.tIdx[:0]
	ar.tax, ar.tay, ar.taz = ar.tax[:0], ar.tay[:0], ar.taz[:0]
	var st Stats
	tr.evalTargets(first, count, eps, sel, ar, &st)
	idx := append([]int32(nil), ar.tIdx...)
	var acc []float64
	for k := range ar.tIdx {
		acc = append(acc, ar.tax[k], ar.tay[k], ar.taz[k])
	}
	return idx, acc, st
}

// groupList fills the arena's interaction list for target group g as a
// dual walk would resolve it with nothing inherited: the whole tree
// refined against the tight box of the group's selected targets.
func groupList(tr *Tree, ar *WalkArena, g int32, theta float64, sel *Selection) {
	ar.cx, ar.cy, ar.cz, ar.cm = ar.cx[:0], ar.cy[:0], ar.cz[:0], ar.cm[:0]
	ar.qxx, ar.qyy, ar.qzz = ar.qxx[:0], ar.qyy[:0], ar.qzz[:0]
	ar.qxy, ar.qxz, ar.qyz = ar.qxy[:0], ar.qxz[:0], ar.qyz[:0]
	ar.px, ar.py, ar.pz, ar.pm = ar.px[:0], ar.py[:0], ar.pz[:0], ar.pm[:0]
	ar.pidx = ar.pidx[:0]
	d := &ar.dual
	d.t, d.sel, d.ar = tr, sel, ar
	d.wn, d.wb, d.wq = tr.walkIndex()
	d.th2 = theta * theta
	d.quad = tr.Quadrupole
	d.isGroup = true
	if n := &tr.Nodes[g]; d.groupFrame(int32(n.First), int32(n.Count)) {
		d.refine(0)
	}
}

// swapPart exchanges leaf-source entries i and j of the arena's list.
func swapPart(ar *WalkArena, i, j int) {
	ar.px[i], ar.px[j] = ar.px[j], ar.px[i]
	ar.py[i], ar.py[j] = ar.py[j], ar.py[i]
	ar.pz[i], ar.pz[j] = ar.pz[j], ar.pz[i]
	ar.pm[i], ar.pm[j] = ar.pm[j], ar.pm[i]
	ar.pidx[i], ar.pidx[j] = ar.pidx[j], ar.pidx[i]
}

// TestPairKernelsMatchScalar: evalTargets, running targets in pairs
// through the two-lane kernels, returns the same rows, the same
// acceleration bits and the same Stats as the scalar kernels run one
// target at a time — over Plummer and cold-disk systems, eps 0 and
// 0.01, Quadrupole on and off, a selection that leaves odd target
// counts in groups, and lists reordered so that a target's own entry
// sits first and another's last.
func TestPairKernelsMatchScalar(t *testing.T) {
	const n = 3000
	systems := []struct {
		name string
		s    *nbody.System
	}{
		{"plummer", nbody.NewPlummer(n, 1, 71)},
		{"colddisk", nbody.NewColdDisk(n, 72)},
	}
	twoThirds := make([]bool, n)
	for i := range twoThirds {
		twoThirds[i] = i%3 != 0
	}
	for _, sys := range systems {
		for _, quad := range []bool{false, true} {
			tr := buildFromSystem(t, sys.s, BuildOptions{Quadrupole: quad})
			groups := tr.AppendGroups(nil, DefaultGroupSize)
			for _, eps := range []float64{0, 0.01} {
				for _, mask := range [][]bool{nil, twoThirds} {
					name := fmt.Sprintf("%s/quad=%v/eps=%g/masked=%v", sys.name, quad, eps, mask != nil)
					t.Run(name, func(t *testing.T) {
						sel := tr.Select(mask)
						ar := NewWalkArena()
						var odd, even, ends int
						check := func(g int32, how string) {
							t.Helper()
							nd := &tr.Nodes[g]
							first, count := int32(nd.First), int32(nd.Count)
							wantIdx, want, wantSt := scalarEvalTargets(tr, first, count, eps, sel, ar)
							gotIdx, got, gotSt := pairedEvalTargets(tr, first, count, eps, sel, ar)
							if fmt.Sprint(gotIdx) != fmt.Sprint(wantIdx) {
								t.Fatalf("group %d (%s): targets %v, want %v", g, how, gotIdx, wantIdx)
							}
							if d := bitsEqual(got, want); len(got) != len(want) || d >= 0 {
								t.Fatalf("group %d (%s): component %d of %d differs from the scalar kernels", g, how, d, len(want))
							}
							if gotSt != wantSt {
								t.Fatalf("group %d (%s): stats %+v, want %+v", g, how, gotSt, wantSt)
							}
							if len(wantIdx)%2 == 1 {
								odd++
							} else if len(wantIdx) > 0 {
								even++
							}
						}
						for _, g := range groups {
							groupList(tr, ar, g, 0.7, sel)
							check(g, "traversal order")
							// Move the first target's own entry to the
							// front of the list and the last target's to
							// the back.
							nd := &tr.Nodes[g]
							first, count := int32(nd.First), int32(nd.Count)
							lo := tr.nextTarget(first, first+count, sel)
							if lo == first+count || len(ar.pidx) < 2 {
								continue
							}
							hi := lo
							for j := lo + 1; j < first+count; j++ {
								if sel.selected(&tr.Sources[j]) {
									hi = j
								}
							}
							for k, want := range []int32{int32(tr.Sources[lo].Index), int32(tr.Sources[hi].Index)} {
								pos := k * (len(ar.pidx) - 1)
								for j := range ar.pidx {
									if ar.pidx[j] == want {
										swapPart(ar, j, pos)
										break
									}
								}
							}
							if ar.pidx[0] == int32(tr.Sources[lo].Index) && ar.pidx[len(ar.pidx)-1] == int32(tr.Sources[hi].Index) {
								ends++
							}
							check(g, "self at both ends")
						}
						if odd == 0 || even == 0 || ends == 0 {
							t.Fatalf("coverage: %d odd-target groups, %d even, %d lists with self at both ends; want each > 0", odd, even, ends)
						}
					})
				}
			}
		}
	}
}

// pairCaseReader decodes fuzz bytes into kernel inputs; it yields
// zeros once the bytes run out.
type pairCaseReader struct{ b []byte }

func (r *pairCaseReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// pairCasePalette makes coincident points, zero masses and extreme
// magnitudes likely.
var pairCasePalette = [...]float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -2.5, 1e-3, 3,
	1e-300, -1e-300, 1e300, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN(),
}

// f64 reads a palette value, or — when the selector's top bit is set —
// eight raw bytes of float64 bits.
func (r *pairCaseReader) f64() float64 {
	c := r.next()
	if c&0x80 == 0 {
		return pairCasePalette[int(c)%len(pairCasePalette)]
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = r.next()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

// decodePairCase builds a list of up to 8 cells and 8 leaf sources
// with indices in [0,4), two targets whose self indices are in the
// same range, and eps².
func decodePairCase(data []byte) (*WalkArena, pairAcc, float64) {
	r := &pairCaseReader{b: data}
	ar := NewWalkArena()
	nc, np := int(r.next()%9), int(r.next()%9)
	eps := r.f64()
	var p pairAcc
	for k := range 2 {
		p.x[k], p.y[k], p.z[k] = r.f64(), r.f64(), r.f64()
		p.self[k] = int32(r.next() % 4)
	}
	for range nc {
		ar.cx = append(ar.cx, r.f64())
		ar.cy = append(ar.cy, r.f64())
		ar.cz = append(ar.cz, r.f64())
		ar.cm = append(ar.cm, r.f64())
	}
	for range np {
		ar.px = append(ar.px, r.f64())
		ar.py = append(ar.py, r.f64())
		ar.pz = append(ar.pz, r.f64())
		ar.pm = append(ar.pm, r.f64())
		ar.pidx = append(ar.pidx, int32(r.next()%4))
	}
	return ar, p, eps * eps
}

// sameBits compares float64 bit patterns, treating every NaN as one
// value: the scalar kernels' compiled operand order may differ from
// the assembly's, which changes only which NaN payload propagates.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzPairKernels: for arbitrary small lists and target pairs, each
// lane of the two-lane kernels reproduces the scalar kernels' bits and
// self-exclusion counts for its target.
func FuzzPairKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ar, p, eps2 := decodePairCase(data)
		q := p
		ar.pairCellsMono(eps2, &q)
		ar.pairPartsExcept(eps2, &q)
		for k := range 2 {
			ax, ay, az := ar.evalCellsMono(p.x[k], p.y[k], p.z[k], eps2, 0, len(ar.cm), 0, 0, 0)
			ax, ay, az, skipped := ar.evalPartsExcept(p.x[k], p.y[k], p.z[k], eps2, p.self[k], 0, len(ar.pm), ax, ay, az)
			if !sameBits(q.ax[k], ax) || !sameBits(q.ay[k], ay) || !sameBits(q.az[k], az) {
				t.Fatalf("lane %d: paired (%x %x %x), scalar (%x %x %x)", k,
					math.Float64bits(q.ax[k]), math.Float64bits(q.ay[k]), math.Float64bits(q.az[k]),
					math.Float64bits(ax), math.Float64bits(ay), math.Float64bits(az))
			}
			if q.skip[k] != uint64(skipped) {
				t.Fatalf("lane %d: skipped %d, scalar skipped %d", k, q.skip[k], skipped)
			}
		}
	})
}
