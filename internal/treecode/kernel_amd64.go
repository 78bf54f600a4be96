package treecode

// pairCellsMonoSSE2 accumulates cells [0,n) of the monopole columns
// into both lanes of p. It reads n entries of every column and checks
// no bounds.
//
//go:noescape
func pairCellsMonoSSE2(cx, cy, cz, cm *float64, n int, eps2 float64, p *pairAcc)

// pairPartsExceptSSE2 accumulates leaf sources [0,n) into both lanes
// of p, masking out the entries whose index equals the lane's self and
// counting them in p.skip. It reads n entries of every column and
// checks no bounds.
//
//go:noescape
func pairPartsExceptSSE2(px, py, pz, pm *float64, idx *int32, n int, eps2 float64, p *pairAcc)

// pairCellsMono accumulates every cell monopole of the arena's list
// into both lanes of p, bit-identical per lane to evalCellsMono.
func (ar *WalkArena) pairCellsMono(eps2 float64, p *pairAcc) {
	n := len(ar.cm)
	if n == 0 {
		return
	}
	_, _, _ = ar.cx[n-1], ar.cy[n-1], ar.cz[n-1]
	pairCellsMonoSSE2(&ar.cx[0], &ar.cy[0], &ar.cz[0], &ar.cm[0], n, eps2, p)
}

// pairPartsExcept accumulates every leaf source of the arena's list
// into both lanes of p with per-lane self-exclusion, bit-identical per
// lane to evalPartsExcept; p.skip receives each lane's skipped count.
func (ar *WalkArena) pairPartsExcept(eps2 float64, p *pairAcc) {
	n := len(ar.pm)
	if n == 0 {
		p.skip = [2]uint64{}
		return
	}
	_, _, _, _ = ar.px[n-1], ar.py[n-1], ar.pz[n-1], ar.pidx[n-1]
	pairPartsExceptSSE2(&ar.px[0], &ar.py[0], &ar.pz[0], &ar.pm[0], &ar.pidx[0], n, eps2, p)
}
