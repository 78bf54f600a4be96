//go:build !amd64

package treecode

// pairCellsMono accumulates every cell monopole of the arena's list
// into both lanes of p, running evalCellsMono once per lane.
func (ar *WalkArena) pairCellsMono(eps2 float64, p *pairAcc) {
	for k := range 2 {
		p.ax[k], p.ay[k], p.az[k] = ar.evalCellsMono(p.x[k], p.y[k], p.z[k], eps2, 0, len(ar.cm), p.ax[k], p.ay[k], p.az[k])
	}
}

// pairPartsExcept accumulates every leaf source of the arena's list
// into both lanes of p, running evalPartsExcept once per lane.
func (ar *WalkArena) pairPartsExcept(eps2 float64, p *pairAcc) {
	for k := range 2 {
		var skipped int
		p.ax[k], p.ay[k], p.az[k], skipped = ar.evalPartsExcept(p.x[k], p.y[k], p.z[k], eps2, p.self[k], 0, len(ar.pm), p.ax[k], p.ay[k], p.az[k])
		p.skip[k] = uint64(skipped)
	}
}
