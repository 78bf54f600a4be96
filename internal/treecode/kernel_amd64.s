#include "go_asm.h"
#include "textflag.h"

// Two-lane SSE2 force kernels: lane k of every packed register holds
// target k of a pairAcc, and each source entry is loaded once and
// broadcast to both lanes. Every lane performs the scalar kernels'
// operations in their order — SUBPD/MULPD/ADDPD/SQRTPD/DIVPD are the
// lane-wise IEEE operations of SUBSD/MULSD/ADDSD/SQRTSD/DIVSD, and
// nothing is fused — so each lane's bits equal evalCellsMono's or
// evalPartsExcept's for its target.

// func pairCellsMonoSSE2(cx, cy, cz, cm *float64, n int, eps2 float64, p *pairAcc)
TEXT ·pairCellsMonoSSE2(SB), NOSPLIT, $0-56
	MOVQ  cx+0(FP), SI
	MOVQ  cy+8(FP), DI
	MOVQ  cz+16(FP), R8
	MOVQ  cm+24(FP), R9
	MOVQ  n+32(FP), CX
	MOVSD eps2+40(FP), X3
	UNPCKLPD X3, X3
	MOVQ  p+48(FP), DX
	MOVUPD pairAcc_x(DX), X0
	MOVUPD pairAcc_y(DX), X1
	MOVUPD pairAcc_z(DX), X2
	MOVSD $(1.0), X4
	UNPCKLPD X4, X4
	MOVUPD pairAcc_ax(DX), X5
	MOVUPD pairAcc_ay(DX), X6
	MOVUPD pairAcc_az(DX), X7
	XORQ  AX, AX

cellLoop:
	CMPQ AX, CX
	JGE  cellDone
	// dx, dy, dz := c - target
	MOVSD    (SI)(AX*8), X8
	UNPCKLPD X8, X8
	SUBPD    X0, X8
	MOVSD    (DI)(AX*8), X9
	UNPCKLPD X9, X9
	SUBPD    X1, X9
	MOVSD    (R8)(AX*8), X10
	UNPCKLPD X10, X10
	SUBPD    X2, X10
	// r2 := ((dx*dx + dy*dy) + dz*dz) + eps2
	MOVAPD X8, X11
	MULPD  X8, X11
	MOVAPD X9, X12
	MULPD  X9, X12
	ADDPD  X12, X11
	MOVAPD X10, X12
	MULPD  X10, X12
	ADDPD  X12, X11
	ADDPD  X3, X11
	// rinv := 1 / sqrt(r2); rinv2 := rinv * rinv
	SQRTPD X11, X11
	MOVAPD X4, X12
	DIVPD  X11, X12
	MOVAPD X12, X11
	MULPD  X12, X11
	// mono := (m * rinv) * rinv2
	MOVSD    (R9)(AX*8), X13
	UNPCKLPD X13, X13
	MULPD    X12, X13
	MULPD    X11, X13
	// a += mono * d
	MULPD X13, X8
	ADDPD X8, X5
	MULPD X13, X9
	ADDPD X9, X6
	MULPD X13, X10
	ADDPD X10, X7
	INCQ  AX
	JMP   cellLoop

cellDone:
	MOVUPD X5, pairAcc_ax(DX)
	MOVUPD X6, pairAcc_ay(DX)
	MOVUPD X7, pairAcc_az(DX)
	RET

// func pairPartsExceptSSE2(px, py, pz, pm *float64, idx *int32, n int, eps2 float64, p *pairAcc)
//
// A lane whose self index matches the entry has its three products
// ANDed with zero, so it adds +0: the accumulators start at +0 and a
// sum starting at +0 is never -0, so adding +0 leaves it unchanged,
// exactly as the scalar kernel's skip does — including the NaN an
// unsoftened self-term would produce.
TEXT ·pairPartsExceptSSE2(SB), NOSPLIT, $0-64
	MOVQ  px+0(FP), SI
	MOVQ  py+8(FP), DI
	MOVQ  pz+16(FP), R8
	MOVQ  pm+24(FP), R9
	MOVQ  idx+32(FP), R10
	MOVQ  n+40(FP), CX
	MOVSD eps2+48(FP), X3
	UNPCKLPD X3, X3
	MOVQ  p+56(FP), DX
	MOVUPD pairAcc_x(DX), X0
	MOVUPD pairAcc_y(DX), X1
	MOVUPD pairAcc_z(DX), X2
	MOVSD $(1.0), X4
	UNPCKLPD X4, X4
	MOVUPD pairAcc_ax(DX), X5
	MOVUPD pairAcc_ay(DX), X6
	MOVUPD pairAcc_az(DX), X7
	// X14 = dwords {self0, self0, self1, self1}: a 32-bit compare
	// against a broadcast index then yields all-ones 64-bit lanes.
	MOVQ      pairAcc_self(DX), X14
	PUNPCKLLQ X14, X14
	PXOR      X15, X15
	XORQ      AX, AX

partLoop:
	CMPQ AX, CX
	JGE  partDone
	// px, py, pz := s - target
	MOVSD    (SI)(AX*8), X8
	UNPCKLPD X8, X8
	SUBPD    X0, X8
	MOVSD    (DI)(AX*8), X9
	UNPCKLPD X9, X9
	SUBPD    X1, X9
	MOVSD    (R8)(AX*8), X10
	UNPCKLPD X10, X10
	SUBPD    X2, X10
	// r2 := ((px*px + py*py) + pz*pz) + eps2
	MOVAPD X8, X11
	MULPD  X8, X11
	MOVAPD X9, X12
	MULPD  X9, X12
	ADDPD  X12, X11
	MOVAPD X10, X12
	MULPD  X10, X12
	ADDPD  X12, X11
	ADDPD  X3, X11
	// rinv := 1 / sqrt(r2)
	SQRTPD X11, X11
	MOVAPD X4, X12
	DIVPD  X11, X12
	// f := ((m * rinv) * rinv) * rinv
	MOVSD    (R9)(AX*8), X13
	UNPCKLPD X13, X13
	MULPD    X12, X13
	MULPD    X12, X13
	MULPD    X12, X13
	// products f * p
	MULPD X13, X8
	MULPD X13, X9
	MULPD X13, X10
	// X11 = lanes whose self equals idx[i]; skip -= -1 there, then
	// keep = ^X11 masks those lanes' products to +0.
	MOVSS   (R10)(AX*4), X11
	PSHUFL  $0, X11, X11
	PCMPEQL X14, X11
	PSUBQ   X11, X15
	PCMPEQL X12, X12
	PXOR    X12, X11
	ANDPD   X11, X8
	ANDPD   X11, X9
	ANDPD   X11, X10
	ADDPD   X8, X5
	ADDPD   X9, X6
	ADDPD   X10, X7
	INCQ    AX
	JMP     partLoop

partDone:
	MOVUPD X5, pairAcc_ax(DX)
	MOVUPD X6, pairAcc_ay(DX)
	MOVUPD X7, pairAcc_az(DX)
	MOVUPD X15, pairAcc_skip(DX)
	RET
