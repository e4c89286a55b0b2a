//go:build amd64

#include "textflag.h"

// AVX2 kernels for the DP relaxation's evaluation pass and the
// improvement pre-test of both commits. relaxEvalAsm's contract (see
// kernels.go): per lane, floating-point operations happen in the exact
// order of relaxEvalGo — separate VMULPD/VADDPD (an FMA would skip the
// intermediate rounding the reference performs), VROUNDPD toward -inf for
// the floor, VMINPD with kMaxF as the second operand so the clamp keeps
// the floor result whenever it is strictly below kMaxF, exactly like the
// reference's `if f > kMaxF` branch on NaN-free input.

// func dpcpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·dpcpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func dpxgetbv() (eax, edx uint32)
TEXT ·dpxgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// 4-lane broadcast constants: the inf sentinel (math.MaxFloat64, assigned
// verbatim by the DP, never computed) and the rounding bias.
DATA relaxinf<>+0(SB)/8, $0x7FEFFFFFFFFFFFFF
GLOBL relaxinf<>+0(SB), RODATA, $8
DATA relaxhalf<>+0(SB)/8, $0.5
GLOBL relaxhalf<>+0(SB), RODATA, $8

// func relaxEvalAsm(cand, tot, k2f []float64, mask []uint8, cost, exact []float64,
//	zeta, tCost, step, maxTrip, invDt, kMaxF float64)
//
// len(cost) is a positive multiple of 4 (the Go wrapper slices to the
// aligned prefix). Per 4-lane block:
//
//	e    = exact + step
//	cand = (cost + zeta) + tCost
//	k2f  = min(floor(e*invDt + 0.5), kMaxF)
//	mask = (cost != inf) & (e <= maxTrip)   // NEQ_UQ, LE_OS sign bits
//
// Register map: DI=cand SI=tot DX=k2f BX=mask R8=cost R9=exact CX=len
// R10=lane index; Y8=zeta Y9=tCost Y10=step Y11=maxTrip Y12=invDt
// Y13=0.5 Y14=kMaxF Y15=inf, Y0-Y5 scratch.
TEXT ·relaxEvalAsm(SB), NOSPLIT, $0-192
	MOVQ cand_base+0(FP), DI
	MOVQ tot_base+24(FP), SI
	MOVQ k2f_base+48(FP), DX
	MOVQ mask_base+72(FP), BX
	MOVQ cost_base+96(FP), R8
	MOVQ cost_len+104(FP), CX
	MOVQ exact_base+120(FP), R9
	VBROADCASTSD zeta+144(FP), Y8
	VBROADCASTSD tCost+152(FP), Y9
	VBROADCASTSD step+160(FP), Y10
	VBROADCASTSD maxTrip+168(FP), Y11
	VBROADCASTSD invDt+176(FP), Y12
	VBROADCASTSD relaxhalf<>+0(SB), Y13
	VBROADCASTSD kMaxF+184(FP), Y14
	VBROADCASTSD relaxinf<>+0(SB), Y15
	XORQ R10, R10

relaxloop:
	VMOVUPD (R8)(R10*8), Y0   // c0 = cost
	VMOVUPD (R9)(R10*8), Y1   // exact
	VADDPD  Y10, Y1, Y1       // e = exact + step
	VADDPD  Y8, Y0, Y2        // c0 + zeta
	VADDPD  Y9, Y2, Y2        // (c0 + zeta) + tCost
	VMOVUPD Y2, (DI)(R10*8)   // cand
	VMOVUPD Y1, (SI)(R10*8)   // tot
	VMULPD  Y12, Y1, Y3       // e * invDt
	VADDPD  Y13, Y3, Y3       // + 0.5
	VROUNDPD $1, Y3, Y3       // floor (toward -inf)
	VMINPD  Y14, Y3, Y3       // min(·, kMaxF); keeps floor when < kMaxF
	VMOVUPD Y3, (DX)(R10*8)   // k2f
	VCMPPD  $4, Y15, Y0, Y4   // c0 != inf (NEQ_UQ)
	VCMPPD  $2, Y11, Y1, Y5   // e <= maxTrip (LE_OS)
	VANDPD  Y5, Y4, Y4
	VMOVMSKPD Y4, AX          // 4 sign bits -> low nibble
	MOVB    AX, (BX)
	INCQ    BX
	ADDQ    $4, R10
	CMPQ    R10, CX
	JLT     relaxloop

	VZEROUPPER
	RET

// func improveFilterAsm(mask []uint8, cand, k2f, floor []float64, rowOff []int32, cost []float64, kMaxF float64) (expanded, kept int)
//
// len(cand) is a positive multiple of 4. Per 4-lane block whose mask byte
// is non-zero:
//
//	expanded += popcount(mask byte)
//	f     = int32(min(max(k2f, 0), kMaxF))
//	nc    = cand + floor[f]                    // VGATHERDPD; skipped for a nil floor
//	mask &= movmsk(nc < cost[rowOff + f])      // VGATHERDPD, LT_OS
//	kept += popcount(mask byte)
//
// Blocks with a zero mask byte are skipped without touching memory. All
// four lanes of a live block are gathered, masked-out ones included: the
// clamp keeps every index in [0, maxRowOff+kMax] for cost and [0, kMax]
// for floor, which the Go wrapper has checked against both lengths.
//
// Register map: BX=mask DI=cand SI=k2f R9=floor (0 = nil) DX=rowOff
// R8=cost CX=len R10=lane index R11=expanded R13=kept; Y13=0 Y14=kMaxF,
// Y0-Y6 scratch (Y2 and Y5 are gather masks, which VGATHERDPD clears, so
// they are re-armed per block).
TEXT ·improveFilterAsm(SB), NOSPLIT, $0-168
	MOVQ mask_base+0(FP), BX
	MOVQ cand_base+24(FP), DI
	MOVQ cand_len+32(FP), CX
	MOVQ k2f_base+48(FP), SI
	MOVQ floor_base+72(FP), R9
	MOVQ rowOff_base+96(FP), DX
	MOVQ cost_base+120(FP), R8
	VBROADCASTSD kMaxF+144(FP), Y14
	VXORPD  Y13, Y13, Y13
	XORQ    R10, R10
	XORQ    R11, R11
	XORQ    R13, R13

filterloop:
	MOVBLZX (BX), AX
	TESTL   AX, AX
	JZ      filternext
	POPCNTL AX, R12
	ADDQ    R12, R11
	VMOVUPD (SI)(R10*8), Y0   // k2f
	VMAXPD  Y13, Y0, Y0       // max(k2f, 0); NaN -> 0
	VMINPD  Y14, Y0, Y0       // min(·, kMaxF)
	VCVTTPD2DQY Y0, X1        // bucket as int32
	VMOVUPD (DI)(R10*8), Y4   // cand
	TESTQ   R9, R9
	JZ      filtercell
	VPCMPEQD Y5, Y5, Y5       // gather every lane
	VGATHERDPD Y5, (R9)(X1*8), Y6 // floor[bucket]
	VADDPD  Y6, Y4, Y4        // cand + floor, the commit's penalty add

filtercell:
	VPADDD  (DX)(R10*4), X1, X1 // idx = rowOff + bucket
	VPCMPEQD Y2, Y2, Y2       // gather every lane
	VGATHERDPD Y2, (R8)(X1*8), Y3 // cost[idx]
	VCMPPD  $1, Y3, Y4, Y4    // nc < cost[idx] (LT_OS)
	VMOVMSKPD Y4, R12
	ANDL    R12, AX
	MOVB    AX, (BX)
	POPCNTL AX, R12
	ADDQ    R12, R13

filternext:
	INCQ    BX
	ADDQ    $4, R10
	CMPQ    R10, CX
	JLT     filterloop

	VZEROUPPER
	MOVQ    R11, expanded+152(FP)
	MOVQ    R13, kept+160(FP)
	RET
