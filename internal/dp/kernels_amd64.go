//go:build amd64

package dp

// CPU feature probes (kernels_amd64.s).
func dpcpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func dpxgetbv() (eax, edx uint32)

// relaxEvalAsm is the AVX2 form of relaxEvalGo over a 4-lane-aligned prefix:
// len(cost) must be a positive multiple of 4 and all six slices sized to
// match (mask holds len/4 bytes). Adds and multiplies are separate
// instructions in the reference's order (never FMA), the bucket index uses
// VROUNDPD toward -inf after the +0.5 add, and the clamp is VMINPD with
// kMaxF in the second-operand position — each lane performs the exact
// rounding sequence of relaxEvalGo.
//
//go:noescape
func relaxEvalAsm(cand, tot, k2f []float64, mask []uint8, cost, exact []float64,
	zeta, tCost, step, maxTrip, invDt, kMaxF float64)

// improveFilterAsm is the AVX2 form of improveFilterGo over a 4-lane-aligned
// prefix: len(cand) must be a positive multiple of 4, k2f and rowOff sized
// to match and mask holding len/4 bytes; floor is nil or longer than kMaxF.
// It gathers cost[idx] and floor[f] with VGATHERDPD and no bounds check;
// the improveFilter wrapper asserts the index range before calling it. The
// clamp is VMAXPD against 0 then VMINPD against kMaxF, each with the lane
// value as first operand, and the floor is added with one VADDPD.
//
//go:noescape
func improveFilterAsm(mask []uint8, cand, k2f, floor []float64, rowOff []int32, cost []float64, kMaxF float64) (expanded, kept int)

// asmSupported records the CPU probe; useAsmKernels is the live switch
// (SetAsmKernels can turn it off, or back on up to asmSupported).
var asmSupported = detectKernels()
var useAsmKernels = asmSupported

func detectKernels() bool {
	maxID, _, _, _ := dpcpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := dpcpuid(1, 0)
	const (
		popcnt  = 1 << 23
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&popcnt == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xcr0, _ := dpxgetbv(); xcr0&0x6 != 0x6 {
		return false // OS does not preserve YMM state
	}
	_, b7, _, _ := dpcpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}
