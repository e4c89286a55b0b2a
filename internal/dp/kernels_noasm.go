//go:build !amd64

package dp

// Non-amd64 builds run the portable relaxEvalGo only; the dispatch flags
// stay false so relaxEvalAsm and improveFilterAsm are never reached.
var asmSupported = false
var useAsmKernels = false

func relaxEvalAsm(cand, tot, k2f []float64, mask []uint8, cost, exact []float64,
	zeta, tCost, step, maxTrip, invDt, kMaxF float64) {
	panic("dp: relaxEvalAsm called without amd64 support")
}

func improveFilterAsm(mask []uint8, cand, k2f, floor []float64, rowOff []int32, cost []float64, kMaxF float64) (expanded, kept int) {
	panic("dp: improveFilterAsm called without amd64 support")
}
