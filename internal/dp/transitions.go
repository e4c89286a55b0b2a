package dp

import (
	"math"

	"evvo/internal/ev"
	"evvo/internal/road"
)

// accelBands precomputes, per velocity index, the destination band reachable
// under the acceleration limits over one Δs (v'² = v² ± 2aΔs), and the
// inverse mapping: per destination index, the predecessor band. Both are
// grade-independent, so one table serves every stage.
//
// The inverse bands drive the gather-formulated relaxation (see parallel.go):
// a worker that owns destination column j2 scans exactly the predecessors j
// with lo[j] <= j2 <= hi[j].
type accelBands struct {
	lo, hi []int // per source j: reachable destination indexes (unclamped)
	pLo    []int // per destination j2: lowest predecessor j (clamped to grid)
	pHi    []int // per destination j2: highest predecessor j
}

// gridSpeed is the velocity j·dv of grid index j. The conversion rounds
// the product before any sum or difference of speeds uses it: arm64 would
// otherwise fuse it into that add, and an arm64 node would compute other
// transition costs, bands and plans than an amd64 one (`make kernel-fma`
// checks every function of the arm64 build).
func gridSpeed(j int, dv float64) float64 { return float64(float64(j) * dv) }

func newAccelBands(cfg *Config, ds float64, jMax int) *accelBands {
	b := &accelBands{
		lo:  make([]int, jMax+1),
		hi:  make([]int, jMax+1),
		pLo: make([]int, jMax+1),
		pHi: make([]int, jMax+1),
	}
	for j2 := 0; j2 <= jMax; j2++ {
		b.pLo[j2], b.pHi[j2] = jMax+1, -1
	}
	for j := 0; j <= jMax; j++ {
		v := float64(j) * cfg.DvMS
		vLo := math.Sqrt(math.Max(0, float64(v*v)-float64(2*cfg.DecelMaxMS2*ds)))
		vHi := math.Sqrt(float64(v*v) + float64(2*cfg.AccelMaxMS2*ds))
		b.lo[j] = int(math.Ceil(vLo/cfg.DvMS - 1e-9))
		b.hi[j] = int(math.Floor(vHi/cfg.DvMS + 1e-9))
		for j2 := max(0, b.lo[j]); j2 <= min(jMax, b.hi[j]); j2++ {
			if j < b.pLo[j2] {
				b.pLo[j2] = j
			}
			if j > b.pHi[j2] {
				b.pHi[j2] = j
			}
		}
	}
	return b
}

// transitionCache holds the per-(j, j2) transition physics, hoisted out of
// the DP's time-bucket loop. Traversal time dTau depends only on the speed
// pair, so it is shared; the charge ζ and the motor power-limit mask depend
// on the stage grade, so they are cached per distinct grade value — routes
// repeat grades across stages, so most stages hit the cache.
//
// Every table is transposed, [j2*(jMax+1)+j]: the gather relaxation
// (parallel.go) owns destination column j2 and scans its predecessor band
// j = pLo[j2]..pHi[j2], so the transposed layout makes that scan a
// contiguous structure-of-arrays read instead of a stride-(jMax+1) walk.
type transitionCache struct {
	veh     ev.Params
	dv      float64
	jMax    int
	bands   *accelBands
	dTauT   []float64 // filled for reachable pairs
	byGrade map[float64]*gradeTable
}

// gradeTable is the grade-dependent slice of the transition table.
type gradeTable struct {
	okT   []bool    // transition inside the motor's power envelope
	zetaT []float64 // pack charge of the transition in Ah
}

func newTransitionCache(cfg *Config, ds float64, jMax int, bands *accelBands) *transitionCache {
	c := &transitionCache{
		veh: cfg.Vehicle, dv: cfg.DvMS, jMax: jMax, bands: bands,
		dTauT:   make([]float64, (jMax+1)*(jMax+1)),
		byGrade: make(map[float64]*gradeTable),
	}
	for j := 0; j <= jMax; j++ {
		v := gridSpeed(j, c.dv)
		for j2 := max(0, bands.lo[j]); j2 <= min(jMax, bands.hi[j]); j2++ {
			v2 := gridSpeed(j2, c.dv)
			vAvg := (v + v2) / 2
			if vAvg <= 0 {
				continue // cannot cover Δs at zero average speed
			}
			c.dTauT[j2*(jMax+1)+j] = ds / vAvg
		}
	}
	return c
}

// forGrade returns (building on first use) the grade-dependent table.
func (c *transitionCache) forGrade(grade float64) *gradeTable {
	if g, hit := c.byGrade[grade]; hit {
		return g
	}
	g := &gradeTable{
		okT:   make([]bool, (c.jMax+1)*(c.jMax+1)),
		zetaT: make([]float64, (c.jMax+1)*(c.jMax+1)),
	}
	for j := 0; j <= c.jMax; j++ {
		v := gridSpeed(j, c.dv)
		for j2 := max(0, c.bands.lo[j]); j2 <= min(c.jMax, c.bands.hi[j]); j2++ {
			t := j2*(c.jMax+1) + j
			dTau := c.dTauT[t]
			if dTau == 0 {
				continue // unreachable pair (zero average speed)
			}
			v2 := gridSpeed(j2, c.dv)
			vAvg := (v + v2) / 2
			acc := (v2 - v) / dTau
			if !c.veh.WithinPowerLimit(vAvg, acc, grade) {
				continue // beyond the motor's power envelope
			}
			g.okT[t] = true
			g.zetaT[t] = c.veh.Charge(vAvg, acc, grade, dTau)
		}
	}
	c.byGrade[grade] = g
	return g
}

// routeMaxSpeed returns the fastest legal speed anywhere on the route. It
// samples every stage point and every speed-zone boundary: zones shorter
// than Δs that lie between stage points would otherwise be missed, sizing
// the velocity grid too small. Zone limits are piecewise constant and
// right-continuous (half-open [Start, End) intervals, later start wins), so
// every constant piece begins at position 0, a zone start, or a zone end —
// probing those covers the whole route.
func routeMaxSpeed(r *road.Route, n int, ds float64) float64 {
	maxSpeed := 0.0
	probe := func(pos float64) {
		if pos < 0 {
			pos = 0
		}
		if pos > r.LengthM()-1e-9 {
			pos = r.LengthM() - 1e-9
		}
		if _, mx := r.SpeedLimits(pos); mx > maxSpeed {
			maxSpeed = mx
		}
	}
	for i := 0; i <= n; i++ {
		probe(math.Min(float64(i)*ds, r.LengthM()-1e-9))
	}
	for _, z := range r.SpeedZones() {
		probe(z.StartM)
		probe(z.EndM)
	}
	return maxSpeed
}
