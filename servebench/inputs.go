package main

import (
	"fmt"
	"math"
	"math/rand"

	"evvo/internal/cloud"
	"evvo/internal/road"
)

// Input generation. Everything a server receives — the generated routes
// and every request — is derived from the --seed argument here, so the same
// seed replays the same inputs and a different seed draws a fresh set.

const (
	// bucketSec is cloudd's default response-cache departure bucket;
	// departures sit on bucket starts so one request is one cache key.
	bucketSec = 5.0
	// streamBuckets is the span of departure buckets a stream draws from
	// (one day). Unique-key streams walk it sequentially from a seeded
	// offset, so a stream repeats a key only after this many requests.
	streamBuckets = 17280
	// warmBucket is the first bucket of the setup warm-up requests: past
	// every stream bucket, so a warm-up never pre-fills a timed key.
	warmBucket = streamBuckets
	// generatedRoutes is the number of road.NewRoute corridors added to
	// US-25. Lengths are stratified over 2–5 km (one stratum per route) so
	// the route-set average, and with it every per-plan mean, is stable
	// across seeds.
	generatedRoutes = 8
	// minRateVehPerHour and maxRateVehPerHour bound the per-request
	// arrival-rate override.
	minRateVehPerHour = 100
	maxRateVehPerHour = 250
	// hotKeys is the number of distinct (route, bucket, rate) keys the
	// hot-cache workload draws its batch items from: two per route.
	hotKeys = 2 * (generatedRoutes + 1)
)

// benchRoute is one route of the benchmark's route set. Route is the
// instance registered on the servers; the benchmark's own table builds and
// replays use it too.
type benchRoute struct {
	Name  string
	Route *road.Route
}

// genRoutes builds the route set: US-25 (pre-registered by every
// cloud.Server under "us25") plus generatedRoutes seeded corridors.
func genRoutes(seed int64) ([]benchRoute, error) {
	rng := rand.New(rand.NewSource(seed))
	out := []benchRoute{{Name: "us25", Route: road.US25()}}
	for k := 0; k < generatedRoutes; k++ {
		r, err := genCorridor(rng, k)
		if err != nil {
			return nil, fmt.Errorf("generated route %d: %w", k, err)
		}
		out = append(out, benchRoute{Name: fmt.Sprintf("gen-%02d", k), Route: r})
	}
	return out, nil
}

// genCorridor draws corridor k. Its shape is stratified by k so that the
// route set costs about the same to serve under every seed: k fixes the
// length to within 50 m of the middle of its 375 m slice of 2–5 km, the
// signal count (1–5, growing with length) and the speed band (40 km/h up
// to 56, 58 or 60 km/h). The seed draws the exact length, where the first
// signal sits (1150–1350 m), and every signal's red, green and offset.
// Segment lengths set how much a stitch costs, so they vary little. The layout keeps
// every signal reachable in a zero-queue window from any departure: the
// first signal sits far enough out, and later ones far enough apart, that
// the band's spread of arrival times covers the red phase plus its
// queue-clearing time. Trips stay under length/40 km/h ≤ 450 s, inside
// cloudd's 600 s MaxTripSec.
func genCorridor(rng *rand.Rand, k int) (*road.Route, error) {
	const (
		firstMinM, firstSpanM = 1150.0, 200.0
		endClearM             = 300.0
		lengthSpanM           = 100.0
	)
	signals := [generatedRoutes]int{1, 2, 2, 3, 3, 4, 4, 5}[k]
	stratum := 3000.0 / generatedRoutes
	length := 50 * math.Round((2000+stratum*(float64(k)+0.5)+lengthSpanM*(rng.Float64()-0.5))/50)
	minMS, maxMS := road.KmhToMs(40), road.KmhToMs(56+2*float64(k%3))
	first := 50 * math.Round((firstMinM+firstSpanM*rng.Float64())/50)
	spacing := 0.0
	if signals > 1 {
		spacing = (length - endClearM - first) / float64(signals-1)
	}
	controls := make([]road.Control, 0, signals)
	for i := 0; i < signals; i++ {
		pos := 50 * math.Floor((first+spacing*float64(i))/50)
		red := float64(15 + rng.Intn(8))
		green := float64(25 + rng.Intn(16))
		controls = append(controls, road.Control{
			Kind: road.ControlSignal, PositionM: pos, Name: fmt.Sprintf("light-%d", i+1),
			Timing: road.SignalTiming{RedSec: red, GreenSec: green, OffsetSec: float64(rng.Intn(int(red + green)))},
		})
	}
	return road.NewRoute(road.RouteConfig{
		LengthM: length, DefaultMinMS: minMS, DefaultMaxMS: maxMS, Controls: controls,
	})
}

// mix is splitmix64: a stateless hash that turns (seed, stream, index)
// into an independent draw, so request i of a stream is computed on demand
// by whichever client claims it, with no shared generator state.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream is a workload's seeded request sequence.
type stream struct {
	seed   uint64
	routes []benchRoute
	// hot, when non-empty, makes every request one of these keys.
	hot []cloud.Request
	// offset is the seeded first departure bucket of a unique-key stream;
	// routeOffset the seeded start of its route rotation.
	offset, routeOffset int
}

func newStream(seed int64, routes []benchRoute, hot bool) *stream {
	s := &stream{seed: mix(uint64(seed)), routes: routes}
	s.offset = int(mix(s.seed^1) % streamBuckets)
	s.routeOffset = int(mix(s.seed^2) % uint64(len(routes)))
	if hot {
		// Buckets counted down from the end of the stream's span, so hot
		// keys never coincide with unique-key buckets near the offset.
		for k := 0; k < hotKeys; k++ {
			s.hot = append(s.hot, s.unique(streamBuckets-1-k))
		}
	}
	return s
}

// at returns request i of the stream.
func (s *stream) at(i int) cloud.Request {
	if len(s.hot) > 0 {
		return s.hot[mix(s.seed^uint64(i)<<8)%uint64(len(s.hot))]
	}
	return s.unique(i)
}

// unique returns the i-th unique-key request: the routes in rotation, a
// seeded arrival rate, and departure bucket offset+i. The bucket alone
// makes the key unique for i < streamBuckets, so every request misses the
// response cache. The rotation gives every route the same share of any
// run, so per-plan means do not hinge on which routes a seed favours.
func (s *stream) unique(i int) cloud.Request {
	h := mix(s.seed + uint64(i)*0x9e3779b97f4a7c15)
	return cloud.Request{
		Route:                 s.routes[(s.routeOffset+i)%len(s.routes)].Name,
		DepartTime:            bucketSec * float64((s.offset+i)%streamBuckets),
		ArrivalRateVehPerHour: float64(minRateVehPerHour + int((h>>32)%(maxRateVehPerHour-minRateVehPerHour+1))),
	}
}

// warmups returns one request per route on a bucket no stream uses: the
// setup traffic that builds tables or fills solver pools before timing.
func warmups(routes []benchRoute) []cloud.Request {
	out := make([]cloud.Request, len(routes))
	for i, r := range routes {
		out[i] = cloud.Request{Route: r.Name, DepartTime: bucketSec * float64(warmBucket+i), ArrivalRateVehPerHour: 153}
	}
	return out
}
