package dp_test

import (
	"fmt"

	"evvo/internal/dp"
	"evvo/internal/ev"
	"evvo/internal/queue"
	"evvo/internal/road"
)

// ExampleOptimize plans the paper's US-25 trip with queue-aware arrival
// windows: the EV reaches both lights inside the zero-queue window T_q and
// never meets a standing queue.
func ExampleOptimize() {
	windows, err := dp.QueueAwareWindows(queue.US25Params(),
		dp.ConstantArrivalRate(queue.VehPerHour(153)), 0, 800)
	if err != nil {
		panic(err)
	}
	res, err := dp.Optimize(dp.Config{
		Route:   road.US25(),
		Vehicle: ev.SparkEV(),
		// Coarse grid keeps the example quick; drop DsM/DvMS/DtSec for the
		// report-quality defaults.
		DsM: 100, DvMS: 1, DtSec: 2,
		StopDwellSec: 2,
		Windows:      windows,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("penalized=%v, %d signal arrivals\n", res.Penalized, len(res.Arrivals))
	for _, a := range res.Arrivals {
		fmt.Printf("  %s: in zero-queue window=%v\n", a.Name, a.InWindow)
	}
	// Output:
	// penalized=false, 2 signal arrivals
	//   light-1: in zero-queue window=true
	//   light-2: in zero-queue window=true
}
