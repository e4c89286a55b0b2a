package neural

import (
	"fmt"
	"math/rand"
	"runtime"

	"evvo/internal/par"
)

// TrainConfig parameterizes minibatch SGD with momentum and L2 decay.
type TrainConfig struct {
	// Epochs is the number of full passes (required, > 0).
	Epochs int
	// BatchSize is the minibatch size (default 16).
	BatchSize int
	// LR is the learning rate (default 0.05).
	LR float64
	// Momentum is the classical momentum coefficient (default 0.9).
	Momentum float64
	// L2 is the weight-decay coefficient (default 0).
	L2 float64
	// Rng drives shuffling (required for determinism).
	Rng *rand.Rand
	// Workers bounds the goroutines sharding each minibatch pass. 0 uses
	// runtime.GOMAXPROCS(0); 1 forces serial. Any worker count produces
	// bit-identical weights (see the ownership argument in mat.go and
	// DESIGN.md), so this is purely a throughput knob. Tiny layers stay
	// serial regardless: sharding only kicks in past a work threshold.
	Workers int
}

func (c *TrainConfig) applyDefaults() {
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

func (c *TrainConfig) validate(n *Network, x, y [][]float64) error {
	switch {
	case c.Epochs <= 0:
		return fmt.Errorf("neural: epochs %d must be positive", c.Epochs)
	case c.BatchSize <= 0:
		return fmt.Errorf("neural: batch size %d must be positive", c.BatchSize)
	case c.LR <= 0:
		return fmt.Errorf("neural: learning rate %g must be positive", c.LR)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("neural: momentum %g must be in [0, 1)", c.Momentum)
	case c.L2 < 0:
		return fmt.Errorf("neural: L2 %g must be non-negative", c.L2)
	case c.Rng == nil:
		return fmt.Errorf("neural: nil RNG; pass rand.New(rand.NewSource(seed))")
	case c.Workers < 0:
		return fmt.Errorf("neural: workers %d must be non-negative", c.Workers)
	case len(x) == 0 || len(x) != len(y):
		return fmt.Errorf("neural: dataset sizes %d/%d invalid", len(x), len(y))
	}
	for i := range x {
		if len(x[i]) != n.InputDim() {
			return fmt.Errorf("neural: sample %d has width %d, network wants %d", i, len(x[i]), n.InputDim())
		}
		if len(y[i]) != n.OutputDim() {
			return fmt.Errorf("neural: target %d has width %d, network wants %d", i, len(y[i]), n.OutputDim())
		}
	}
	return nil
}

// minParFlops is the per-pass work (multiply-adds) below which minibatch
// sharding is not attempted: goroutine handoff costs more than it saves.
// The gate affects scheduling only, never results — every output element
// is owned by exactly one worker either way.
const minParFlops = 1 << 17

// trainState owns every buffer the minibatch loop touches, sized once for
// the largest batch, so the steady-state epoch loop allocates nothing.
// All matrices are maxB-row; only the first b rows participate in a batch.
type trainState struct {
	n       *Network
	workers int
	b       int // rows in the current batch

	xb, yb *Mat   // gathered minibatch inputs and targets
	zs     []*Mat // per layer: pre-activations W·x+b
	as     []*Mat // per layer: activations
	deltas []*Mat // per layer: backpropagated δ

	wt [][]float64 // per layer: Wᵀ packed In×Out for the forward pass

	g, vel *grads
}

func newTrainState(n *Network, maxB, workers int) *trainState {
	ts := &trainState{
		n:       n,
		workers: workers,
		xb:      NewMat(maxB, n.InputDim()),
		yb:      NewMat(maxB, n.OutputDim()),
		g:       newGrads(n),
		vel:     newGrads(n),
	}
	for _, l := range n.Layers {
		ts.zs = append(ts.zs, NewMat(maxB, l.Out))
		ts.as = append(ts.as, NewMat(maxB, l.Out))
		ts.deltas = append(ts.deltas, NewMat(maxB, l.Out))
		ts.wt = append(ts.wt, make([]float64, l.In*l.Out))
	}
	return ts
}

// input returns the activation matrix feeding layer li.
func (ts *trainState) input(li int) *Mat {
	if li == 0 {
		return ts.xb
	}
	return ts.as[li-1]
}

// Batched pass kinds for dispatch (see shard).
const (
	opForward = iota
	opBackward
	opGrad
)

// runOp dispatches one batched pass chunk to its row kernel.
func (ts *trainState) runOp(op, li, lo, hi int) {
	switch op {
	case opForward:
		ts.forwardRows(li, lo, hi)
	case opBackward:
		ts.backwardRows(li, lo, hi)
	case opGrad:
		ts.gradRows(li, lo, hi)
	}
}

// shard runs one batched pass over [0, n) — batch rows for forward/
// backward, output units for gradients — splitting it into one contiguous
// chunk per worker when the pass is worth parallelizing. Each chunk is an
// ownership partition: a worker writes only the output elements in its
// range and computes each with the same serial-order accumulation, so
// results are bit-identical for any worker count (the same argument as the
// DP gather relaxation, DESIGN.md §6). The serial path calls runOp
// directly and allocates nothing; the closure below only exists on the
// parallel path.
func (ts *trainState) shard(op, li, n, flops int) {
	w := ts.workers
	if w > n {
		w = n
	}
	if w <= 1 || flops < minParFlops {
		ts.runOp(op, li, 0, n)
		return
	}
	par.ForEach(w, w, func(i int) error {
		lo, hi := i*n/w, (i+1)*n/w
		if lo < hi {
			ts.runOp(op, li, lo, hi)
		}
		return nil
	})
}

// forwardRows computes z = x·Wᵀ + b and a = act(z) for batch rows
// [lo, hi) of layer li: bias-initialize the rows, one gemmAcc over the
// whole shard, then one fused activation pass over the contiguous block.
// Per output element the accumulation starts at the bias and adds inputs
// in ascending order — exactly Dense.Forward.
func (ts *trainState) forwardRows(li, lo, hi int) {
	l := ts.n.Layers[li]
	in := ts.input(li)
	z, a := ts.zs[li], ts.as[li]
	for s := lo; s < hi; s++ {
		copy(z.Row(s), l.B)
	}
	gemmAcc(z.Data[lo*l.Out:], in.Data[lo*l.In:], ts.wt[li], hi-lo, l.In, l.Out, l.Out, l.In, 1)
	actVec(l.Act, a.Data[lo*l.Out:hi*l.Out], z.Data[lo*l.Out:hi*l.Out])
}

// backwardRows propagates δ of layer li down to layer li-1 for batch rows
// [lo, hi): δ_below = (δ·W) ⊙ act'(a_below). Per element: ascending-o
// accumulation, then one deriv multiply — exactly the sample-level loop.
func (ts *trainState) backwardRows(li, lo, hi int) {
	l := ts.n.Layers[li]
	below := ts.n.Layers[li-1]
	d, dp := ts.deltas[li], ts.deltas[li-1]
	outs := ts.as[li-1]
	blk := dp.Data[lo*l.In : hi*l.In]
	clearF(blk)
	gemmAcc(dp.Data[lo*l.In:], d.Data[lo*l.Out:], l.W, hi-lo, l.Out, l.In, l.In, l.Out, 1)
	derivMulVec(below.Act, blk, outs.Data[lo*l.In:hi*l.In])
}

// gradRows accumulates layer li's gradient rows for output units
// [lo, hi): dW[o] += Σ_s δ[s][o]·x[s], dB[o] += Σ_s δ[s][o], samples in
// ascending order per element — the order the per-sample reference used.
// The strided-a gemmAcc reads δᵀ directly out of the row-major δ matrix,
// so no transpose pass or scratch is needed.
func (ts *trainState) gradRows(li, lo, hi int) {
	l := ts.n.Layers[li]
	in := ts.input(li)
	d := ts.deltas[li]
	for o := lo; o < hi; o++ {
		sum := ts.g.dB[li][o]
		for s := 0; s < ts.b; s++ {
			sum += d.Data[s*l.Out+o]
		}
		ts.g.dB[li][o] = sum
	}
	gemmAcc(ts.g.dW[li][lo*l.In:], d.Data[lo:], in.Data, hi-lo, ts.b, l.In, l.In, 1, l.Out)
}

// outputDelta computes the output-layer δ = (y − t) ⊙ act'(y) and folds
// each sample's ½Σe² loss into the running epoch loss, sample by sample in
// batch order (the same accumulation sequence as the per-sample loop).
func (ts *trainState) outputDelta(epochLoss float64) float64 {
	li := len(ts.n.Layers) - 1
	last := ts.n.Layers[li]
	out, d := ts.as[li], ts.deltas[li]
	for s := 0; s < ts.b; s++ {
		or := out.Row(s)[:last.Out]
		yr := ts.yb.Row(s)[:last.Out]
		dr := d.Row(s)[:last.Out]
		var loss float64
		for o, ov := range or {
			e := ov - yr[o]
			loss += 0.5 * e * e
			dr[o] = e * last.Act.derivFromOutput(ov)
		}
		epochLoss += loss
	}
	return epochLoss
}

// runBatch performs one full minibatch step (gather, forward, backprop,
// parameter update) and returns the updated running epoch loss. It
// allocates nothing in the serial path.
func (ts *trainState) runBatch(x, y [][]float64, batch []int, cfg *TrainConfig, epochLoss float64) float64 {
	ts.b = len(batch)
	for r, s := range batch {
		copy(ts.xb.Row(r), x[s])
		copy(ts.yb.Row(r), y[s])
	}
	layers := ts.n.Layers
	for li, l := range layers {
		packTranspose(ts.wt[li], l.W, l.Out, l.In)
		ts.shard(opForward, li, ts.b, ts.b*l.In*l.Out)
	}
	epochLoss = ts.outputDelta(epochLoss)
	ts.g.zero()
	for li := len(layers) - 1; li >= 0; li-- {
		l := layers[li]
		ts.shard(opGrad, li, l.Out, ts.b*l.In*l.Out)
		if li > 0 {
			ts.shard(opBackward, li, ts.b, ts.b*l.In*l.Out)
		}
	}
	scale := cfg.LR / float64(ts.b)
	for li, l := range layers {
		updateParams(l.W, ts.g.dW[li], ts.vel.dW[li], cfg.Momentum, scale, cfg.L2)
		updateBias(l.B, ts.g.dB[li], ts.vel.dB[li], cfg.Momentum, scale)
	}
	return epochLoss
}

// updateBias is the bias step: like updateParams but with no decay term at
// all (the reference bias loop never formed g+l2·w, so even l2=0 would not
// be bit-equivalent when g is a signed zero).
func updateBias(b, g, vel []float64, mom, scale float64) {
	for i := range b {
		v := mom*vel[i] - scale*g[i]
		vel[i] = v
		b[i] += v
	}
}

// Train fits the network to (x, y) by minibatch SGD and returns the final
// epoch's mean training loss.
//
// The minibatch pass runs on the batched kernels in mat.go; weights after
// every step are bit-identical to the historical per-sample implementation
// and to any cfg.Workers setting, because every kernel preserves the
// per-element accumulation order of the reference loops.
//
//lint:certify pure
func (n *Network) Train(x, y [][]float64, cfg TrainConfig) (float64, error) {
	cfg.applyDefaults()
	if err := cfg.validate(n, x, y); err != nil {
		return 0, err
	}
	maxB := cfg.BatchSize
	if maxB > len(x) {
		maxB = len(x)
	}
	ts := newTrainState(n, maxB, cfg.Workers)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	swap := func(i, j int) { idx[i], idx[j] = idx[j], idx[i] }
	var epochLoss float64
	for e := 0; e < cfg.Epochs; e++ {
		epochLoss = ts.runEpoch(x, y, idx, swap, &cfg)
	}
	return epochLoss, nil
}

// runEpoch is one full steady-state pass: shuffle, then every minibatch.
// With Workers==1 it performs zero heap allocations (guarded by
// TestTrainEpochAllocs); every buffer lives in the trainState.
func (ts *trainState) runEpoch(x, y [][]float64, idx []int, swap func(i, j int), cfg *TrainConfig) float64 {
	cfg.Rng.Shuffle(len(idx), swap)
	var epochLoss float64
	for start := 0; start < len(idx); start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > len(idx) {
			end = len(idx)
		}
		epochLoss = ts.runBatch(x, y, idx[start:end], cfg, epochLoss)
	}
	return epochLoss / float64(len(x))
}
