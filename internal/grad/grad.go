// Package grad is the synthetic gradient oracle that stands in for
// forward/backward passes over real datasets. The objective is a
// deterministic quadratic bowl per model: L(x) = ||x - x*||², whose
// gradient 2(x - x*) is computed analytically, plus bounded per-worker
// pseudo-noise so workers disagree like data-parallel shards do.
//
// Why this substitution is sound: checkpointing code interacts with
// training only through gradient tensors (their layout, size, and when
// they are produced) and the optimizer update. The oracle produces real
// layer-structured gradients in reverse layer order (backward-pass order),
// training genuinely converges, and recovered models can be compared
// bit-exactly against live ones.
package grad

import (
	"fmt"

	"lowdiff/internal/model"
	"lowdiff/internal/tensor"
)

// Oracle produces deterministic synthetic gradients for a model spec.
type Oracle struct {
	spec    model.Spec
	offsets []int         // spec.LayerOffsets(), cached for the per-layer path
	target  tensor.Vector // the bowl minimum x*
	noise   float64       // uniform noise half-width added per worker
	seed    uint64
}

// New creates an oracle for spec. seed fixes the bowl minimum and the noise
// streams; noise sets the per-worker disagreement half-width (0 disables).
func New(spec model.Spec, seed uint64, noise float64) (*Oracle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if noise < 0 {
		return nil, fmt.Errorf("grad: negative noise %v", noise)
	}
	o := &Oracle{spec: spec, offsets: spec.LayerOffsets(), noise: noise, seed: seed}
	o.target = tensor.New(spec.NumParams())
	r := tensor.NewRNG(seed ^ 0xa5a5a5a5a5a5a5a5)
	r.FillUniform(o.target, -0.5, 0.5)
	return o, nil
}

// Spec returns the model spec the oracle serves.
func (o *Oracle) Spec() model.Spec { return o.spec }

// Loss returns the bowl objective at params.
func (o *Oracle) Loss(params tensor.Vector) (float64, error) {
	if len(params) != len(o.target) {
		return 0, fmt.Errorf("grad: loss over %d params, want %d", len(params), len(o.target))
	}
	var s float64
	for i, x := range params {
		d := float64(x - o.target[i])
		s += d * d
	}
	return s, nil
}

// noiseRNG returns the generator for (worker, iter, layer), independent of
// call order so layer-wise and whole-model gradients agree exactly.
// It returns a value so the per-layer path keeps it off the heap.
func (o *Oracle) noiseRNG(worker, iter, layer int) tensor.RNG {
	h := o.seed
	h ^= uint64(worker+1) * 0x9e3779b97f4a7c15
	h ^= uint64(iter+1) * 0xc2b2ae3d27d4eb4f
	h ^= uint64(layer+1) * 0x165667b19e3779f9
	return *tensor.NewRNG(h)
}

// Local computes worker w's full gradient at iteration iter for params,
// writing it into out (length = NumParams).
func (o *Oracle) Local(params tensor.Vector, worker, iter int, out tensor.Vector) error {
	if len(params) != len(o.target) || len(out) != len(o.target) {
		return fmt.Errorf("grad: local gradient size mismatch: params %d, out %d, want %d",
			len(params), len(out), len(o.target))
	}
	for l, layer := range o.spec.Layers {
		off := o.offsets[l]
		if err := o.layerInto(params, worker, iter, l, out[off:off+layer.Size], off); err != nil {
			return err
		}
	}
	return nil
}

// LayerGrad computes worker w's gradient for a single layer (by index),
// writing it into out (length = layer size). Gradients are conventionally
// consumed in reverse layer order; the value is independent of order.
func (o *Oracle) LayerGrad(params tensor.Vector, worker, iter, layer int, out tensor.Vector) error {
	if layer < 0 || layer >= len(o.spec.Layers) {
		return fmt.Errorf("grad: layer %d out of range [0,%d)", layer, len(o.spec.Layers))
	}
	if len(out) != o.spec.Layers[layer].Size {
		return fmt.Errorf("grad: layer %d gradient length %d, want %d", layer, len(out), o.spec.Layers[layer].Size)
	}
	return o.layerInto(params, worker, iter, layer, out, o.offsets[layer])
}

func (o *Oracle) layerInto(params tensor.Vector, worker, iter, layer int, out tensor.Vector, off int) error {
	for i := range out {
		out[i] = 2 * (params[off+i] - o.target[off+i])
	}
	if o.noise > 0 {
		r := o.noiseRNG(worker, iter, layer)
		half := float32(o.noise)
		for i := range out {
			out[i] += half * (2*r.Float32() - 1)
		}
	}
	return nil
}

// BackwardOrder returns the layer indices in gradient-production order
// (last layer first), the order LowDiff+ snapshots layers in.
func (o *Oracle) BackwardOrder() []int {
	n := len(o.spec.Layers)
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}
