package train

import "llmbw/internal/topology"

// buckets splits layers into gradient communication buckets (PyTorch DDP /
// DeepSpeed bucketing) of at most layersPerBucket layers each, capped at
// maxCommBuckets buckets: NCCL stream serialization keeps overlapped buckets
// ordered, so more buckets stop paying off. Layers are dealt round-robin.
// Always returns at least one bucket; zero layers yield a single empty
// bucket, the degenerate schedule with one empty flush.
func buckets(layers int) []int {
	n := (layers + layersPerBucket - 1) / layersPerBucket
	if n > maxCommBuckets {
		n = maxCommBuckets
	}
	if n < 1 {
		n = 1
	}
	return topology.RoundRobin(layers, n)
}

// groups splits layers into zero3Groups ZeRO-3 parameter prefetch groups,
// shrinking the group count when there are fewer layers than groups (every
// group holds at least one layer). Zero layers yield zero groups: there is
// nothing to prefetch.
func groups(layers int) []int {
	n := zero3Groups
	if layers < n {
		n = layers
	}
	return topology.RoundRobin(layers, n)
}

// backwardFactor is the compute multiple of a forward pass spent in backward
// (2×), plus one recompute forward when activation checkpointing is on.
func (r *Runner) backwardFactor() float64 {
	if r.prof.ActivationCkpt {
		return 3
	}
	return 2
}
