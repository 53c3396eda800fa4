package exp

import (
	"openmxsim/internal/cluster"
	"openmxsim/internal/sim"
)

// MessageRate exposes the unidirectional stream harness: sustained
// receiver-side message completions per second.
func MessageRate(cfg cluster.Config, size int, warmup, measure sim.Time) float64 {
	if warmup <= 0 {
		warmup = 10 * sim.Millisecond
	}
	if measure <= 0 {
		measure = 50 * sim.Millisecond
	}
	return runStream(streamSpec{
		Cluster: cfg, Size: size,
		Warmup: warmup, Measure: measure,
	}).Rate
}
