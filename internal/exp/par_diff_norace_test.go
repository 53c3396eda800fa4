//go:build !race

package exp

// fullDiffRegistry lets TestReportsBitIdenticalAcrossParallelism cover the
// whole registry in the normal CI test job; under the race detector the
// same sweep takes minutes, so the race job falls back to the -short
// subset.
const fullDiffRegistry = true
