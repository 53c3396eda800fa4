//go:build !race

package exp

// raceBuild reports whether the race detector is on. Without it,
// TestReportsBitIdenticalAcrossParallelism covers the whole registry and
// checks every experiment's allocation count.
const raceBuild = false
