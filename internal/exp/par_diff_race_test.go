//go:build race

package exp

// Under -race the full-registry parallelism differential is minutes of
// runtime per sharded run, so TestReportsBitIdenticalAcrossParallelism
// keeps to its -short subset and the race job stays fast. The allocs
// ceilings are measured without the race detector, so they are not
// checked here.
const raceBuild = true
