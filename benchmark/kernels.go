package main

import (
	"openmxsim/internal/mpi"
	"openmxsim/internal/nas"
	"openmxsim/internal/sim"
)

// The NAS workloads time the first iterations of the class C runs behind
// Tables IV and V. A whole LU.C or IS.C run takes 3 to 6 s on a two-vCPU
// host, too long to repeat often enough for a steady median while the
// host's speed drifts. Every iteration of either kernel sends the same
// messages, so a prefix of the run spends its host time across the layers
// as the whole run does; README.md compares the two profiles, and the
// traced run prints them side by side.
//
// internal/nas fixes each class's iteration count inside its bodies, so the
// LU and IS bodies are restated here with the count as a parameter. Every
// process checks, at class S, that the restated body reproduces nas.Run
// exactly (see nasWorkload).

// luParams restates internal/nas's LU class table for the classes the
// benchmark runs.
type luParams struct {
	nz, iters, planesPerMsg int
	computeBlock            sim.Time // per pipeline block
	faceBytes               int      // per-plane face bytes per neighbour
}

var luClasses = map[byte]luParams{
	'S': {12, 50, 3, 30 * sim.Microsecond, 240},
	'C': {162, 250, 9, 16500 * sim.Microsecond, 3240},
}

// isParams restates internal/nas's IS class table likewise.
type isParams struct {
	keys, iters, bucketBytes int
	computeIter              sim.Time // per rank, 16 ranks
}

var isClasses = map[byte]isParams{
	'S': {1 << 16, 10, 2048, 350 * sim.Microsecond},
	'C': {1 << 27, 10, 4096, 2590 * sim.Millisecond},
}

// kernelBody returns the body of the named kernel ("lu" or "is") at the
// given class, running its first iters iterations, or all of them when
// iters is 0.
func kernelBody(kernel string, class byte, iters int) func(*mpi.Rank, *mpi.World, *nas.Comms) {
	if kernel == "lu" {
		p := luClasses[class]
		if iters == 0 {
			iters = p.iters
		}
		return luBody(p, iters)
	}
	p := isClasses[class]
	if iters == 0 {
		// NPB IS runs one untimed warm-up iteration before the timed ones.
		iters = p.iters + 1
	}
	return isBody(p, iters)
}

// jitterFor and compute are internal/nas's per-rank compute noise.
func jitterFor(w *mpi.World, rank int) *sim.RNG {
	return w.Cluster.RNG.Derive(0x4A5 + uint64(rank))
}

func compute(r *mpi.Rank, rng *sim.RNG, d sim.Time) {
	if d <= 0 {
		return
	}
	r.Compute(rng.Jitter(d, d/500))
}

// scalePerRank converts a 16-rank per-iteration compute budget to n ranks.
func scalePerRank(perIter16 sim.Time, n int) sim.Time {
	return perIter16 * 16 / sim.Time(n)
}

// luBody is internal/nas's LU: SSOR with 2D wavefront pipelines of small
// messages over a square process grid.
func luBody(p luParams, iters int) func(*mpi.Rank, *mpi.World, *nas.Comms) {
	return func(r *mpi.Rank, w *mpi.World, cm *nas.Comms) {
		n := cm.World.Size()
		side := cm.GridSide
		rng := jitterFor(w, r.ID)
		me := r.ID
		row, col := me/side, me%side
		nblocks := (p.nz + p.planesPerMsg - 1) / p.planesPerMsg
		blockBytes := p.planesPerMsg * p.faceBytes * 4 / side
		comp := scalePerRank(p.computeBlock, n)
		tagBase := 1 << 27
		north, south := me-side, me+side
		west, east := me-1, me+1

		for iter := 0; iter < iters; iter++ {
			// Lower-triangular sweep: wavefront from (0,0).
			for b := 0; b < nblocks; b++ {
				tag := tagBase + (iter*2*nblocks+b)*4
				if row > 0 {
					r.Recv(cm.World, north, tag, nil, blockBytes)
				}
				if col > 0 {
					r.Recv(cm.World, west, tag+1, nil, blockBytes)
				}
				compute(r, rng, comp)
				if row < side-1 {
					r.Send(cm.World, south, tag, nil, blockBytes)
				}
				if col < side-1 {
					r.Send(cm.World, east, tag+1, nil, blockBytes)
				}
			}
			// Upper-triangular sweep: wavefront from (side-1, side-1).
			for b := 0; b < nblocks; b++ {
				tag := tagBase + ((iter*2+1)*nblocks+b)*4
				if row < side-1 {
					r.Recv(cm.World, south, tag+2, nil, blockBytes)
				}
				if col < side-1 {
					r.Recv(cm.World, east, tag+3, nil, blockBytes)
				}
				compute(r, rng, comp)
				if row > 0 {
					r.Send(cm.World, north, tag+2, nil, blockBytes)
				}
				if col > 0 {
					r.Send(cm.World, west, tag+3, nil, blockBytes)
				}
			}
			r.Allreduce(cm.World, 40) // residual norms
		}
	}
}

// isBody is internal/nas's IS: integer bucket sort, one large all-to-allv
// of the keys per iteration.
func isBody(p isParams, iters int) func(*mpi.Rank, *mpi.World, *nas.Comms) {
	return func(r *mpi.Rank, w *mpi.World, cm *nas.Comms) {
		n := cm.World.Size()
		rng := jitterFor(w, r.ID)
		perPair := p.keys * 4 / (n * n)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = perPair
		}
		comp := scalePerRank(p.computeIter, n)
		for iter := 0; iter < iters; iter++ {
			compute(r, rng, comp)
			r.Allreduce(cm.World, p.bucketBytes)
			r.Alltoall(cm.World, 4)
			r.Alltoallv(cm.World, sizes, sizes)
		}
	}
}
