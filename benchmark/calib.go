package main

import (
	"container/heap"
	"runtime"
	"time"
)

// The host this benchmark runs on shares its cores with other tenants, and
// its speed drifts by tens of percent over minutes. So every run times a
// fixed calibration workload, interleaved with its reps, and reports host
// times in reference-host seconds: measured time × refCalibSeconds ÷ the
// median of the calibrations run next to the rep (see repeat). The drift
// is common to both, so the ratio keeps only the simulator's own speed. On
// a host running at the reference speed, reported and measured times agree.

// refCalibSeconds is calibrate's median time on the reference host, a
// two-vCPU Intel Xeon virtual machine with no other load.
const refCalibSeconds = 0.025

// calibOps is the calibration's size: about refCalibSeconds of work.
const calibOps = 120000

// hostScale converts a time measured next to calibrations that took calib
// seconds into reference-host seconds.
func hostScale(calib float64) float64 { return refCalibSeconds / calib }

// calibration returns the calibration reps are interleaved with.
func (opt options) calibration() func() float64 {
	return func() float64 { return calibrate(opt.calibOps) }
}

// calibSink keeps the compiler from discarding the calibration's work.
var calibSink uint64

// calibrate runs ops of calibration work and returns the seconds it took.
// Every timed rep keeps one goroutine busy, so the calibration runs on one,
// at GOMAXPROCS 1 so that its goroutine handoffs stay on one thread
// whatever the workload's setting.
func calibrate(ops int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	t0 := time.Now()
	calibSink += calibWork(ops)
	return time.Since(t0).Seconds()
}

// calibWork is fixed work of the kinds an event simulator spends its time
// on: a binary heap of pending events, a small allocation per event, map
// updates, and a goroutine handoff every 64 events. It shares no code with
// the simulator, so a change to the simulator leaves it alone.
func calibWork(n int) uint64 {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	q := make(eventHeap, 0, 1024)
	for i := 0; i < 512; i++ {
		heap.Push(&q, &pending{at: next() % 100000})
	}
	m := make(map[uint64]uint64)
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	for i := 0; i < n; i++ {
		ev := heap.Pop(&q).(*pending)
		heap.Push(&q, &pending{at: ev.at + next()%5000})
		m[x%4096] += ev.at
		if i%64 == 0 {
			ping <- struct{}{}
			<-pong
		}
	}
	close(ping)
	return m[7] + uint64(len(q))
}

type pending struct{ at uint64 }

type eventHeap []*pending

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*pending)) }
func (h *eventHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}
