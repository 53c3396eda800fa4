package mpi

import (
	"runtime"
	"testing"

	"openmxsim/internal/cluster"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
)

// world builds a 2-node testbed with n ranks (n/2 per node).
func world(t *testing.T, n int) *World {
	t.Helper()
	cfg := cluster.Paper()
	cl := cluster.New(cfg)
	if n%cfg.Nodes != 0 {
		t.Fatalf("rank count %d not divisible by %d nodes", n, cfg.Nodes)
	}
	eps := cl.OpenEndpoints(n / cfg.Nodes)
	return NewWorld(cl, eps)
}

func TestPingPong(t *testing.T) {
	w := world(t, 2)
	c := w.CommWorld()
	data := []byte("ping")
	buf := make([]byte, 16)
	_, err := w.Run(func(r *Rank) {
		switch r.ID {
		case 0:
			r.Send(c, 1, 1, data, 0)
			st := r.Recv(c, 1, 2, buf, 0)
			if st.Len != 4 || string(buf[:4]) != "pong" {
				t.Errorf("rank0 got %q len %d", buf[:st.Len], st.Len)
			}
		case 1:
			st := r.Recv(c, 0, 1, buf, 0)
			if st.Source != 0 || st.Tag != 1 || string(buf[:st.Len]) != "ping" {
				t.Errorf("rank1 status %+v data %q", st, buf[:st.Len])
			}
			r.Send(c, 0, 2, []byte("pong"), 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceRecv(t *testing.T) {
	w := world(t, 4)
	c := w.CommWorld()
	got := map[int]bool{}
	_, err := w.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 3; i++ {
				st := r.Recv(c, AnySource, 5, nil, 64)
				got[st.Source] = true
			}
			return
		}
		r.Send(c, 0, 5, nil, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("received from %d distinct sources, want 3", len(got))
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	w := world(t, 2)
	var at sim.Time
	_, err := w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Compute(5 * sim.Millisecond)
			at = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if at != 5*sim.Millisecond {
		t.Fatalf("compute ended at %d", at)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := world(t, 8)
	c := w.CommWorld()
	enter := make([]sim.Time, 8)
	exit := make([]sim.Time, 8)
	_, err := w.Run(func(r *Rank) {
		// Stagger entries: rank i computes i*100us first.
		r.Compute(sim.Time(r.ID) * 100 * sim.Microsecond)
		enter[r.ID] = r.Now()
		r.Barrier(c)
		exit[r.ID] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	var maxEnter sim.Time
	for _, e := range enter {
		if e > maxEnter {
			maxEnter = e
		}
	}
	for i, x := range exit {
		if x < maxEnter {
			t.Errorf("rank %d left the barrier at %d before last entry %d", i, x, maxEnter)
		}
	}
}

func TestBcastReachesAll(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		w := world(t, n)
		c := w.CommWorld()
		done := 0
		_, err := w.Run(func(r *Rank) {
			r.Bcast(c, 2%n, 4096)
			done++
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if done != n {
			t.Fatalf("n=%d: %d ranks finished", n, done)
		}
	}
}

func TestReduceCompletes(t *testing.T) {
	for _, n := range []int{2, 6, 8, 16} {
		w := world(t, n)
		c := w.CommWorld()
		_, err := w.Run(func(r *Rank) {
			r.Reduce(c, 0, 8192)
			r.Reduce(c, n-1, 64) // different root back-to-back
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAllreducePowersAndNot(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8, 16} {
		w := world(t, n)
		c := w.CommWorld()
		exit := make([]sim.Time, n)
		enter := make([]sim.Time, n)
		_, err := w.Run(func(r *Rank) {
			r.Compute(sim.Time(r.ID+1) * 50 * sim.Microsecond)
			enter[r.ID] = r.Now()
			r.Allreduce(c, 1024)
			exit[r.ID] = r.Now()
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var maxEnter sim.Time
		for _, e := range enter {
			if e > maxEnter {
				maxEnter = e
			}
		}
		for i, x := range exit {
			if x < maxEnter {
				t.Errorf("n=%d rank %d exited allreduce before all entered", n, i)
			}
		}
	}
}

func TestAllgatherAndGatherScatter(t *testing.T) {
	w := world(t, 8)
	c := w.CommWorld()
	_, err := w.Run(func(r *Rank) {
		r.Allgather(c, 2048)
		r.Gather(c, 3, 1024)
		r.Scatter(c, 3, 1024)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallMovesExpectedBytes(t *testing.T) {
	w := world(t, 8)
	c := w.CommWorld()
	const block = 10_000
	_, err := w.Run(func(r *Rank) {
		r.Alltoall(c, block)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Inter-node traffic: ranks 0-3 on node 0, 4-7 on node 1; each rank
	// sends block bytes to each of 4 remote ranks => 16 pairs per
	// direction.
	sent := w.Cluster.NICs[0].Stats.BytesSent
	wantMin := uint64(16 * block)
	if sent < wantMin {
		t.Errorf("node0 sent %d bytes, want >= %d", sent, wantMin)
	}
}

func TestAlltoallvAsymmetricSizes(t *testing.T) {
	w := world(t, 4)
	c := w.CommWorld()
	sizes := func(me int) []int {
		s := make([]int, 4)
		for d := range s {
			s[d] = 1000 * (me + 1) * (d + 1)
		}
		return s
	}
	_, err := w.Run(func(r *Rank) {
		me := c.RankOf(r.ID)
		recv := make([]int, 4)
		for src := 0; src < 4; src++ {
			recv[src] = 1000 * (src + 1) * (me + 1)
		}
		r.Alltoallv(c, sizes(me), recv)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubCommunicator(t *testing.T) {
	w := world(t, 8)
	rows := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	var comms []*Comm
	for _, g := range rows {
		comms = append(comms, w.Sub(g))
	}
	_, err := w.Run(func(r *Rank) {
		c := comms[r.ID/4]
		r.Allreduce(c, 512)
		r.Barrier(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	base := runtime.NumGoroutine()
	w := world(t, 2)
	c := w.CommWorld()
	_, err := w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Recv(c, 1, 9, nil, 64) // rank 1 never sends
		}
	})
	if err == nil {
		t.Fatal("deadlock not reported")
	}
	// The teardown kills the stuck rank; nothing of it may outlive Run.
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after the deadlock teardown, %d before the run", n, base)
	}
}

func TestLargeMessagePtToPt(t *testing.T) {
	w := world(t, 2)
	c := w.CommWorld()
	const size = 1 << 20
	var st Status
	elapsed, err := w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(c, 1, 1, nil, size)
		} else {
			st = r.Recv(c, 0, 1, nil, size)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len != size {
		t.Fatalf("received %d bytes, want %d", st.Len, size)
	}
	if elapsed <= 0 {
		t.Fatal("zero elapsed time for 1MiB transfer")
	}
}

func TestManyRanksManyMessages(t *testing.T) {
	w := world(t, 16)
	c := w.CommWorld()
	_, err := w.Run(func(r *Rank) {
		for iter := 0; iter < 3; iter++ {
			r.Alltoall(c, 5000)
			r.Allreduce(c, 64)
			r.Barrier(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldDeterminism(t *testing.T) {
	run := func() sim.Time {
		cfg := cluster.Paper()
		cfg.Strategy = nic.StrategyOpenMX
		cl := cluster.New(cfg)
		w := NewWorld(cl, cl.OpenEndpoints(4))
		c := w.CommWorld()
		elapsed, err := w.Run(func(r *Rank) {
			r.Alltoall(c, 40_000)
			r.Allreduce(c, 1024)
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("elapsed differs: %d vs %d", a, b)
	}
}
