package cluster

import (
	"strings"
	"testing"

	"openmxsim/internal/fabric"
	"openmxsim/internal/host"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
)

func TestPaperConfig(t *testing.T) {
	cfg := Paper()
	if cfg.Nodes != 2 {
		t.Errorf("nodes = %d", cfg.Nodes)
	}
	if cfg.Strategy != nic.StrategyTimeout {
		t.Errorf("strategy = %v", cfg.Strategy)
	}
	if cfg.CoalesceDelay != 75*sim.Microsecond {
		t.Errorf("delay = %v", cfg.CoalesceDelay)
	}
}

func TestNewWiresEverything(t *testing.T) {
	c := New(Paper())
	if len(c.Hosts) != 2 || len(c.NICs) != 2 || len(c.Stacks) != 2 {
		t.Fatalf("wiring: %d hosts %d nics %d stacks", len(c.Hosts), len(c.NICs), len(c.Stacks))
	}
	if len(c.Hosts[0].Cores) != 8 {
		t.Errorf("cores = %d, want 8 (dual-socket quad-core)", len(c.Hosts[0].Cores))
	}
	if c.NICs[0].MAC() == c.NICs[1].MAC() {
		t.Error("NICs share a MAC")
	}
}

func TestOpenEndpointsPlacement(t *testing.T) {
	c := New(Paper())
	eps := c.OpenEndpoints(8)
	if len(eps) != 16 {
		t.Fatalf("endpoints = %d", len(eps))
	}
	// Rank 0 on node 0 core 0; rank 8 is the first rank of node 1.
	if eps[0].Addr().MAC != c.NICs[0].MAC() {
		t.Error("rank 0 not on node 0")
	}
	if eps[8].Addr().MAC != c.NICs[1].MAC() {
		t.Error("rank 8 not on node 1")
	}
	if eps[0].Core().ID != 0 || eps[15].Core().ID != 7 {
		t.Errorf("core pinning: rank0->%d rank15->%d", eps[0].Core().ID, eps[15].Core().ID)
	}
}

func TestSleepDisabledPropagates(t *testing.T) {
	cfg := Paper()
	cfg.SleepDisabled = true
	c := New(cfg)
	if c.P.Host.SleepEnabled {
		t.Error("SleepDisabled did not reach host params")
	}
	// The shared default params must not have been mutated.
	c2 := New(Paper())
	if !c2.P.Host.SleepEnabled {
		t.Error("params leaked between configs")
	}
}

func TestIRQPolicyPropagates(t *testing.T) {
	cfg := Paper()
	cfg.IRQPolicy = host.IRQSingleCore
	c := New(cfg)
	for i := 0; i < 4; i++ {
		if got := c.Hosts[0].IRQTarget(0); got.ID != 0 {
			t.Fatalf("IRQ target core %d, want 0", got.ID)
		}
	}
}

func TestInterruptsAggregation(t *testing.T) {
	c := New(Paper())
	if c.Interrupts() != 0 {
		t.Errorf("fresh cluster has %d interrupts", c.Interrupts())
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-node cluster did not panic")
		}
	}()
	New(Config{Nodes: 0})
}

func TestValidate(t *testing.T) {
	if err := Paper().Validate(); err != nil {
		t.Errorf("paper platform invalid: %v", err)
	}
	bad := []Config{
		{Nodes: 0},
		func() Config { c := Paper(); c.CoalesceDelay = -1; return c }(),
		func() Config { c := Paper(); c.Queues = -1; return c }(),
		func() Config { c := Paper(); c.Strategy = 99; return c }(),
		func() Config { c := Paper(); c.IRQPolicy = 99; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestValidateTopology(t *testing.T) {
	good := Paper()
	good.Nodes = 4
	good.Topology = fabric.Topology{
		Kind:              fabric.TopologyOutputQueued,
		EgressQueueFrames: 32,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good topology rejected: %v", err)
	}
	bad := []Config{
		func() Config { c := Paper(); c.Topology.Kind = 9; return c }(),
		func() Config { c := Paper(); c.Topology.EgressQueueFrames = -1; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad topology %d accepted: %+v", i, c.Topology)
		}
	}
}

// TestPaperConfigShards: the paper's two-host testbed, with its unbounded
// egress queues, runs on two engines when asked to.
func TestPaperConfigShards(t *testing.T) {
	cfg := Paper()
	cfg.Parallelism = 2
	if got := New(cfg).Parallelism(); got != 2 {
		t.Errorf("Parallelism() = %d, want 2", got)
	}
}

func TestNNodeClusterWiring(t *testing.T) {
	cfg := Paper()
	cfg.Nodes = 5
	cfg.Topology = fabric.Topology{Kind: fabric.TopologyOutputQueued}
	cl := New(cfg)
	if len(cl.Hosts) != 5 || len(cl.NICs) != 5 || len(cl.Stacks) != 5 {
		t.Fatalf("wired %d/%d/%d hosts/nics/stacks, want 5 each", len(cl.Hosts), len(cl.NICs), len(cl.Stacks))
	}
	// Every port is attached and reachable for stats.
	for node := 0; node < 5; node++ {
		_ = cl.PortStats(node)
	}
	if a := cl.Addr(3, 7); a.MAC != cl.NICs[3].MAC() || a.EP != 7 {
		t.Errorf("Addr(3,7) = %v", a)
	}
}

func TestOpenEndpointsOnSubset(t *testing.T) {
	cfg := Paper()
	cfg.Nodes = 4
	cl := New(cfg)
	eps := cl.OpenEndpointsOn([]int{0, 2}, 2)
	if len(eps) != 4 {
		t.Fatalf("opened %d endpoints, want 4", len(eps))
	}
	if eps[0].Addr().MAC != cl.NICs[0].MAC() || eps[2].Addr().MAC != cl.NICs[2].MAC() {
		t.Error("endpoints landed on wrong nodes")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range node did not panic")
		}
	}()
	cl.OpenEndpointsOn([]int{9}, 1)
}

// TestValidateMessages pins the rejection style: every message names the
// offending value and the valid range ("invalid <field> <value>: want
// <range>"), so a bad knob in a wide sweep is pinpointed by value rather
// than hunted by position.
func TestValidateMessages(t *testing.T) {
	mut := func(f func(*Config)) Config { c := Paper(); f(&c); return c }
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nodes", mut(func(c *Config) { c.Nodes = 0 }), "invalid node count 0: want >= 1"},
		{"nodes above cap", mut(func(c *Config) { c.Nodes = MaxNodes + 1 }), "invalid node count 4097: want <= 4096"},
		{"delay", mut(func(c *Config) { c.CoalesceDelay = -5 }), "invalid coalescing delay -5ns: want >= 0"},
		{"queues", mut(func(c *Config) { c.Queues = -1 }), "invalid queue count -1: want >= 0"},
		{"par", mut(func(c *Config) { c.Parallelism = -3 }), "invalid parallelism -3: want >= 0"},
		{"strategy", mut(func(c *Config) { c.Strategy = 99 }), "invalid strategy 99: want one of"},
		{"feedback rate", mut(func(c *Config) { c.Feedback.TargetIntrPerSec = -1 }), "invalid feedback interrupt-rate target -1/s: want >= 0"},
		{"feedback budget", mut(func(c *Config) { c.Feedback.MaxLatency = -7 }), "invalid feedback latency budget -7ns: want >= 0"},
		{"irq policy", mut(func(c *Config) { c.IRQPolicy = 99 }), "invalid IRQ policy 99: want ["},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("config accepted: %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
