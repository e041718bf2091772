package cluster

import (
	"testing"
	"time"

	"repro/internal/netemu"
)

// Topology is the declarative shape of a test deployment: how many data
// centers and partition servers to start, and how much headroom to reserve
// for runtime growth (AddDC on the DC axis, SplitPartition on the partition
// axis). It is the one front door test code and harnesses use to spin up
// clusters — the knobs that are per-experiment rather than per-shape ride
// in as functional options.
type Topology struct {
	// DCs and Partitions are the initial layout (both default to 1).
	DCs        int
	Partitions int
	// MaxDCs / MaxPartitions reserve growth capacity; 0 fixes the axis at
	// its initial size.
	MaxDCs        int
	MaxPartitions int
}

// Option tweaks the deployment configuration a Topology expands to.
type Option func(*Config)

// WithEngine selects the protocol preset (default POCC).
func WithEngine(e Engine) Option {
	return func(c *Config) { c.Engine = e }
}

// WithSeed fixes the deployment's randomness seed (default 1).
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithLatency injects inter-node latency with uniform jitter.
func WithLatency(l netemu.LatencyFunc, jitterFrac float64) Option {
	return func(c *Config) {
		c.Latency = l
		c.JitterFrac = jitterFrac
	}
}

// WithHeartbeat sets the replication heartbeat cadence (tests usually want
// a fast one so convergence waits stay short).
func WithHeartbeat(d time.Duration) Option {
	return func(c *Config) { c.HeartbeatInterval = d }
}

// WithClockSkew draws each node's clock offset from [-skew, +skew].
func WithClockSkew(skew time.Duration) Option {
	return func(c *Config) { c.ClockSkew = skew }
}

// WithLeanStabilization switches the GSS exchange to scalar HLC watermarks
// on most ticks (Okapi-style lean stabilization).
func WithLeanStabilization() Option {
	return func(c *Config) { c.LeanStabilization = true }
}

// WithDataDir makes every server durable (WAL-backed storage under dir),
// which also enables crash-restarts, replication catch-up, AddDC and the
// reshard bootstrap on durable history.
func WithDataDir(dir string) Option {
	return func(c *Config) { c.DataDir = dir }
}

// WithGC enables the garbage-collection exchange at the given cadence.
func WithGC(interval time.Duration) Option {
	return func(c *Config) { c.GCInterval = interval }
}

// WithTCP runs inter-node traffic over real loopback TCP.
func WithTCP() Option {
	return func(c *Config) { c.TCP = true }
}

// WithConfig is the escape hatch for knobs without a dedicated option; f
// runs last, over the fully assembled configuration.
func WithConfig(f func(*Config)) Option {
	return func(c *Config) { f(c) }
}

// NewTestCluster expands a Topology into a running deployment, fails the
// test on error, and registers the cluster's shutdown with the test's
// cleanup. Defaults beyond the Topology: POCC engine, seed 1, and
// everything else as Config's zero values.
func NewTestCluster(t testing.TB, topo Topology, opts ...Option) *Cluster {
	t.Helper()
	cfg := Config{
		NumDCs:        topo.DCs,
		NumPartitions: topo.Partitions,
		MaxDCs:        topo.MaxDCs,
		MaxPartitions: topo.MaxPartitions,
		Engine:        POCC,
		Seed:          1,
	}
	if cfg.NumDCs == 0 {
		cfg.NumDCs = 1
	}
	if cfg.NumPartitions == 0 {
		cfg.NumPartitions = 1
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster: start %dx%d: %v", cfg.NumDCs, cfg.NumPartitions, err)
	}
	t.Cleanup(c.Close)
	return c
}
