package bench

import (
	"context"
	"fmt"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/drivers/simdrv"
	"newmad/internal/mpl"
	"newmad/internal/relnet"
	"newmad/internal/sampling"
	"newmad/internal/simnet"
	"newmad/internal/simnet/topo"
)

// ClusterConfig describes an N-node simulated platform with a full mesh
// of point-to-point links (each node pair gets its own set of NICs, as
// on a switched fabric with per-peer connections).
type ClusterConfig struct {
	// Nodes is the rank count (>= 2).
	Nodes int
	// NICs lists the rail models installed per node pair.
	NICs []simnet.NICParams
	// Host parameterizes every host; zero value gets simnet.Opteron().
	Host simnet.HostParams
	// Strategy constructs the scheduler, one per engine.
	Strategy func() core.Strategy
	// AggThreshold and MinChunk override engine defaults when > 0.
	AggThreshold int
	MinChunk     int
	// Sample runs init-time sampling per rail and installs the profiles.
	Sample bool
	// Reliable wraps every rail in the relnet reliability layer
	// (sequencing, acks, retransmission): chaos-injected packet loss is
	// then recovered by retransmission in virtual time instead of
	// latching the receiving rail down. Retransmit timers land on the
	// world's cancellable timer API via a simnet.WorldClock.
	Reliable bool
	// Rel tunes the reliability layer when Reliable is set; zero values
	// derive from each rail's NIC profile.
	Rel relnet.Config
	// Adaptive, when > 0, enables online selector re-fitting on every
	// communicator: every Adaptive collective operations the selector
	// thresholds are re-derived from the rails' online estimators at a
	// deterministic epoch (see mpl.Comm.SetAdaptive).
	Adaptive uint32
}

// Cluster is an N-node simulated platform, fully connected.
type Cluster struct {
	W       *des.World
	Hosts   []*simnet.Host
	Engines []*core.Engine
	// Gates[i][j] is node i's gate to node j (nil on the diagonal).
	Gates [][]*core.Gate
	// NICs[i][j] lists node i's NICs toward node j, one per rail class
	// (nil on the diagonal) — retained so the chaos layer can target the
	// links of a running cluster.
	NICs [][][]*simnet.NIC
	// Adaptive is the re-fit period distributed to every communicator
	// (from ClusterConfig.Adaptive; 0 disables).
	Adaptive uint32
	// Selector is the collective algorithm selector installed on every
	// communicator. Algorithm selection must agree on every rank (the
	// schedules of different algorithms do not interoperate), so the
	// cluster seeds one selector — from the rank-0 rail profiles — and
	// distributes it, rather than letting each rank seed from its own
	// sampled figures.
	Selector mpl.Selector
	// Rels holds every reliability-layer driver when the cluster was
	// built with ClusterConfig.Reliable, for protocol-counter drilling.
	Rels []*relnet.Driver
}

// RelStats sums the protocol counters over every reliable rail (zero
// when the cluster runs raw rails).
func (c *Cluster) RelStats() relnet.Stats {
	var sum relnet.Stats
	for _, d := range c.Rels {
		st := d.Stats()
		sum.SegsSent += st.SegsSent
		sum.SegsRecv += st.SegsRecv
		sum.Retransmits += st.Retransmits
		sum.FastRetransmits += st.FastRetransmits
		sum.Timeouts += st.Timeouts
		sum.DupsDropped += st.DupsDropped
		sum.AcksSent += st.AcksSent
		sum.AcksPiggybacked += st.AcksPiggybacked
		sum.Garbage += st.Garbage
	}
	return sum
}

// Retransmits reports the total retransmission count across all
// reliable rails: the measured price of surviving a lossy fabric.
func (c *Cluster) Retransmits() uint64 { return c.RelStats().Retransmits }

// newRailDriver builds one rail driver over a NIC per the cluster
// config, retaining reliable drivers for stats drilling.
func (c *Cluster) newRailDriver(cfg *ClusterConfig, n *simnet.NIC) core.Driver {
	if !cfg.Reliable {
		return simdrv.New(n)
	}
	d := simdrv.NewReliable(n, cfg.Rel)
	c.Rels = append(c.Rels, d)
	return d
}

// NewCluster builds the platform described by cfg: one rack of
// cfg.Nodes hosts with one link per cfg.NICs class, wired by
// ClusterFromTopo.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Nodes < 2 {
		panic("bench: ClusterConfig.Nodes must be >= 2")
	}
	if cfg.Strategy == nil {
		panic("bench: ClusterConfig.Strategy is required")
	}
	if len(cfg.NICs) == 0 {
		panic("bench: ClusterConfig.NICs is empty")
	}
	return ClusterFromTopo(simTopo(cfg.Host, cfg.Nodes, cfg.NICs), cfg)
}

// ClusterFromTopo wires engines, gates and rails over an already-built
// topology: one engine per host, one gate per host pair, one rail per
// link class. cfg.Nodes, cfg.NICs and cfg.Host are ignored — the
// topology fixes them. The returned cluster shares the topology's world
// and NIC mesh, so chaos schedules built against the topology perturb
// the running cluster.
func ClusterFromTopo(top *topo.Topology, cfg ClusterConfig) *Cluster {
	if cfg.Strategy == nil {
		panic("bench: ClusterConfig.Strategy is required")
	}
	return wire(top, cfg, nil)
}

// simTopo builds a one-rack topology of n hosts in a fresh world, one
// link class per NIC model; a zero host model means Opteron.
func simTopo(host simnet.HostParams, n int, nics []simnet.NICParams) *topo.Topology {
	b := topo.New().Rack(n)
	if host != (simnet.HostParams{}) {
		b.HostModel(host)
	}
	for _, np := range nics {
		b.Link(np)
	}
	return b.Build(des.NewWorld())
}

// wire is the one simulated-platform wiring: every NewCluster,
// ClusterFromTopo and NewPair platform comes out of it. traces[i], when
// present and non-nil, is engine i's trace hook.
func wire(top *topo.Topology, cfg ClusterConfig, traces []func(core.TraceEvent)) *Cluster {
	n := top.Size()
	c := &Cluster{W: top.W, Hosts: top.Hosts, Adaptive: cfg.Adaptive}
	for i := 0; i < n; i++ {
		var trace func(core.TraceEvent)
		if i < len(traces) {
			trace = traces[i]
		}
		eng := core.New(core.Config{
			Strategy: cfg.Strategy(), Clock: top.Hosts[i],
			AggThreshold: cfg.AggThreshold, MinChunk: cfg.MinChunk, Trace: trace,
		})
		c.Engines = append(c.Engines, eng)
		c.Gates = append(c.Gates, make([]*core.Gate, n))
		c.NICs = append(c.NICs, make([][]*simnet.NIC, n))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gi := c.Engines[i].NewGate(top.Hosts[j].Name)
			gj := c.Engines[j].NewGate(top.Hosts[i].Name)
			for k := 0; k < top.Classes(); k++ {
				ni, nj := top.LinkNICs(i, j, k)
				var prof core.Profile
				if cfg.Sample {
					prof = sampling.SampleNICPair(top.W, ni, nj, nil)
				}
				ri := gi.AddRail(c.newRailDriver(&cfg, ni))
				rj := gj.AddRail(c.newRailDriver(&cfg, nj))
				if cfg.Sample {
					ri.SetProfile(prof)
					rj.SetProfile(prof)
				}
			}
			c.NICs[i][j] = top.NICs(i, j)
			c.NICs[j][i] = top.NICs(j, i)
			c.Gates[i][j] = gi
			c.Gates[j][i] = gj
		}
	}
	c.seedSelector()
	return c
}

// seedSelector seeds the cluster-wide collective selector from the
// rank-0 rail profiles (see the Selector field comment).
func (c *Cluster) seedSelector() {
	var profs []core.Profile
	for _, r := range c.Gates[0][1].Rails() {
		profs = append(profs, r.Profile())
	}
	c.Selector = mpl.SelectorFromProfiles(profs)
}

// Size returns the rank count.
func (c *Cluster) Size() int { return len(c.Engines) }

// Comm builds an mpl communicator for the given rank, with blocking
// waits bound to simulated process p: they park in virtual time and
// honor virtual-time deadlines attached with WithSimDeadline.
func (c *Cluster) Comm(rank int, p *des.Proc) *mpl.Comm {
	comm, err := mpl.New(c.Engines[rank], rank, c.Gates[rank], func(ctx context.Context, reqs ...core.Request) error {
		return WaitReqsCtx(ctx, p, reqs...)
	})
	if err != nil {
		panic("bench: " + err.Error())
	}
	// Install the cluster-wide seeded selector: every rank must make
	// the same algorithm choices.
	comm.SetSelector(c.Selector)
	if c.Adaptive > 0 {
		comm.SetAdaptive(c.Adaptive)
	}
	return comm
}

// SpawnRanks starts one simulated process per rank running body and
// returns once all are spawned; call c.W.Run() to execute.
func (c *Cluster) SpawnRanks(body func(p *des.Proc, comm *mpl.Comm)) {
	for rank := 0; rank < c.Size(); rank++ {
		rank := rank
		c.W.Spawn(fmt.Sprintf("rank%d", rank), func(p *des.Proc) {
			body(p, c.Comm(rank, p))
		})
	}
}
