package scale

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/lockservice"
	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// czTiny returns a chaos configuration small enough for unit tests: the
// 20-machine churn workload with two partition storms (6 s — past the 3 s
// heartbeat timeout — and 2 s — below it), a link-flap window, delay spikes,
// and a lock-service partition of the primary, all inside a 30-second
// horizon.
func czTiny() Config {
	c := SmokeChaosConfig()
	c.Racks, c.MachinesPerRack = 4, 5
	c.Apps, c.UnitsPerApp = 30, 5
	c.ContainersPerUnit = 3
	c.HoldTime = 2 * sim.Second
	c.ArrivalWindow = 3 * sim.Second
	c.ChurnWarmup = 6 * sim.Second
	c.ChurnMeasure = 24 * sim.Second
	c.Horizon = c.ChurnWarmup + c.ChurnMeasure
	c.ChaosPartitionAt = []sim.Time{8 * sim.Second, 17 * sim.Second}
	c.ChaosPartitionFor = []sim.Time{6 * sim.Second, 2 * sim.Second}
	c.ChaosPartitionPct = 10 // 2 machines per storm
	c.ChaosFlapAt = []sim.Time{20 * sim.Second}
	c.ChaosFlaps = 1
	c.ChaosSpikeAt = []sim.Time{22 * sim.Second}
	c.ChaosSpikes = 1
	c.ChaosLockPartitionAt = 23 * sim.Second
	c.ChaosLockPartitionFor = 5 * sim.Second
	return c
}

func TestChaosRunCompletes(t *testing.T) {
	cfg := czTiny()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Invariants) > 0 {
		t.Errorf("invariant violations under chaos: %v", res.Invariants)
	}
	if res.InvariantChecks == 0 {
		t.Error("invariant checker never ran")
	}
	cz := res.Chaos
	if cz == nil {
		t.Fatal("no chaos section in the result")
	}

	// Every scheduled storm landed and healed.
	if cz.Partitions != 2 || cz.Heals != 2 {
		t.Errorf("partitions=%d heals=%d, want 2/2", cz.Partitions, cz.Heals)
	}
	if cz.MachinesPartitioned != 4 {
		t.Errorf("machines partitioned %d, want 4 (2 per storm)", cz.MachinesPartitioned)
	}
	if cz.LinkFlaps != 1 || cz.DelaySpikes != 1 {
		t.Errorf("flaps=%d spikes=%d, want 1/1", cz.LinkFlaps, cz.DelaySpikes)
	}
	if cz.InjectionsSkipped != 0 {
		t.Errorf("%d injections skipped", cz.InjectionsSkipped)
	}

	// Every heal window reconverged, and the probe measured real time doing
	// it (convergence cannot be instantaneous: the heal-time capacity resync
	// takes at least a round trip).
	if cz.Unconverged != 0 {
		t.Fatalf("%d heal windows never reconverged", cz.Unconverged)
	}
	if cz.ConvergenceP99MS <= 0 || cz.ConvergenceMaxMS < cz.ConvergenceP99MS ||
		cz.ConvergenceP99MS < cz.ConvergenceP50MS {
		t.Errorf("convergence percentiles inconsistent: p50=%.1f p99=%.1f max=%.1f",
			cz.ConvergenceP50MS, cz.ConvergenceP99MS, cz.ConvergenceMaxMS)
	}

	// The 6-second storm outlived the heartbeat timeout: the master declared
	// the victims dead, revoked their grants (lost), and repair traffic
	// re-landed on them after the heal (reissued).
	if cz.LostGrants == 0 {
		t.Error("no grants lost through a storm longer than the heartbeat timeout")
	}
	if cz.ReissuedGrants == 0 {
		t.Error("no grants reissued onto healed machines")
	}

	// The lock partition forced a promotion: the deposed primary fenced
	// itself and the standby took the lease at a higher epoch.
	if cz.LockPartitions != 1 {
		t.Errorf("lock partitions %d, want 1", cz.LockPartitions)
	}
	if cz.MasterEpoch < 2 {
		t.Errorf("master epoch %d after a lock partition, want >= 2", cz.MasterEpoch)
	}

	// The partition actually dropped traffic, attributed per link.
	if cz.LinksWithLoss == 0 || cz.LinkMsgsDropped == 0 {
		t.Errorf("no link loss recorded: links=%d dropped=%d", cz.LinksWithLoss, cz.LinkMsgsDropped)
	}
	if cz.WorstLink == "" || cz.WorstLinkDropped == 0 {
		t.Errorf("worst link not attributed: %q dropped %d", cz.WorstLink, cz.WorstLinkDropped)
	}
}

// TestChaosDeterminismAndShardParity runs the identical chaos schedule twice
// at shards=1 and once at shards=4: every measurement — storm accounting,
// convergence percentiles, lost/reissued counts, per-link loss attribution —
// must be identical. The whole ChaosStats struct is comparable, so the runs
// must agree field for field.
func TestChaosDeterminismAndShardParity(t *testing.T) {
	base := czTiny()
	base.ChurnMeasure = 16 * sim.Second
	base.Horizon = base.ChurnWarmup + base.ChurnMeasure
	base.ChaosPartitionAt = []sim.Time{8 * sim.Second}
	base.ChaosPartitionFor = []sim.Time{6 * sim.Second}
	base.ChaosFlapAt = []sim.Time{16 * sim.Second}
	base.ChaosSpikeAt = []sim.Time{17 * sim.Second}
	base.ChaosLockPartitionAt = 0
	base.ChaosLockPartitionFor = 0

	var ref *ChaosStats
	for _, variant := range []struct {
		name   string
		shards int
	}{
		{"shards-1-a", 1}, {"shards-1-b", 1}, {"shards-4", 4},
	} {
		cfg := base
		cfg.Shards = variant.shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Chaos == nil {
			t.Fatalf("%s: no chaos section", variant.name)
		}
		if len(res.Invariants) > 0 {
			t.Errorf("%s: invariant violations: %v", variant.name, res.Invariants)
		}
		if ref == nil {
			ref = res.Chaos
			if ref.Partitions != 1 || ref.Unconverged != 0 || ref.ConvergenceMaxMS <= 0 {
				t.Fatalf("reference run measured nothing useful: %+v", ref)
			}
			continue
		}
		if *res.Chaos != *ref {
			t.Errorf("%s: chaos stats diverge:\n got %+v\nwant %+v",
				variant.name, *res.Chaos, *ref)
		}
	}
}

func TestChaosRejectsGatewayMode(t *testing.T) {
	cfg := czTiny()
	cfg.GatewayUsers = 100
	cfg.GatewaySubmissions = 10
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for chaos + gateway mode")
	}
}

// TestConvergenceProbeDetectsSingleUnitDivergence builds a primary master
// and four agents, brings every agent's capacity table to the primary's
// grant ledger, and then knocks one victim's table off by a single unit in
// either direction: the convergence probe must report the victim set
// unconverged until the table is repaired.
func TestConvergenceProbeDetectsSingleUnitDivergence(t *testing.T) {
	top, err := topology.Build(topology.Spec{
		Racks: 2, MachinesPerRack: 2, MachineCapacity: topology.PaperTestbedMachine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	m := master.NewMaster(master.DefaultConfig("fm-probe"), eng, net, lockservice.New(eng), top,
		master.NewCheckpointStore(), metrics.NewRegistry())
	eng.Run(10 * sim.Millisecond) // election
	h := &harness{eng: eng, net: net, top: top, masters: []*master.Master{m}}
	var victims []int32
	for _, name := range top.Machines() {
		h.agents = append(h.agents, agent.New(agent.DefaultConfig(), eng, net, top.Machine(name)))
		victims = append(victims, top.MachineID(name))
	}
	cz := &czState{h: h}
	s := h.primarySched()
	if s == nil {
		t.Fatal("no primary master after the election")
	}

	size := resource.New(1000, 4096)
	if err := s.RegisterApp("app-a", "", []resource.ScheduleUnit{
		{ID: 1, Priority: 100, MaxCount: 16, Size: size},
	}); err != nil {
		t.Fatal(err)
	}
	ds, err := s.UpdateDemand("app-a", 1, []resource.LocalityHint{
		{Type: resource.LocalityCluster, Count: 10},
	})
	if err != nil || len(ds) == 0 {
		t.Fatalf("no grants: %v", err)
	}
	victim := ds[0].MachineID

	// sync replaces one agent's table with the primary's ledger for its
	// machine, with app-a's count shifted by off.
	sync := func(id int32, off int) {
		var entries []protocol.CapacityEntry
		if n := s.GrantedOn("app-a", 1, id) + off; n > 0 {
			entries = append(entries, protocol.CapacityEntry{App: "app-a", UnitID: 1, Size: size, Count: n})
		}
		net.Send(protocol.MasterEndpoint, protocol.AgentEndpoint(top.MachineName(id)),
			protocol.CapacitySync{Machine: id, Entries: entries, Epoch: m.Epoch()})
		eng.Run(eng.Now() + 5*sim.Millisecond)
	}
	for _, id := range victims {
		sync(id, 0)
	}
	if !cz.convergedAll(victims) {
		t.Fatal("agent tables equal to the primary's ledger reported unconverged")
	}
	for _, off := range []int{+1, -1} {
		sync(victim, off)
		if cz.convergedAll(victims) {
			t.Errorf("agent capacity off by %+d on %s reported converged", off, top.MachineName(victim))
		}
		sync(victim, 0)
		if !cz.convergedAll(victims) {
			t.Errorf("repaired table (after %+d) reported unconverged", off)
		}
	}
}

// TestChaosAllocsWithinTwiceChurn holds chaos allocations per decision
// within 2x of the same churn workload without faults: the convergence
// probe and the rest of the chaos observers must not dominate the decision
// path. Both runs use the smoke footprint (100 machines, 100 apps) with the
// paper-scale timings, under which the 6-second storm's heal takes the
// slow (~4 s) repair path and the probe polls some 800 times;
// SmokeChaosConfig's compressed timings heal within a few polls and would
// never exercise the probe.
func TestChaosAllocsWithinTwiceChurn(t *testing.T) {
	smokeFootprint := func(c Config) Config {
		c.Racks, c.MachinesPerRack, c.Apps = 10, 10, 100
		return c
	}
	churn, err := Run(smokeFootprint(DefaultChurnConfig()))
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := Run(smokeFootprint(DefaultChaosConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if chaos.Chaos.ConvergenceMaxMS < 1000 {
		t.Fatalf("no heal took the slow repair path (max convergence %.0f ms): the probe was not exercised",
			chaos.Chaos.ConvergenceMaxMS)
	}
	if chaos.AllocsPerDecision > 2*churn.AllocsPerDecision {
		t.Errorf("chaos %.2f allocs/decision > 2x churn %.2f",
			chaos.AllocsPerDecision, churn.AllocsPerDecision)
	}
}
