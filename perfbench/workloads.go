package main

import (
	"fmt"

	"repro/internal/scale"
	"repro/internal/sim"
)

// workload is one benchmark input: a scale.Config generated from the seed
// plus the correctness checks its Result must pass.
type workload struct {
	name string
	// loop states how load arrives: "closed" (each client re-demands only
	// after a return) or "open" (submissions fire on a schedule).
	loop   string
	config func(seed int64) scale.Config
	// reps is the number of scale.Run calls, each on its own sub-seed,
	// that an untraced measurement makes at least.
	reps int
}

var workloads = []workload{
	{name: "churn", loop: "closed", config: churnConfig, reps: 2},
	{name: "replay", loop: "open", config: replayConfig, reps: 2},
	{name: "chaos", loop: "closed", config: chaosConfig, reps: 1},
}

// subSeed is the seed of a measurement's i-th run. The first run uses the
// seed itself; later ones shift it by a large prime, so the runs of one
// measurement see different inputs and the same seed always gives the
// same ones.
func subSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// churnConfig is paper-scale steady-state churn: 5,000 machines, 2,500 apps
// × 40 units × 3 containers, 5 s holds, every return re-demanded, 20 ms
// rounds over two scheduler shards. No faults, no checker, no gateway. The
// measured window is 40 s of virtual time (eight hold cycles) after the
// default warmup, so two runs fit in one measurement.
func churnConfig(seed int64) scale.Config {
	c := scale.DefaultChurnConfig()
	c.ChurnMeasure = 40 * sim.Second
	c.Horizon = c.ChurnWarmup + c.ChurnMeasure
	c.Shards = 2
	c.RecordDecisionHash = true
	c.Seed = seed
	return c
}

// replayConfig is the diurnal trace replay as defined by the harness: two
// 100 s days over a 1M-tenant population, two failure storms, one master
// failover, the checker every virtual second, serial scheduling.
func replayConfig(seed int64) scale.Config {
	c := scale.DefaultReplayConfig()
	c.RecordDecisionHash = true
	c.Seed = seed
	return c
}

// chaosConfig is the adversarial-network schedule on 2,000 machines
// (50 racks × 40, 1,000 apps) with the observability plane on: a 1,024-row
// ring and a live query every 5 s.
//
// Each partition storm isolates 10% of the machines. With the default 2%
// (40 machines here) whether one heal takes the slow, about 4 s repair
// path is a coin flip per seed (3 of 11 seeds tried), and the convergence
// probe polls the whole ledger every 5 ms until it converges, so every
// host metric was bimodal in the seed. At 10% every seed tried (8 of 8)
// takes the slow path: the probe's cost is always in the measurement.
func chaosConfig(seed int64) scale.Config {
	c := scale.DefaultChaosConfig()
	c.Racks, c.MachinesPerRack = 50, 40
	c.Apps = 1000
	c.ChaosPartitionPct = 10
	c.Obs = true
	c.ObsRetain = 1024
	c.ObsQueryEvery = 5 * sim.Second
	c.RecordDecisionHash = true
	c.Seed = seed
	return c
}

// check runs every correctness check that applies to res and returns the
// failed ones by name.
func check(cfg scale.Config, res *scale.Result) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if res.Decisions == 0 {
		fail("no_decisions: the run made no scheduling decision")
	}
	if n := len(res.Invariants); n > 0 {
		fail("invariants: %d violation(s), first: %s", n, res.Invariants[0])
	}
	if rp := res.Replay; cfg.Replay {
		gw := res.Gateway
		switch {
		case rp == nil || gw == nil:
			fail("replay_stats: replay run returned no replay or gateway stats")
		default:
			if gw.Registered != gw.Admitted || gw.Completed != gw.Registered {
				fail("replay_drain: admitted %d, registered %d, completed %d",
					gw.Admitted, gw.Registered, gw.Completed)
			}
			if rp.InjectionsSkipped > 0 || rp.Injections == 0 {
				fail("replay_storms: %d injections planned, %d skipped", rp.Injections, rp.InjectionsSkipped)
			}
			if res.MasterFailovers != len(cfg.MasterFailoverAt) {
				fail("replay_failover: %d of %d master failovers ran",
					res.MasterFailovers, len(cfg.MasterFailoverAt))
			}
		}
	}
	if cz := res.Chaos; cfg.Chaos {
		if cz == nil {
			return append(bad, "chaos_stats: chaos run returned no chaos stats")
		}
		if cz.InjectionsSkipped > 0 {
			fail("chaos_injections: %d skipped", cz.InjectionsSkipped)
		}
		if cz.Partitions != len(cfg.ChaosPartitionAt) || cz.Heals != cz.Partitions {
			fail("chaos_partitions: %d of %d storms ran, %d healed",
				cz.Partitions, len(cfg.ChaosPartitionAt), cz.Heals)
		}
		if want := cfg.ChaosFlaps * len(cfg.ChaosFlapAt); cz.LinkFlaps != want {
			fail("chaos_flaps: %d of %d link flaps ran", cz.LinkFlaps, want)
		}
		if want := cfg.ChaosSpikes * len(cfg.ChaosSpikeAt); cz.DelaySpikes != want {
			fail("chaos_spikes: %d of %d delay spikes ran", cz.DelaySpikes, want)
		}
		if cfg.ChaosLockPartitionAt > 0 && cz.LockPartitions != 1 {
			fail("chaos_lock_partition: %d lock partitions ran", cz.LockPartitions)
		}
		if cz.Unconverged > 0 {
			fail("chaos_converge: %d heal window(s) never converged", cz.Unconverged)
		}
		if cz.MasterEpoch < 2 {
			fail("chaos_epoch: master epoch stayed at %d", cz.MasterEpoch)
		}
	}
	return bad
}
