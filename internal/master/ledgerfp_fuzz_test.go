package master

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// ledgerFPOf recomputes a ledger fingerprint from scratch.
func ledgerFPOf(ledger map[string]map[int]int) uint64 {
	var fp uint64
	for app, units := range ledger {
		h := protocol.NameHash(app)
		for unit, n := range units {
			fp += protocol.LedgerEntryFP(h, unit, n)
		}
	}
	return fp
}

func sameLedger(a, b map[string]map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for app, ua := range a {
		ub, ok := b[app]
		if !ok || len(ua) != len(ub) {
			return false
		}
		for unit, n := range ua {
			if ub[unit] != n {
				return false
			}
		}
	}
	return true
}

// FuzzLedgerFingerprint drives a Scheduler and one FuxiAgent per machine
// through random sequences of grants, releases, restores, full capacity
// syncs, machine failures and daemon/machine crashes. The agents mirror
// every ledger change the scheduler makes through capacity deltas, except
// where a crash deliberately loses their table. After every step each
// incremental fingerprint (Scheduler.LedgerFP per machine, Agent.LedgerFP)
// must equal a from-scratch recompute over the materialized ledger, equal
// ledgers must have equal fingerprints, and the scheduler's always-on
// invariants (which recompute the fingerprints themselves) must hold.
func FuzzLedgerFingerprint(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 1, 9, 1, 0, 2, 3, 1, 0, 2, 2, 1})
	f.Add([]byte{0, 2, 16, 4, 3, 0, 0, 1, 7, 5, 1, 0, 3, 0, 0, 6, 0, 0})
	f.Add([]byte{0, 3, 12, 7, 1, 0, 8, 0, 0, 2, 0, 1, 3, 1, 0, 4, 2, 1, 6, 0, 0})
	f.Fuzz(runLedgerFPOps)
}

// runLedgerFPOps interprets data as (op, x, y) byte triples.
func runLedgerFPOps(t *testing.T, data []byte) {
	top := testTop(t, 2, 2)
	s := NewScheduler(top, Options{})
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	net.Register(protocol.MasterEndpoint, func(transport.EndpointID, transport.Message) {})
	machines := top.Machines()
	agents := make([]*agent.Agent, len(machines))
	for i, m := range machines {
		agents[i] = agent.New(agent.DefaultConfig(), eng, net, top.Machine(m))
	}
	apps := []string{"app-a", "app-b", "app-c"}
	units := []resource.ScheduleUnit{
		{ID: 1, Priority: 100, MaxCount: 40, Size: resource.New(1000, 4096)},
		{ID: 2, Priority: 200, MaxCount: 12, Size: resource.New(3000, 8192)},
	}
	register := func(app string) {
		if !s.Registered(app) {
			if err := s.RegisterApp(app, "", units); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, app := range apps {
		register(app)
	}

	// Capacity messages to each agent carry a per-agent sequence (reset
	// with the agent's dedup state when its daemon or machine crashes).
	seqs := make([]uint64, len(machines))
	deliver := func() { eng.Run(eng.Now() + 10*sim.Millisecond) }
	mirror := func(app string, unitID int, machine int32, delta int) {
		seqs[machine]++
		net.Send(protocol.MasterEndpoint, protocol.AgentEndpoint(machines[machine]), protocol.CapacityUpdate{
			App: app, UnitID: unitID, Size: units[unitID-1].Size, Delta: delta, Seq: seqs[machine],
		})
	}
	mirrorAll := func(ds []Decision) {
		for _, d := range ds {
			mirror(d.App, d.UnitID, d.MachineID, d.Delta)
		}
	}
	syncAgent := func(machine int32) {
		var entries []protocol.CapacityEntry
		for app, us := range s.GrantedByMachine()[machines[machine]] {
			for unit, n := range us {
				entries = append(entries, protocol.CapacityEntry{
					App: app, UnitID: unit, Size: units[unit-1].Size, Count: n,
				})
			}
		}
		net.Send(protocol.MasterEndpoint, protocol.AgentEndpoint(machines[machine]),
			protocol.CapacitySync{Machine: machine, Entries: entries})
	}

	for len(data) >= 3 {
		op, x, y := data[0]%9, int(data[1]), int(data[2])
		data = data[3:]
		app := apps[x%len(apps)]
		unitID := 1 + (x/len(apps))%2
		m := int32(y % len(machines))
		switch op {
		case 0: // grant: cluster-level demand
			register(app)
			ds, err := s.UpdateDemand(app, unitID, []resource.LocalityHint{
				{Type: resource.LocalityCluster, Count: 1 + y%16}})
			if err != nil {
				t.Fatal(err)
			}
			mirrorAll(ds)
		case 1: // release part of a grant (and reassign the freed capacity)
			if n := s.GrantedOn(app, unitID, m); n > 0 {
				k := 1 + y%n
				ds, err := s.Return(app, unitID, machines[m], k)
				if err != nil {
					t.Fatal(err)
				}
				mirror(app, unitID, m, -k)
				mirrorAll(ds)
			}
		case 2: // restore a grant, as the failover rebuild does
			if !s.Registered(app) || !s.schedulable(m) ||
				s.Held(app, unitID) >= units[unitID-1].MaxCount ||
				!s.FreeOn(machines[m]).Contains(units[unitID-1].Size) {
				break
			}
			if s.RestoreGrant(app, unitID, machines[m], 1) {
				mirror(app, unitID, m, 1)
			}
		case 3: // full capacity sync replaces the agent's table
			syncAgent(m)
		case 4: // daemon crash loses the table; the restart resyncs it
			agents[m].CrashDaemon()
			agents[m].RestartDaemon()
			seqs[m] = 0
			if y%2 == 0 {
				syncAgent(m)
			}
		case 5: // machine dies and comes back empty
			agents[m].CrashMachine()
			mirrorAll(s.MachineDown(machines[m]))
			agents[m].RestartMachine()
			seqs[m] = 0
			mirrorAll(s.MachineUp(machines[m]))
		case 6: // app leaves: its grants vanish from both ledgers
			if !s.Registered(app) {
				break
			}
			for _, u := range units {
				for mn, n := range s.Granted(app, u.ID) {
					mirror(app, u.ID, top.MachineID(mn), -n)
				}
			}
			mirrorAll(s.UnregisterApp(app))
		case 7: // grants whose capacity deltas are lost in flight
			register(app)
			ds, err := s.UpdateDemand(app, unitID, []resource.LocalityHint{
				{Type: resource.LocalityCluster, Count: 1 + y%4}})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range ds {
				seqs[d.MachineID]++ // the agent sees the gap on its next delta
			}
		case 8: // heartbeats: anchors reap zero-count entries
			eng.Run(eng.Now() + sim.Second)
		}
		deliver()

		if bad := s.CheckInvariants(); len(bad) > 0 {
			t.Fatalf("scheduler invariants: %v", bad)
		}
		byMachine := s.GrantedByMachine()
		for id, a := range agents {
			mv, av := byMachine[machines[id]], a.Allocations()
			if got, want := s.LedgerFP(int32(id)), ledgerFPOf(mv); got != want {
				t.Fatalf("machine %s: scheduler fingerprint %x, recomputed %x", machines[id], got, want)
			}
			if got, want := a.LedgerFP(), ledgerFPOf(av); got != want {
				t.Fatalf("machine %s: agent fingerprint %x, recomputed %x", machines[id], got, want)
			}
			if sameLedger(mv, av) && s.LedgerFP(int32(id)) != a.LedgerFP() {
				t.Fatalf("machine %s: equal ledgers %v, fingerprints %x != %x",
					machines[id], mv, s.LedgerFP(int32(id)), a.LedgerFP())
			}
		}
	}
}
