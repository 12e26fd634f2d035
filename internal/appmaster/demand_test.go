package appmaster

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// demandModel is the reference demand ledger: unit -> target -> count in a
// plain map, with the withdrawal clamp and the machine, rack, cluster grant
// consumption order of the AM protocol.
type demandModel struct {
	units map[int]bool
	out   map[int]map[locTarget]int
}

// request applies one Request and returns the deltas it must send (ok
// false when nothing is sent).
func (m *demandModel) request(unitID int, hints []resource.LocalityHint) (sent []resource.LocalityHint, ok bool) {
	if !m.units[unitID] {
		return nil, false
	}
	out := m.out[unitID]
	if out == nil {
		out = map[locTarget]int{}
		m.out[unitID] = out
	}
	for _, h := range hints {
		if h.Count == 0 {
			continue
		}
		k := locTarget{h.Type, h.Value}
		n := out[k] + h.Count
		if n < 0 {
			h.Count -= n
			n = 0
		}
		if h.Count == 0 {
			continue
		}
		out[k] = n
		sent = append(sent, h)
	}
	return sent, len(sent) > 0
}

func (m *demandModel) consume(top *topology.Topology, unitID int, machine int32, count int) {
	out := m.out[unitID]
	for _, k := range []locTarget{
		{resource.LocalityMachine, top.MachineName(machine)},
		{resource.LocalityRack, top.RackName(top.RackIDOf(machine))},
		{resource.LocalityCluster, ""},
	} {
		for count > 0 && out[k] > 0 {
			out[k]--
			count--
		}
	}
}

func (m *demandModel) outstanding(unitID int) int {
	n := 0
	for _, c := range m.out[unitID] {
		n += c
	}
	return n
}

// hints is the sorted positive demand of a unit, as a full sync reports it.
func (m *demandModel) hints(unitID int) []resource.LocalityHint {
	var hs []resource.LocalityHint
	for k, c := range m.out[unitID] {
		if c > 0 {
			hs = append(hs, resource.LocalityHint{Type: k.typ, Value: k.value, Count: c})
		}
	}
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Type != hs[j].Type {
			return hs[i].Type < hs[j].Type
		}
		return hs[i].Value < hs[j].Value
	})
	return hs
}

// TestDemandLedgerMatchesModel drives an application master with random
// demand additions, withdrawals and over-withdrawals (machine, rack,
// cluster and unknown-machine targets) mixed with grants and revocations,
// and checks after every step that Outstanding, the DemandUpdate deltas on
// the wire, and a FullDemandSync's per-unit demand all match the model.
func TestDemandLedgerMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		eng := sim.NewEngine(seed)
		net := transport.NewNet(eng)
		top, err := topology.Build(topology.Spec{
			Racks: 3, MachinesPerRack: 3, MachineCapacity: resource.New(12000, 96*1024),
		})
		if err != nil {
			t.Fatal(err)
		}
		var sent []transport.Message
		net.Register(protocol.MasterEndpoint, func(_ transport.EndpointID, m transport.Message) { sent = append(sent, m) })
		units := []resource.ScheduleUnit{
			{ID: 1, Priority: 100, MaxCount: 50, Size: resource.New(1000, 2048)},
			{ID: 4, Priority: 90, MaxCount: 50, Size: resource.New(500, 1024)},
			{ID: 7, Priority: 80, MaxCount: 50, Size: resource.New(2000, 4096)},
		}
		am := New(Config{App: "app1", Units: units}, eng, net, top, Callbacks{})
		model := &demandModel{units: map[int]bool{1: true, 4: true, 7: true}, out: map[int]map[locTarget]int{}}
		rng := rand.New(rand.NewSource(seed))
		var targets []locTarget
		for _, name := range top.Machines() {
			id := top.MachineID(name)
			targets = append(targets,
				locTarget{resource.LocalityMachine, name},
				locTarget{resource.LocalityRack, top.RackName(top.RackIDOf(id))})
		}
		targets = append(targets, locTarget{resource.LocalityMachine, "no-such-machine"},
			locTarget{resource.LocalityCluster, ""}, locTarget{resource.LocalityCluster, ""})
		unitIDs := []int{1, 4, 7, 9} // 9 is not one of the app's units
		var grantSeq uint64

		flush := func() []transport.Message {
			eng.Run(eng.Now() + 10*sim.Millisecond)
			got := sent
			sent = nil
			return got
		}
		flush()
		for step := 0; step < 600; step++ {
			unitID := unitIDs[rng.Intn(len(unitIDs))]
			switch r := rng.Intn(10); {
			case r < 6:
				hints := make([]resource.LocalityHint, 1+rng.Intn(3))
				for i := range hints {
					k := targets[rng.Intn(len(targets))]
					c := rng.Intn(6) + 1
					if r >= 3 {
						c = rng.Intn(13) - 8 // withdrawals, over-withdrawals, zeros
					}
					hints[i] = resource.LocalityHint{Type: k.typ, Value: k.value, Count: c}
				}
				want, ok := model.request(unitID, slices.Clone(hints))
				am.Request(unitID, hints...)
				var got []protocol.DemandUpdate
				for _, m := range flush() {
					if d, isDem := m.(protocol.DemandUpdate); isDem {
						got = append(got, d)
					}
				}
				if !ok {
					if len(got) != 0 {
						t.Fatalf("seed %d step %d: sent %+v, want nothing", seed, step, got)
					}
					break
				}
				if len(got) != 1 || got[0].UnitID != unitID || !slices.Equal(got[0].Deltas, want) {
					t.Fatalf("seed %d step %d: sent %+v, want unit %d deltas %v", seed, step, got, unitID, want)
				}
			default:
				machine := int32(rng.Intn(len(top.Machines())))
				delta := rng.Intn(7) - 2
				grantSeq++
				am.handle(am.masterID, protocol.GrantUpdate{
					App: "app1", UnitID: unitID, Seq: grantSeq,
					Changes: []protocol.MachineDelta{{Machine: machine, Delta: delta}},
				})
				if delta > 0 && model.units[unitID] {
					model.consume(top, unitID, machine, delta)
				}
			}
			for _, id := range unitIDs {
				if got, want := am.Outstanding(id), model.outstanding(id); got != want {
					t.Fatalf("seed %d step %d: Outstanding(%d) = %d, want %d", seed, step, id, got, want)
				}
			}
			if step%25 != 0 {
				continue
			}
			am.fullSync()
			var sync *protocol.FullDemandSync
			for _, m := range flush() {
				if s, ok := m.(protocol.FullDemandSync); ok {
					sync = &s
				}
			}
			if sync == nil {
				t.Fatalf("seed %d step %d: no FullDemandSync sent", seed, step)
			}
			for _, u := range units {
				// An absent unit reads as empty: the master looks up
				// Demand[id] for each of its units.
				if got, want := sync.Demand[u.ID], model.hints(u.ID); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: sync demand of unit %d = %v, want %v", seed, step, u.ID, got, want)
				}
			}
		}
	}
}
