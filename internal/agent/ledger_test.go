package agent

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/protocol"
)

// ledgerModel is the reference capacity ledger: app -> unit -> count, with
// zero counts absent.
type ledgerModel map[string]map[int]int

func (m ledgerModel) add(app string, unit, delta int) {
	if m[app] == nil {
		m[app] = map[int]int{}
	}
	n := max(m[app][unit]+delta, 0)
	if n == 0 {
		delete(m[app], unit)
		if len(m[app]) == 0 {
			delete(m, app)
		}
		return
	}
	m[app][unit] = n
}

func (m ledgerModel) count(app string, unit int) int { return m[app][unit] }

func (m ledgerModel) fp() uint64 {
	var fp uint64
	for app, units := range m {
		for unit, c := range units {
			fp += protocol.LedgerEntryFP(protocol.NameHash(app), unit, c)
		}
	}
	return fp
}

// table is the model in the sorted wire form of an anchor beat.
func (m ledgerModel) table() []protocol.AllocDelta {
	var out []protocol.AllocDelta
	for app, units := range m {
		for unit, c := range units {
			out = append(out, protocol.AllocDelta{App: app, UnitID: unit, Count: c})
		}
	}
	protocol.SortAllocDeltas(out)
	return out
}

func (m ledgerModel) allocations() map[string]map[int]int {
	out := map[string]map[int]int{}
	for app, units := range m {
		out[app] = maps.Clone(units)
	}
	return out
}

type capAddr struct {
	app  string
	unit int
}

// FuzzAgentLedger drives one agent with random capacity deltas and updates
// (over-releases included), capacity syncs, daemon and machine crashes and
// restarts, and heartbeat ticks, and checks the slot ledger after every step
// against a plain map model: the allocation table, the ledger fingerprint
// recomputed from names, every anchor's sorted table, and every delta
// beat's change list (exactly the entries touched since the last beat).
func FuzzAgentLedger(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 0, 4, 4, 2, 9, 7, 3, 5, 1, 4, 0, 1, 8, 8, 6, 4, 2})
	f.Add([]byte{1, 200, 17, 33, 4, 0, 0, 3, 9, 81, 40, 4, 5, 0, 4, 5, 0, 4, 2, 12, 250})
	f.Add([]byte{3, 14, 3, 99, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0, 77, 6, 5, 1, 4, 5, 1, 4})
	apps := []string{"app-a", "app-b", "job-17", "svc"}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := newHarness(t).agent
		model := ledgerModel{}
		touched := map[capAddr]bool{}
		force, since := true, 0
		var seq uint64
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		// app returns a pool name, sometimes as a distinct string header
		// with equal contents.
		app := func(x int) string {
			name := apps[x%len(apps)]
			if x&8 != 0 {
				name = strings.Clone(name)
			}
			return name
		}
		for step := 0; pos < len(data); step++ {
			up := a.Up()
			switch op := next() % 6; op {
			case 0, 1:
				n := 1 + next()%3
				entries := make([]protocol.CapacityEntry, n)
				for i := range entries {
					x, c := next(), next()%7-3
					entries[i] = protocol.CapacityEntry{App: app(x), UnitID: x / 16 % 3, Size: size, Count: c}
					if up {
						model.add(entries[i].App, entries[i].UnitID, c)
						touched[capAddr{entries[i].App, entries[i].UnitID}] = true
					}
				}
				seq++
				a.handle(a.masterID, protocol.CapacityDelta{Entries: entries, Seq: seq})
			case 2:
				x, c := next(), next()%9-4
				seq++
				a.handle(a.masterID, protocol.CapacityUpdate{App: app(x), UnitID: x / 16 % 3, Size: size, Delta: c, Seq: seq})
				if up {
					model.add(app(x), x/16%3, c)
					touched[capAddr{app(x), x / 16 % 3}] = true
				}
			case 3:
				n := next() % 4
				entries := make([]protocol.CapacityEntry, n)
				synced := ledgerModel{}
				for i := range entries {
					x, c := next(), next()%5
					entries[i] = protocol.CapacityEntry{App: app(x), UnitID: x / 16 % 3, Size: size, Count: c}
					if c > 0 { // a later entry for the same address replaces it
						if synced[entries[i].App] != nil {
							delete(synced[entries[i].App], entries[i].UnitID)
						}
						synced.add(entries[i].App, entries[i].UnitID, c)
					}
				}
				seq++
				a.handle(a.masterID, protocol.CapacitySync{Machine: a.id, Entries: entries, Seq: seq})
				if up {
					model, force = synced, true
					clear(touched)
				}
			case 4:
				a.tick()
				if !up {
					break
				}
				since++
				hb := &a.hbRing[(a.hbIdx-1)%hbRingLen]
				if wantFull := force || since >= a.cfg.AnchorEvery; hb.Full != wantFull {
					t.Fatalf("step %d: beat Full = %v, want %v", step, hb.Full, wantFull)
				}
				if hb.Full {
					if !slices.Equal(hb.Allocations, model.table()) {
						t.Fatalf("step %d: anchor table %v, want %v", step, hb.Allocations, model.table())
					}
					force, since = false, 0
				} else {
					var want []protocol.AllocDelta
					for k := range touched {
						want = append(want, protocol.AllocDelta{App: k.app, UnitID: k.unit, Count: model.count(k.app, k.unit)})
					}
					protocol.SortAllocDeltas(want)
					if !slices.Equal(hb.Changes, want) {
						t.Fatalf("step %d: delta beat changes %v, want %v", step, hb.Changes, want)
					}
				}
				clear(touched)
			case 5:
				switch {
				case !a.machineUp:
					a.RestartMachine()
					force = true
				case !a.daemonUp:
					a.RestartDaemon()
					force = true
				case next()%2 == 0:
					a.CrashDaemon()
					model = ledgerModel{}
				default:
					a.CrashMachine()
					model = ledgerModel{}
				}
				clear(touched)
			}
			if got, want := a.Allocations(), model.allocations(); !maps.EqualFunc(got, want, maps.Equal) {
				t.Fatalf("step %d: Allocations %v, want %v", step, got, want)
			}
			if got, want := a.LedgerFP(), model.fp(); got != want {
				t.Fatalf("step %d: LedgerFP %x, want %x", step, got, want)
			}
		}
	})
}

// TestLedgerIndexCollision forces two (app, unit) pairs onto one index key
// by handing the slot lookup the same name hash for both: each must still be
// tracked on its own through grants, releases, a reap that drops the key's
// owner, and a capacity sync.
func TestLedgerIndexCollision(t *testing.T) {
	h := newHarness(t)
	a := h.agent
	const forced = 0x5eed
	count := func(app string) int {
		if i := a.find(app, forced, 1); i >= 0 {
			return a.slots[i].count
		}
		return 0
	}
	a.applyCapacity("x", forced, 1, 3)
	a.applyCapacity("y", forced, 1, 2)
	if len(a.slots) != 2 || len(a.index) != 1 {
		t.Fatalf("collision setup: %d slots, %d index keys, want 2 and 1", len(a.slots), len(a.index))
	}
	a.applyCapacity("y", forced, 1, 4)
	a.applyCapacity("x", forced, 1, -1)
	if count("x") != 2 || count("y") != 6 {
		t.Fatalf("after grants/releases x=%d y=%d, want 2 and 6", count("x"), count("y"))
	}
	// Release the index owner entirely and reap: the survivor must take the
	// key over, and the released pair must read as absent.
	a.applyCapacity("x", forced, 1, -5)
	a.sendAnchorBeat()
	if len(a.slots) != 1 || len(a.index) != 1 {
		t.Fatalf("after reap: %d slots, %d index keys, want 1 and 1", len(a.slots), len(a.index))
	}
	if i, ok := a.index[slotKey(forced, 1)]; !ok || a.slots[i].app != "y" {
		t.Fatalf("after reap the key does not name the survivor y")
	}
	if count("x") != 0 || count("y") != 6 {
		t.Fatalf("after reap x=%d y=%d, want 0 and 6", count("x"), count("y"))
	}
	// A returning x collides with the new owner and is found by the scan.
	a.applyCapacity("x", forced, 1, 1)
	if count("x") != 1 || count("y") != 6 {
		t.Fatalf("after re-grant x=%d y=%d, want 1 and 6", count("x"), count("y"))
	}
	want := map[string]map[int]int{"x": {1: 1}, "y": {1: 6}}
	if got := a.Allocations(); !maps.EqualFunc(got, want, maps.Equal) {
		t.Fatalf("Allocations %v, want %v", got, want)
	}
	a.applyCapacitySync(protocol.CapacitySync{Entries: []protocol.CapacityEntry{
		{App: "x", UnitID: 1, Size: size, Count: 4},
		{App: "y", UnitID: 1, Size: size, Count: 7},
	}})
	if a.Capacity("x", 1) != 4 || a.Capacity("y", 1) != 7 {
		t.Fatalf("after sync x=%d y=%d, want 4 and 7", a.Capacity("x", 1), a.Capacity("y", 1))
	}
	wantFP := protocol.LedgerEntryFP(protocol.NameHash("x"), 1, 4) + protocol.LedgerEntryFP(protocol.NameHash("y"), 1, 7)
	if a.LedgerFP() != wantFP {
		t.Fatalf("after sync LedgerFP %x, want %x", a.LedgerFP(), wantFP)
	}
}

// TestLedgerBoundedByLiveEntries cycles 10,000 distinct app names through
// one agent (grant, then release): after one anchor beat the slot slice and
// the index hold only the live entries, so the ledger does not grow with
// the agent's history.
func TestLedgerBoundedByLiveEntries(t *testing.T) {
	a := newHarness(t).agent
	grant := func(app string, delta int) {
		a.applyCapacity(app, protocol.NameHash(app), 1, delta)
	}
	grant("resident-0", 1)
	grant("resident-1", 2)
	for i := range 10_000 {
		app := fmt.Sprintf("transient-%d", i)
		grant(app, 1)
		grant(app, -1)
	}
	a.sendAnchorBeat()
	if len(a.slots) != 2 || len(a.index) != 2 {
		t.Fatalf("after the anchor: %d slots, %d index keys, want 2 and 2", len(a.slots), len(a.index))
	}
	if c := cap(a.slots); c > 64 {
		t.Errorf("slot storage still sized for the history: cap %d", c)
	}
	if a.Capacity("resident-0", 1) != 1 || a.Capacity("resident-1", 1) != 2 || a.Capacity("transient-7", 1) != 0 {
		t.Errorf("live entries lost in the reap: %v", a.Allocations())
	}
}
