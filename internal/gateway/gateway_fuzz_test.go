package gateway

import (
	"fmt"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// FuzzGatewayLifecycle drives a gateway through random sequences of
// submissions (with reused IDs and tight limits, so every shed reason
// fires), clock advances, dropped acknowledgements, master crashes,
// promotion hellos and job completions. After every step the per-state
// counters must equal a recount of the job table and the O(1) conservation
// check must be clean; at settled points (master up, acks flowing, every
// timer-driven message delivered) the full recount check must be clean too.
func FuzzGatewayLifecycle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 20, 5, 0, 6, 0})
	f.Add([]byte{0, 1, 3, 0, 2, 5, 2, 0, 1, 40, 3, 0, 0, 3, 7, 4, 0, 1, 30, 6, 0})
	f.Add([]byte{0, 4, 1, 0, 4, 1, 1, 2, 5, 1, 3, 0, 1, 9, 4, 0, 5, 0, 5, 1, 6, 0, 0, 9, 6})
	f.Fuzz(runGatewayOps)
}

// runGatewayOps interprets data as (op, x) byte pairs.
func runGatewayOps(t *testing.T, data []byte) {
	lim := DefaultLimits()
	lim.Burst = 2
	lim.RefillEvery = 50 * sim.Millisecond
	lim.QueueCap = 3
	lim.MaxQueued = 8
	lim.MaxInFlight = 4
	lim.AdmitPerRound = 2
	fx := newFixture(t, lim)
	g := fx.gw
	masterUp, acksDropped := true, false
	epoch := 1

	check := func(step int, settled bool) {
		t.Helper()
		var recount [numStates]uint64
		for _, rec := range g.jobs {
			recount[rec.state]++
		}
		if recount != g.byState {
			t.Fatalf("step %d: per-state counters %v != table recount %v", step, g.byState, recount)
		}
		if bad := g.CheckConservation(false); len(bad) > 0 {
			t.Fatalf("step %d: O(1) conservation: %v", step, bad)
		}
		if settled {
			if bad := g.CheckConservation(true); len(bad) > 0 {
				t.Fatalf("step %d: settled conservation: %v", step, bad)
			}
		}
	}
	// settle restores a live primary and clean acks, then runs past every
	// retry backoff to 5 ms after a timer tick: the gateway's timers fire on
	// 10 ms multiples and a round trip takes 400 µs, so nothing is in flight.
	settle := func(step int) {
		if acksDropped {
			fx.net.SetLinkRule(protocol.MasterEndpoint, protocol.GatewayEndpoint, transport.LinkRule{})
			acksDropped = false
		}
		if !masterUp {
			epoch++
			fx.master.promote(epoch)
			masterUp = true
		}
		tick := lim.AdmitPeriod
		until := (fx.eng.Now()+10*sim.Second)/tick*tick + tick/2
		fx.run(until - fx.eng.Now())
		check(step, true)
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, x := data[i]%7, data[i+1]
		switch op {
		case 0: // submit; 16 IDs over 4 tenants, so IDs repeat
			g.Submit(Job{ID: fmt.Sprintf("j%d", x%16), Tenant: fmt.Sprintf("t%d", x%4), Class: Class(x / 16 % 2)})
		case 1: // advance the clock
			fx.run(sim.Time(x) * sim.Millisecond)
		case 2: // start or stop dropping acknowledgements
			acksDropped = !acksDropped
			r := transport.LinkRule{}
			if acksDropped {
				r.Drop = 1
			}
			fx.net.SetLinkRule(protocol.MasterEndpoint, protocol.GatewayEndpoint, r)
		case 3: // crash the primary
			if masterUp {
				fx.master.crash()
				masterUp = false
			}
		case 4: // promote a new primary: its hello triggers the admit replay
			if masterUp {
				fx.master.crash()
			}
			epoch++
			fx.master.promote(epoch)
			masterUp = true
		case 5: // complete a registered job (or try an invalid completion)
			if len(fx.reg) > 0 {
				g.JobCompleted(fx.reg[int(x)%len(fx.reg)].ID)
			} else {
				g.JobCompleted(fmt.Sprintf("j%d", x%16))
			}
		case 6:
			settle(i)
		}
		check(i, false)
	}
	settle(len(data))
}
