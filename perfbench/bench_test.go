package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/scale"
	"repro/internal/sim"
)

// shrink keeps a workload's shape but sizes it like the harness's smoke
// runs, so the whole pipeline runs in seconds.
func shrink(name string, c scale.Config) scale.Config {
	var s scale.Config
	switch name {
	case "churn":
		s = scale.SmokeChurnConfig()
	case "replay":
		s = scale.SmokeReplayConfig()
		c.GatewayUsers, c.GatewayHotTenants = s.GatewayUsers, s.GatewayHotTenants
		c.ReplayDayLength, c.ReplaySessionsPerSec = s.ReplayDayLength, s.ReplaySessionsPerSec
		c.ReplayWidthMax, c.ReplayHoldMin, c.ReplayHoldMax = s.ReplayWidthMax, s.ReplayHoldMin, s.ReplayHoldMax
		c.ReplayStormAt, c.MasterFailoverAt = s.ReplayStormAt, s.MasterFailoverAt
	case "chaos":
		s = scale.SmokeChaosConfig()
		c.ChaosPartitionAt, c.ChaosPartitionFor, c.ChaosPartitionPct = s.ChaosPartitionAt, s.ChaosPartitionFor, s.ChaosPartitionPct
		c.ChaosFlapAt, c.ChaosFlaps = s.ChaosFlapAt, s.ChaosFlaps
		c.ChaosSpikeAt, c.ChaosSpikes = s.ChaosSpikeAt, s.ChaosSpikes
		c.ChaosLockPartitionAt = s.ChaosLockPartitionAt
		c.ObsRetain, c.ObsQueryEvery = 256, 2*sim.Second
	}
	c.Racks, c.MachinesPerRack, c.Apps, c.UnitsPerApp = s.Racks, s.MachinesPerRack, s.Apps, s.UnitsPerApp
	c.ArrivalWindow, c.ChurnWarmup, c.ChurnMeasure, c.Horizon = s.ArrivalWindow, s.ChurnWarmup, s.ChurnMeasure, s.Horizon
	return c
}

// withTinyWorkloads swaps in smoke-sized workloads for the test's duration;
// edit, when non-nil, changes each configuration further.
func withTinyWorkloads(t *testing.T, edit func(name string, c *scale.Config)) {
	t.Helper()
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	var tiny []workload
	for _, w := range saved {
		w, full := w, w.config
		w.config = func(seed int64) scale.Config {
			c := shrink(w.name, full(seed))
			if edit != nil {
				edit(w.name, &c)
			}
			return c
		}
		tiny = append(tiny, w)
	}
	workloads = tiny
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runBench runs the benchmark in-process and decodes its last line.
func runBench(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: last line is not the result: %v\n%s%s", args, err, out.String(), errOut.String())
	}
	return code, out.String(), r
}

type nameUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []nameUnit `json:"workloads"`
	EndToEnd  []nameUnit `json:"end_to_end"`
	PerLayer  []nameUnit `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every workload passes its correctness checks at a tiny footprint and
// reports every metric BENCHMARK.json names, with its unit, under the
// trace setting it belongs to; claims.json agrees with what is printed.
func TestWorkloadsAtTinyFootprint(t *testing.T) {
	withTinyWorkloads(t, nil)
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
	printed := map[string]map[string]claimedMetric{} // workload → metric
	for trace, want := range map[string][]nameUnit{"0": bf.EndToEnd, "1": bf.PerLayer} {
		for _, w := range workloads {
			code, out, r := runBench(t, "--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace)
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, result %+v\n%s", w.name, trace, code, r, out)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w.name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace %s: metric %s not printed", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s has unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s trace %s: metric %s = %v", w.name, trace, m.Name, *got.Value)
				case trace == "0" && *got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
			for _, line := range strings.Split(out, "\n") {
				f := strings.Fields(line)
				if len(f) < 5 || f[0] != "metric" {
					continue
				}
				if !metricName.MatchString(f[1]) {
					t.Errorf("%s: printed metric name %q does not match %s", w.name, f[1], metricName)
				}
				if printed[w.name] == nil {
					printed[w.name] = map[string]claimedMetric{}
				}
				printed[w.name][f[1]] = claimedMetric{Unit: f[3], Clock: strings.TrimPrefix(f[4], "clock=")}
			}
		}
	}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("BENCHMARK.json metric name %q does not match %s", m.Name, metricName)
		}
	}
	checkClaims(t, bf, printed)
}

type claimedMetric struct {
	Unit      string   `json:"unit"`
	Better    string   `json:"better"`
	Clock     string   `json:"clock"`
	Workloads []string `json:"workloads"`
	Bounded   bool     `json:"bounded"`
}

type workloadMetric struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// checkClaims holds claims.json to what the benchmark prints: every metric
// it describes is printed, with its unit and clock, on the workloads it
// names; the bounded ones are exactly BENCHMARK.json's end-to-end metrics;
// and every layer claim names printed metrics and real workloads.
func checkClaims(t *testing.T, bf benchmarkFile, printed map[string]map[string]claimedMetric) {
	t.Helper()
	b, err := os.ReadFile("claims.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads map[string]struct {
			Loop string `json:"loop"`
			Runs int    `json:"runs_per_measurement"`
		} `json:"workloads"`
		Metrics     map[string]claimedMetric `json:"metrics"`
		LayerClaims []struct {
			LayerMetrics []string         `json:"layer_metrics"`
			Moves        []workloadMetric `json:"moves"`
			MovesLittle  []workloadMetric `json:"moves_little"`
		} `json:"layer_claims"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if got := c.Workloads[w.name]; got.Loop != w.loop || got.Runs != w.reps {
			t.Errorf("claims.json: %s loop %q with %d runs, the benchmark says %q with %d",
				w.name, got.Loop, got.Runs, w.loop, w.reps)
		}
	}
	bounded := map[string]bool{}
	for _, m := range bf.EndToEnd {
		bounded[m.Name] = true
	}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		cm, ok := c.Metrics[m.Name]
		if !ok {
			t.Errorf("claims.json does not describe %s", m.Name)
		} else if cm.Unit != m.Unit {
			t.Errorf("claims.json: %s unit %q, BENCHMARK.json %q", m.Name, cm.Unit, m.Unit)
		}
	}
	for name, cm := range c.Metrics {
		if cm.Bounded != bounded[name] {
			t.Errorf("claims.json: %s bounded=%v, BENCHMARK.json end_to_end disagrees", name, cm.Bounded)
		}
		ws := cm.Workloads
		if len(ws) == 0 {
			for _, w := range workloads {
				ws = append(ws, w.name)
			}
		}
		for _, w := range ws {
			got, ok := printed[w][name]
			if !ok {
				t.Errorf("claims.json: %s is not printed on %s", name, w)
			} else if got.Unit != cm.Unit || got.Clock != cm.Clock {
				t.Errorf("claims.json: %s is %s/%s, printed as %s/%s on %s", name, cm.Unit, cm.Clock, got.Unit, got.Clock, w)
			}
		}
	}
	for _, lc := range c.LayerClaims {
		for _, m := range lc.LayerMetrics {
			if _, ok := c.Metrics[m]; !ok {
				t.Errorf("claims.json: layer claim names unknown metric %s", m)
			}
		}
		for _, wm := range append(lc.Moves, lc.MovesLittle...) {
			if _, ok := c.Metrics[wm.Metric]; !ok {
				t.Errorf("claims.json: layer claim names unknown metric %s", wm.Metric)
			}
			if _, ok := findWorkload(wm.Workload); !ok {
				t.Errorf("claims.json: layer claim names unknown workload %s", wm.Workload)
			}
		}
	}
}

// A run whose output is wrong exits 1 and names the failed check.
func TestFailedCheckExitsNonZero(t *testing.T) {
	withTinyWorkloads(t, func(name string, c *scale.Config) {
		c.ChaosLockPartitionAt = 0 // no promotion: the epoch cannot advance
	})
	code, out, r := runBench(t, "--workload", "chaos", "--seed", "1", "--seconds", "1")
	if code != 1 || r.Correct || r.Failed == 0 {
		t.Fatalf("exit %d, result %+v, want exit 1 and correct=false", code, r)
	}
	if !strings.Contains(out, "check FAILED run 1: chaos_epoch") {
		t.Errorf("failed check not named:\n%s", out)
	}
}

func TestCheckNamesEveryFailure(t *testing.T) {
	replayCfg := scale.Config{Replay: true, MasterFailoverAt: []sim.Time{sim.Second}}
	chaosCfg := scale.Config{Chaos: true, ChaosPartitionAt: []sim.Time{sim.Second},
		ChaosFlapAt: []sim.Time{sim.Second}, ChaosFlaps: 2,
		ChaosSpikeAt: []sim.Time{sim.Second}, ChaosSpikes: 2, ChaosLockPartitionAt: sim.Second}
	goodReplay := func() *scale.Result {
		return &scale.Result{Decisions: 10, MasterFailovers: 1,
			Replay:  &scale.ReplayStats{Injections: 5},
			Gateway: &gateway.Stats{Admitted: 4, Registered: 4, Completed: 4}}
	}
	goodChaos := func() *scale.Result {
		return &scale.Result{Decisions: 10, Chaos: &scale.ChaosStats{Partitions: 1, Heals: 1,
			LinkFlaps: 2, DelaySpikes: 2, LockPartitions: 1, MasterEpoch: 2}}
	}
	if bad := check(replayCfg, goodReplay()); len(bad) != 0 {
		t.Fatalf("good replay fails %v", bad)
	}
	if bad := check(chaosCfg, goodChaos()); len(bad) != 0 {
		t.Fatalf("good chaos fails %v", bad)
	}
	cases := []struct {
		want   string
		cfg    scale.Config
		broken func() *scale.Result
	}{
		{"invariants", replayCfg, func() *scale.Result {
			r := goodReplay()
			r.Invariants = []string{"ledger mismatch"}
			return r
		}},
		{"replay_drain", replayCfg, func() *scale.Result {
			r := goodReplay()
			r.Gateway.Completed = 3
			return r
		}},
		{"replay_drain", replayCfg, func() *scale.Result {
			r := goodReplay()
			r.Gateway.Admitted = 5
			return r
		}},
		{"replay_storms", replayCfg, func() *scale.Result {
			r := goodReplay()
			r.Replay.InjectionsSkipped = 1
			return r
		}},
		{"chaos_injections", chaosCfg, func() *scale.Result {
			r := goodChaos()
			r.Chaos.InjectionsSkipped = 1
			return r
		}},
		{"chaos_partitions", chaosCfg, func() *scale.Result {
			r := goodChaos()
			r.Chaos.Heals = 0
			return r
		}},
		{"chaos_converge", chaosCfg, func() *scale.Result {
			r := goodChaos()
			r.Chaos.Unconverged = 1
			return r
		}},
		{"chaos_epoch", chaosCfg, func() *scale.Result {
			r := goodChaos()
			r.Chaos.MasterEpoch = 1
			return r
		}},
	}
	for _, c := range cases {
		bad := check(c.cfg, c.broken())
		if len(bad) != 1 || !strings.HasPrefix(bad[0], c.want+":") {
			t.Errorf("want one %s failure, got %v", c.want, bad)
		}
	}
}

func TestFailedPctAndSetup(t *testing.T) {
	replay := &scale.Result{
		Replay:  &scale.ReplayStats{},
		Gateway: &gateway.Stats{Submitted: 200, Shed: 10, Admitted: 190, Registered: 190, Completed: 180},
	}
	if got := failedPct(replay); got != 10 {
		t.Errorf("replay failed_pct = %v, want (10 shed + 10 unfinished) / 200 = 10", got)
	}
	churn := &scale.Result{Grants: 400, Revokes: 10}
	if got := failedPct(churn); got != 2.5 {
		t.Errorf("churn failed_pct = %v, want 10 / 400 = 2.5", got)
	}
	if got := failedPct(&scale.Result{}); got != 0 {
		t.Errorf("empty failed_pct = %v, want 0", got)
	}
	if got := setupSeconds(10*time.Second, &scale.Result{WallSeconds: 7.5}); got != 2.5 {
		t.Errorf("setup_s = %v, want 10 - 7.5 = 2.5", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
