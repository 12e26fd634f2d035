package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/scale"
)

func readSections(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func bound(v float64) *float64 { return &v }

const table = `[
    {"section": "churn", "metric": "allocs_per_decision", "max": 8},
    {"section": "gateway", "metric": "allocs_per_admission", "max": 60, "smoke": 90}
  ]`

// TestWriteOutMergePreservesSections pins the -merge contract: folding a
// gateway run into an existing compare-shaped BENCH_scale.json keeps the
// old sections and leaves the budgets table byte-identical.
func TestWriteOutMergePreservesSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	seed, err := json.MarshalIndent(map[string]json.RawMessage{
		"baseline":  json.RawMessage(`{"decisions": 1}`),
		"optimized": json.RawMessage(`{"decisions": 2}`),
		"budgets":   json.RawMessage(table),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, seed, 0o644); err != nil {
		t.Fatal(err)
	}
	before := readSections(t, path)["budgets"]
	res := &scale.Result{Decisions: 42}
	if err := writeOut(path, res, "gateway", true, false); err != nil {
		t.Fatal(err)
	}
	m := readSections(t, path)
	for _, want := range []string{"baseline", "optimized", "gateway", "budgets"} {
		if _, ok := m[want]; !ok {
			t.Errorf("merged file lost or lacks section %q", want)
		}
	}
	if !bytes.Equal(m["budgets"], before) {
		t.Errorf("merge rewrote the budgets table:\n%s\nwant\n%s", m["budgets"], before)
	}

	// Merging into a missing file starts a fresh document.
	fresh := filepath.Join(t.TempDir(), "new.json")
	if err := writeOut(fresh, res, "gateway", true, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := readSections(t, fresh)["gateway"]; !ok {
		t.Error("merge into missing file lost the run section")
	}

	// -merge with -compare is a usage error (compare writes all sections).
	if err := writeOut(path, res, "gateway", true, true); err == nil {
		t.Error("merge+compare accepted")
	}
}

// TestPrevToleratesMissingSections pins the -prev contract: an old baseline
// without a newly added section is a tagged skip, never an error; its
// recorded table drives the gates; and a file without a table (or with the
// old one-field-per-budget object) cannot be gated on.
func TestPrevToleratesMissingSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"baseline": {"decisions_per_sec": 100}, "optimized": {"decisions_per_sec": 900},
	         "budgets": ` + table + `}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	sections := loadPrev(path)
	if sections == nil {
		t.Fatal("prev file not loaded")
	}
	d := diffPrev(path, sections, []string{"optimized", "gateway"})
	if len(d.Compared) != 1 || d.Compared[0] != "optimized" {
		t.Errorf("compared = %v, want [optimized]", d.Compared)
	}
	if len(d.SkippedSections) != 1 || d.SkippedSections[0] != "gateway" {
		t.Errorf("skipped = %v, want [gateway] (old baselines predate the section)", d.SkippedSections)
	}

	// The recorded rows apply.
	rows, err := parseBudgets(sections["budgets"])
	if err != nil {
		t.Fatal(err)
	}
	churn := &scale.Result{AllocsPerDecision: 9}
	if bad := checkBudgets(rows, map[string]any{"churn": churn}, false); len(bad) != 1 ||
		!strings.Contains(bad[0], "churn allocs_per_decision = 9 exceeds max 8") {
		t.Errorf("recorded churn budget not applied: %v", bad)
	}

	// A missing or malformed prev file degrades to no baseline, no error.
	if loadPrev(filepath.Join(t.TempDir(), "absent.json")) != nil || diffPrev("", nil, []string{"optimized"}) != nil {
		t.Error("missing prev file did not degrade gracefully")
	}
	// ... but there is nothing to gate on.
	if _, err := parseBudgets(nil); err == nil {
		t.Error("missing budgets table accepted")
	}
	if _, err := parseBudgets(json.RawMessage(`{"max_allocs_per_decision": 10}`)); err == nil {
		t.Error("old struct-shaped budgets accepted as a table")
	}
	if _, err := parseBudgets(json.RawMessage(`[{"section": "churn", "metric": "allocs_per_decision"}]`)); err == nil {
		t.Error("row without min or max accepted")
	}
}

// TestCheckBudgetsWithoutTableIsUsageError: -check-budgets with no -prev,
// a missing -prev file, or an old struct-shaped budgets object exits 2
// before running anything, instead of gating on nothing.
func TestCheckBudgetsWithoutTableIsUsageError(t *testing.T) {
	dir := t.TempDir()
	oldShape := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldShape, []byte(`{"budgets": {"max_allocs_per_decision": 10}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, prev := range []string{"", filepath.Join(dir, "absent.json"), oldShape} {
		if got := run([]string{"-smoke", "-check-budgets", "-prev", prev, "-out", "-"}); got != 2 {
			t.Errorf("-check-budgets -prev %q: exit %d, want 2", prev, got)
		}
	}
}

// TestBudgetRows ports the per-scenario budget cases onto the table: a
// bound at half the measured value trips exactly that row, measured+1
// passes; the smoke value applies only under -smoke; parallel rows apply
// to each element; and a misspelled metric fails naming its row.
func TestBudgetRows(t *testing.T) {
	chaos := &scale.Result{Chaos: &scale.ChaosStats{ConvergenceP99MS: 4075, ReissuedGrants: 3304}}
	conv := func(max float64) []budgetRow {
		return []budgetRow{{Section: "chaos", Metric: "chaos.convergence_p99_ms", Max: bound(max)}}
	}
	if bad := checkBudgets(conv(4075.0/2), map[string]any{"chaos": chaos}, false); len(bad) != 1 ||
		!strings.Contains(bad[0], "chaos chaos.convergence_p99_ms = 4075 exceeds max 2037.5") {
		t.Errorf("convergence budget did not trip: %v", bad)
	}
	if bad := checkBudgets(conv(4075+1), map[string]any{"chaos": chaos}, false); len(bad) != 0 {
		t.Errorf("in-budget chaos run flagged: %v", bad)
	}

	obs := &scale.Result{Obs: &scale.ObsStats{CheckpointBytesPerJob: 4355.6, AllocsPerSample: 0}}
	bpj := func(max float64) budgetRow {
		return budgetRow{Section: "obs", Metric: "obs.checkpoint_bytes_per_job", Max: bound(max)}
	}
	if bad := checkBudgets([]budgetRow{bpj(4355.6 / 2)}, map[string]any{"obs": obs}, false); len(bad) != 1 {
		t.Errorf("checkpoint bytes/job budget did not trip: %v", bad)
	}
	if bad := checkBudgets([]budgetRow{
		{Section: "obs", Metric: "obs.allocs_per_sample", Max: bound(0.01)},
		bpj(4355.6 + 1),
	}, map[string]any{"obs": obs}, false); len(bad) != 0 {
		t.Errorf("in-budget obs run flagged: %v", bad)
	}

	// The smoke value replaces the bound under -smoke only, for max and
	// min rows alike.
	gw := map[string]any{"gateway": &scale.Result{AllocsPerAdmission: 75}}
	adm := []budgetRow{{Section: "gateway", Metric: "allocs_per_admission", Max: bound(60), Smoke: bound(90)}}
	if bad := checkBudgets(adm, gw, false); len(bad) != 1 {
		t.Errorf("paper-scale bound not applied without -smoke: %v", bad)
	}
	if bad := checkBudgets(adm, gw, true); len(bad) != 0 {
		t.Errorf("smoke bound not applied under -smoke: %v", bad)
	}
	dp := map[string]any{"dataplane": &scale.Result{Dataplane: &scale.DataplaneStats{LocalityHitRatePct: 50}}}
	loc := []budgetRow{{Section: "dataplane", Metric: "dataplane.locality_hit_rate_pct", Min: bound(40), Smoke: bound(60)}}
	if bad := checkBudgets(loc, dp, false); len(bad) != 0 {
		t.Errorf("min row flagged a value above it: %v", bad)
	}
	if bad := checkBudgets(loc, dp, true); len(bad) != 1 || !strings.Contains(bad[0], "below smoke min 60") {
		t.Errorf("smoke min not applied under -smoke: %v", bad)
	}

	// Parallel rows apply to each element of the array.
	par := map[string]any{"parallel": []scale.Result{{AllocsPerDecision: 8}, {AllocsPerDecision: 12}}}
	apd := []budgetRow{{Section: "parallel", Metric: "allocs_per_decision", Max: bound(10)}}
	if bad := checkBudgets(apd, par, false); len(bad) != 1 || !strings.HasPrefix(bad[0], "budget parallel[1] allocs_per_decision") {
		t.Errorf("parallel row not applied per element: %v", bad)
	}

	// A misspelled metric is a failure naming the row, never a pass; a row
	// for a section this run did not produce does not apply.
	typo := []budgetRow{
		{Section: "chaos", Metric: "chaos.convergence_p99", Max: bound(6000)},
		{Section: "replay", Metric: "replay.shed_pct", Max: bound(15)},
	}
	if bad := checkBudgets(typo, map[string]any{"chaos": chaos}, false); len(bad) != 1 ||
		!strings.Contains(bad[0], "{chaos chaos.convergence_p99}") {
		t.Errorf("misspelled metric not reported by row: %v", bad)
	}
}

// TestCheckedInBudgetRowsResolve: every row of the checked-in tables names
// a metric that exists in the recorded section of the same name, and the
// recorded paper-scale sections are within their own budgets.
func TestCheckedInBudgetRowsResolve(t *testing.T) {
	sections := readSections(t, filepath.Join("..", "..", "BENCH_scale.json"))
	rows, err := parseBudgets(sections["budgets"])
	if err != nil {
		t.Fatal(err)
	}
	produced := map[string]any{}
	for _, b := range rows {
		raw, ok := sections[b.Section]
		if !ok {
			t.Errorf("row {%s %s}: no recorded section %q", b.Section, b.Metric, b.Section)
			continue
		}
		produced[b.Section] = raw
	}
	for _, v := range checkBudgets(rows, produced, false) {
		t.Error(v)
	}

	// The SMP file is one section (its top-level document). Recorded on a
	// single-core host, it only has to resolve: the speedup gate skips there.
	smp, err := os.ReadFile(filepath.Join("..", "..", "BENCH_scale_smp.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(smp, &doc); err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(doc["budgets"])
	smpRows, err := parseBudgets(raw)
	if err != nil || len(smpRows) == 0 {
		t.Fatalf("BENCH_scale_smp.json budgets: %v (%d rows)", err, len(smpRows))
	}
	for _, b := range smpRows {
		if _, ok := lookup(doc, b.Metric); b.Section != "smp" || !ok {
			t.Errorf("smp row {%s %s} does not resolve in BENCH_scale_smp.json", b.Section, b.Metric)
		}
	}
}

// TestContractNamesEachClause builds, for every clause of every scenario
// contract, a result that breaks only that clause and expects exactly that
// named violation; the passing results yield none.
func TestContractNamesEachClause(t *testing.T) {
	good := map[string]func() any{
		"optimized": func() any { return &scale.Result{} },
		"failover": func() any {
			return &scale.Result{Config: scale.Config{Apps: 10}, CompletedApps: 10}
		},
		"gateway": func() any {
			return &scale.Result{Gateway: &gateway.Stats{Submitted: 10, Completed: 7, Shed: 3}}
		},
		"replay": func() any {
			return &scale.Result{Gateway: &gateway.Stats{Submitted: 10, Completed: 7, Shed: 3},
				Replay: &scale.ReplayStats{Submissions: 10, Injections: 4, InjectionsSkipped: 1}}
		},
		"dataplane": func() any {
			return &scale.Result{Config: scale.Config{GraySortJobs: 2, DAGJobs: 2, ServiceJobs: 1},
				Dataplane: &scale.DataplaneStats{CompletedJobs: 5}}
		},
		"chaos": func() any {
			return &scale.Result{Chaos: &scale.ChaosStats{Partitions: 2, Heals: 2}}
		},
		"obs": func() any {
			return &scale.Result{Obs: &scale.ObsStats{SamplesTotal: 1, Queries: 1, Responses: 1,
				QueryResults: 1, FlapWindows: 2, LinkDropsObserved: 5, CheckpointSavingsX: 9}}
		},
		"smp": func() any {
			return &scale.SMPResult{ShardCounts: []int{1, 4},
				Core:         []scale.SMPCoreRun{{Shards: 1}, {Shards: 4}},
				Rounds:       []scale.Result{{}, {}},
				Churn:        []scale.Result{{}, {}},
				CoreParityOK: true, RoundsParityOK: true, ChurnParityOK: true}
		},
	}
	res := func(p any) *scale.Result { return p.(*scale.Result) }
	smp := func(p any) *scale.SMPResult { return p.(*scale.SMPResult) }
	cases := []struct {
		section, want string
		breakIt       func(any)
	}{
		{"optimized", "optimized: invariant violations", func(p any) { res(p).Invariants = []string{"x"} }},
		{"failover", "failover: invariant violations", func(p any) { res(p).Invariants = []string{"x"} }},
		{"failover", "failover: completed apps != apps", func(p any) { res(p).CompletedApps = 9 }},
		{"gateway", "gateway: invariant violations", func(p any) { res(p).Invariants = []string{"x"} }},
		{"gateway", "gateway: truncated", func(p any) { res(p).Truncated = true }},
		{"gateway", "gateway: gateway stats missing", func(p any) { res(p).Gateway = nil }},
		{"gateway", "gateway: completed+shed != submitted", func(p any) { res(p).Gateway.Shed = 2 }},
		{"replay", "replay: invariant violations", func(p any) { res(p).Invariants = []string{"x"} }},
		{"replay", "replay: truncated", func(p any) { res(p).Truncated = true }},
		{"replay", "replay: gateway stats missing", func(p any) { res(p).Gateway = nil }},
		{"replay", "replay: replay stats missing", func(p any) { res(p).Replay = nil }},
		{"replay", "replay: completed+shed != submitted", func(p any) { res(p).Gateway.Completed = 6 }},
		{"replay", "replay: no submissions", func(p any) { res(p).Replay.Submissions = 0 }},
		{"replay", "replay: no storm injection landed", func(p any) { res(p).Replay.InjectionsSkipped = 4 }},
		{"dataplane", "dataplane: invariant violations", func(p any) { res(p).Invariants = []string{"x"} }},
		{"dataplane", "dataplane: truncated", func(p any) { res(p).Truncated = true }},
		{"dataplane", "dataplane: dataplane stats missing", func(p any) { res(p).Dataplane = nil }},
		{"dataplane", "dataplane: completed jobs != jobs", func(p any) { res(p).Dataplane.CompletedJobs = 4 }},
		{"dataplane", "dataplane: kernel verification failures", func(p any) { res(p).Dataplane.VerifyFailures = 1 }},
		{"dataplane", "dataplane: service op failures", func(p any) { res(p).Dataplane.ServiceOpFailures = 1 }},
		{"chaos", "chaos: invariant violations", func(p any) { res(p).Invariants = []string{"x"} }},
		{"chaos", "chaos: chaos stats missing", func(p any) { res(p).Chaos = nil }},
		{"chaos", "chaos: no partition storms", func(p any) { *res(p).Chaos = scale.ChaosStats{} }},
		{"chaos", "chaos: heals != partitions", func(p any) { res(p).Chaos.Heals = 1 }},
		{"chaos", "chaos: unconverged heal windows", func(p any) { res(p).Chaos.Unconverged = 1 }},
		{"chaos", "chaos: injections skipped", func(p any) { res(p).Chaos.InjectionsSkipped = 1 }},
		{"obs", "obs: invariant violations", func(p any) { res(p).Invariants = []string{"x"} }},
		{"obs", "obs: obs stats missing", func(p any) { res(p).Obs = nil }},
		{"obs", "obs: no samples recorded", func(p any) { res(p).Obs.SamplesTotal = 0 }},
		{"obs", "obs: no queries issued", func(p any) { res(p).Obs.Queries = 0 }},
		{"obs", "obs: no query responses", func(p any) { res(p).Obs.Responses = 0 }},
		{"obs", "obs: no query results", func(p any) { res(p).Obs.QueryResults = 0 }},
		{"obs", "obs: flap loss not attributed", func(p any) { res(p).Obs.LinkDropsObserved = 0 }},
		{"obs", "obs: checkpoint savings < 5x", func(p any) { res(p).Obs.CheckpointSavingsX = 4.9 }},
		{"smp", "smp: core decision streams diverged", func(p any) { smp(p).CoreParityOK = false }},
		{"smp", "smp: rounds decision streams diverged", func(p any) { smp(p).RoundsParityOK = false }},
		{"smp", "smp: churn decision streams diverged", func(p any) { smp(p).ChurnParityOK = false }},
		{"smp", "smp: core shards=4 invariant violations", func(p any) { smp(p).Core[1].Invariants = 2 }},
		{"smp", "smp: rounds shards=4 invariant violations", func(p any) { smp(p).Rounds[1].Invariants = []string{"x"} }},
		{"smp", "smp: churn shards=1 invariant violations", func(p any) { smp(p).Churn[0].Invariants = []string{"x"} }},
	}
	for section, mk := range good {
		if bad := contract(section, mk()); len(bad) != 0 {
			t.Errorf("passing %s result flagged: %v", section, bad)
		}
	}
	for _, c := range cases {
		p := good[c.section]()
		c.breakIt(p)
		bad := contract(c.section, p)
		if len(bad) != 1 || !strings.HasPrefix(bad[0], c.want) {
			t.Errorf("%s: got %q, want exactly one %q", c.want, bad, c.want)
		}
	}
}

// TestConflictingScenarioFlags: two mode flags are a usage error (exit 2)
// instead of resolving silently by switch order; the -compare add-ons stay
// legal.
func TestConflictingScenarioFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-chaos", "-churn"},
		{"-replay", "-gateway"},
		{"-gateway", "-master-failover"},
		{"-smp", "-obs"},
		{"-compare", "-tenx"},
	} {
		if got := run(append(args, "-smoke", "-out", "-")); got != 2 {
			t.Errorf("%v: exit %d, want 2", args, got)
		}
	}
	for _, ok := range []struct {
		set          []string
		compare, smp bool
	}{
		{nil, false, false},
		{[]string{"chaos"}, false, false},
		{nil, false, true},
		{[]string{"gateway", "master-failover"}, true, false},
	} {
		if err := exclusiveModes(ok.set, ok.compare, ok.smp); err != nil {
			t.Errorf("%v compare=%v smp=%v rejected: %v", ok.set, ok.compare, ok.smp, err)
		}
	}
}
