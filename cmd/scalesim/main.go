// Command scalesim runs the paper-scale scheduling stress harness
// (internal/scale) and writes BENCH_scale.json: scheduling-decision
// throughput, demand-to-grant latency percentiles in virtual time, and
// allocation pressure per decision for a 5,000-machine / 100k-schedule-unit
// churn. With -compare it replays the same workload against the
// pre-optimization scheduler (legacy linear-scan locality tree), the serial
// optimized scheduler, and the sharded parallel scheduler at each count in
// -shard-counts, reporting speedups and the common-completed-prefix latency
// so the wall-budget-truncated baseline stays comparable.
//
// Every other mode is one row of a scenario table and runs one
// configuration through the same path (build config, scale.Run, diff
// against -prev, print, gate, contract); its result is the BENCH_scale.json
// section of the same name (-merge folds it into an existing file without
// discarding the other sections):
//
//   - -churn: steady-state release/re-demand cycling, measured after warmup.
//   - -tenx: the churn workload at 10× footprint (50k machines, 1M units).
//   - -master-failover: the classic workload through mid-run master crashes
//     (hot-standby promotion) with the invariant checker attached.
//   - -gateway: an open-loop million-tenant load generator submits through
//     the multi-tenant submission gateway (internal/gateway) — admission
//     control, rate limiting, weighted-fair dequeue — through a master
//     failover, with admission conservation checked.
//   - -dataplane: GraySort map/sort/merge chains with Pangu chunk locality
//     and sampled kernel verification, Figure 6 DAG pipelines and
//     streamline service residents sharing the scheduled cluster; records
//     makespan, locality hit rate, shuffle volume and per-class SLOs.
//   - -replay: a diurnal nonhomogeneous-Poisson session process over the
//     million-tenant population with heavy-tailed job bursts, failure storms
//     (internal/faults campaigns) and a master failover; records per-class
//     admission and demand-to-grant SLO attainment, shed and preemption
//     rates and per-phase utilization.
//   - -chaos: churn under partition storms, link flaps, delay spikes and a
//     lock-service partition forcing a dueling-masters promotion; records
//     convergence-after-heal percentiles, lost/reissued grants and per-link
//     loss attribution.
//   - -obs: churn with the master's ring-buffered time-series plane, live
//     windowed queries over the simulated transport and the incremental
//     delta checkpoint log; records ring shape, query totals, link-loss
//     attribution and checkpoint byte accounting.
//
// With no mode flag it runs the classic workload once (the `optimized`
// section). -smp sweeps shard counts over the core kernel and the
// rounds/churn workloads, checking decision-stream parity, and writes
// BENCH_scale_smp.json. At most one of the mode flags may be given;
// -compare takes -master-failover and -gateway as add-on sections.
//
// Every run checks its scenario's contract: the invariant checker stays
// silent and the workload drains (every app completes, every submission
// settles, every storm lands and heals, ...). Each broken clause is printed
// by name and fails the run. With -check-budgets the run is also a
// regression gate against the `budgets` table of the -prev file: one row
// per gated metric, {"section", "metric", "min" or "max", "smoke"}, where
// metric is a dotted JSON path inside that section's result (for example
// "replay.service.admission_p99_ms"), rows naming `parallel` apply to each
// element, and smoke replaces the bound under -smoke. To change a bound,
// edit its row; to add a gate, add a row. Code never rewrites the table:
// -merge leaves it in place and -compare and -smp carry it over unchanged.
// A row whose metric does not resolve fails, and -check-budgets without a
// table is a usage error. -prev also tags the output with the sections the
// old baseline predates (a tagged skip, not an error).
//
// Exit status: 0 pass, 1 contract or budget failure, 2 usage error.
//
// Usage:
//
//	go run ./cmd/scalesim                     # full paper-scale run
//	go run ./cmd/scalesim -smoke              # CI-sized smoke run
//	go run ./cmd/scalesim -compare -prev BENCH_scale.json -out BENCH_scale.json
//	go run ./cmd/scalesim -smoke -check-budgets -prev BENCH_scale.json
//	go run ./cmd/scalesim -gateway -merge -out BENCH_scale.json
//	go run ./cmd/scalesim -obs -smoke -check-budgets -prev BENCH_scale.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/scale"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:])) }

// scenario is one single-run mode: the flag that selects it, the section
// its result is gated, diffed and merged under, its paper-scale and smoke
// configurations, and the scenario's own flag overrides (applied after the
// shared ones).
type scenario struct {
	flag, usage    string
	section, label string
	paper, smoke   func() scale.Config
	extra          func(*scale.Config)
	on             *bool
}

func run(args []string) int {
	fs := flag.NewFlagSet("scalesim", flag.ContinueOnError)
	var (
		smoke    = fs.Bool("smoke", false, "run the CI-sized smoke configuration (100 machines)")
		compare  = fs.Bool("compare", false, "also run the legacy-scheduler baseline and the parallel sections, reporting speedups")
		out      = fs.String("out", "BENCH_scale.json", "output JSON path (- for stdout only)")
		merge    = fs.Bool("merge", false, "merge this run's section into an existing -out file instead of overwriting it (single-run modes only)")
		prev     = fs.String("prev", "", "previous BENCH_scale.json: its budgets table drives -check-budgets, and sections it lacks are tagged as skipped, not errors")
		racks    = fs.Int("racks", 0, "override rack count")
		perRack  = fs.Int("machines-per-rack", 0, "override machines per rack")
		apps     = fs.Int("apps", 0, "override application count")
		units    = fs.Int("units-per-app", 0, "override schedule units per app")
		seed     = fs.Int64("seed", 1, "simulation seed")
		horizonS = fs.Int("horizon-sec", 0, "override simulation horizon (seconds)")
		budget   = fs.Duration("baseline-budget", 2*time.Minute,
			"wall-clock budget for the -compare baseline run (it is rate-measured, not run to completion)")
		legacy      = fs.Bool("legacy", false, "run only the legacy baseline scheduler")
		shards      = fs.Int("shards", 0, "scheduler shard count for single runs (0 = GOMAXPROCS; >1 enables batched rounds)")
		shardList   = fs.String("shard-counts", "1,4,8", "comma-separated shard counts for the -compare parallel sections")
		roundMS     = fs.Int("round-window-ms", 0, "scheduling-round width in virtual ms (0 = default when sharded, off otherwise)")
		mfCount     = fs.Int("master-failovers", 3, "number of mid-run master crashes in -master-failover mode")
		gwUsers     = fs.Int("users", 0, "override the gateway tenant population")
		gwSubs      = fs.Int("submissions", 0, "override the gateway submission count")
		gwFailovers = fs.Int("gateway-failovers", 1, "number of mid-run master crashes in -gateway mode (0 disables)")
		rpDays      = fs.Int("replay-days", 0, "override the number of simulated days in -replay mode")
		rpDaySec    = fs.Int("replay-day-sec", 0, "override the simulated day length (seconds) in -replay mode")
		rpRate      = fs.Float64("replay-sessions-per-sec", 0, "override the day-average session arrival rate in -replay mode")
		rpStorm     = fs.Float64("replay-storm-pct", 0, "override the storm victim percentage in -replay mode")
		czPct       = fs.Float64("chaos-partition-pct", 0, "override the partitioned machine percentage per storm in -chaos mode")
		obsRetain   = fs.Int("obs-retain", 0, "override the time-series ring capacity (rows) in -obs mode")
		smpMode     = fs.Bool("smp", false,
			"run the SMP bench lane (core-kernel + rounds + churn at each -smp-shard-counts entry, decision-stream parity, wall-clock speedups); writes BENCH_scale_smp.json unless -out is set")
		smpShards  = fs.String("smp-shard-counts", "1,2,4,8", "comma-separated shard counts for the -smp sweep (first entry is the speedup baseline)")
		gate       = fs.Bool("check-budgets", false, "exit non-zero when the run breaks a row of the -prev file's budgets table (CI regression gate)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof -sample_index=alloc_space for hot allocators)")
	)
	scenarios := []scenario{
		{section: "optimized", label: "run", paper: scale.DefaultConfig, smoke: scale.SmokeConfig},
		{flag: "churn", usage: "run the steady-state churn benchmark (long-horizon release/re-demand cycling, no failovers; measured after warmup)",
			section: "churn", label: "churn (steady state)", paper: scale.DefaultChurnConfig, smoke: scale.SmokeChurnConfig},
		{flag: "tenx", usage: "run the 10x footprint (50k machines, 1M schedule units) churn workload with the invariant checker attached and record the tenx section",
			section: "tenx", label: "tenx (10x footprint: 50k machines, 1M units)", paper: scale.TenXChurnConfig, smoke: scale.TenXChurnConfig},
		{flag: "obs", usage: "run the churn workload with the observability plane (ring-buffered master time-series, live queries over transport, incremental delta checkpoints) and record the obs section",
			section: "obs", label: "obs (observability plane)", paper: scale.DefaultObsConfig, smoke: scale.SmokeObsConfig,
			extra: func(c *scale.Config) {
				if *obsRetain > 0 {
					c.ObsRetain = *obsRetain
				}
			}},
		{flag: "chaos", usage: "run the churn workload under an adversarial network schedule (partition storms, link flaps, delay spikes, lock-service partition) with convergence-after-heal gates",
			section: "chaos", label: "chaos (adversarial network)", paper: scale.DefaultChaosConfig, smoke: scale.SmokeChaosConfig,
			extra: func(c *scale.Config) {
				if *czPct > 0 {
					c.ChaosPartitionPct = *czPct
				}
			}},
		{flag: "dataplane", usage: "run the data-plane scenario (GraySort chains, Figure 6 DAGs and streamline service residents on the scheduled cluster, with locality and kernel verification)",
			section: "dataplane", label: "dataplane", paper: scale.DefaultDataplaneConfig, smoke: scale.SmokeDataplaneConfig},
		{flag: "replay", usage: "run the trace-driven replay scenario (diurnal million-tenant workload with burst sessions, heavy-tailed job shapes, failure storms and per-class SLO gates)",
			section: "replay", label: "replay", paper: scale.DefaultReplayConfig, smoke: scale.SmokeReplayConfig,
			extra: func(c *scale.Config) {
				if *rpDays > 0 {
					c.ReplayDays = *rpDays
				}
				if *rpDaySec > 0 {
					c.ReplayDayLength = sim.Time(*rpDaySec) * sim.Second
				}
				if *rpRate > 0 {
					c.ReplaySessionsPerSec = *rpRate
				}
				if *rpStorm > 0 {
					c.ReplayStormPct = *rpStorm
				}
				if *gwUsers > 0 {
					c.GatewayUsers = *gwUsers
				}
			}},
		{flag: "gateway", usage: "run the multi-tenant submission-gateway scenario (1M-user load generator, admission control, master failover, admission-conservation checks)",
			section: "gateway", label: "gateway", paper: scale.DefaultGatewayConfig, smoke: scale.SmokeGatewayConfig,
			extra: func(c *scale.Config) {
				if *gwUsers > 0 {
					c.GatewayUsers = *gwUsers
				}
				if *gwSubs > 0 {
					c.GatewaySubmissions = *gwSubs
				}
				*c = c.WithMasterFailovers(*gwFailovers)
			}},
		{flag: "master-failover", usage: "crash the active FuxiMaster mid-run (hot-standby promotion) and attach the cluster-wide invariant checker",
			section: "failover", label: "master-failover", paper: scale.DefaultConfig, smoke: scale.SmokeConfig,
			extra: func(c *scale.Config) { *c = c.WithMasterFailovers(*mfCount) }},
	}
	for i := range scenarios {
		if s := &scenarios[i]; s.flag != "" {
			s.on = fs.Bool(s.flag, false, s.usage)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// overrides applies the shared flag overrides to a configuration.
	overrides := func(c *scale.Config) {
		if *racks > 0 {
			c.Racks = *racks
		}
		if *perRack > 0 {
			c.MachinesPerRack = *perRack
		}
		if *horizonS > 0 {
			c.Horizon = sim.Time(*horizonS) * sim.Second
		}
		c.Seed = *seed
		if *roundMS > 0 {
			c.RoundWindow = sim.Time(*roundMS) * sim.Millisecond
		}
		// Gateway-fed workloads (Apps == 0) size their jobs per submission.
		if c.Apps > 0 && *apps > 0 {
			c.Apps = *apps
		}
		if c.Apps > 0 && *units > 0 {
			c.UnitsPerApp = *units
		}
		if *legacy {
			c.LegacyScan = true
		}
		if *shards != 0 {
			c.Shards = *shards
			if c.Shards > 1 && c.RoundWindow == 0 {
				c.RoundWindow = scale.DefaultRoundWindow
			}
		}
	}
	// configure builds a scenario's configuration: its paper-scale or smoke
	// constructor, the shared overrides, then its own.
	configure := func(s *scenario) scale.Config {
		c := s.paper()
		if *smoke {
			c = s.smoke()
		}
		overrides(&c)
		if s.extra != nil {
			s.extra(&c)
		}
		return c
	}
	find := func(flag string) *scenario {
		for i := range scenarios {
			if scenarios[i].flag == flag {
				return &scenarios[i]
			}
		}
		panic("scalesim: no scenario " + flag)
	}

	sc := &scenarios[0]
	var set []string
	for i := range scenarios[1:] {
		if s := &scenarios[i+1]; *s.on {
			set = append(set, s.flag)
			if !*compare {
				sc = s
			}
		}
	}
	if err := exclusiveModes(set, *compare, *smpMode); err != nil {
		fmt.Fprintln(os.Stderr, "scalesim:", err)
		fs.Usage()
		return 2
	}

	shardCounts, err := parseShardCounts(*shardList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalesim:", err)
		return 2
	}
	smpCounts, err := parseShardCounts(*smpShards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalesim:", err)
		return 2
	}
	// Give the worker goroutines cores to run on when the host has them —
	// unless the operator pinned GOMAXPROCS explicitly (the CI matrix runs
	// the same commands at GOMAXPROCS=1 to exercise single-core
	// interleaving; silently raising it would defeat that leg).
	if os.Getenv("GOMAXPROCS") == "" {
		want := *shards
		for _, p := range shardCounts {
			if *compare && p > want {
				want = p
			}
		}
		for _, p := range smpCounts {
			if *smpMode && p > want {
				want = p
			}
		}
		if want > runtime.GOMAXPROCS(0) {
			runtime.GOMAXPROCS(want)
		}
	}

	prevSections := loadPrev(*prev)
	var rows []budgetRow
	if *gate {
		if rows, err = parseBudgets(prevSections["budgets"]); err != nil {
			fmt.Fprintf(os.Stderr, "scalesim: -check-budgets: %v\n", err)
			return 2
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scalesim: -cpuprofile:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "scalesim: -cpuprofile:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scalesim: -memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "scalesim: -memprofile:", err)
			}
			f.Close()
		}()
	}

	var (
		payload  any
		section  = sc.section
		produced = map[string]any{} // what the budget rows are evaluated on
		bad      []string           // contract and budget violations
	)
	// runOne runs one scenario section and applies its contract.
	runOne := func(s *scenario, c scale.Config) *scale.Result {
		res, err := scale.Run(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scalesim:", err)
			return nil
		}
		if s.section == "churn" {
			res.VsRoundsSpeedup = roundsSpeedup(res, prevSections)
		}
		if !*compare {
			res.Prev = diffPrev(*prev, prevSections, []string{s.section})
		}
		printResult(s.label, res)
		if res.VsRoundsSpeedup > 0 {
			fmt.Printf("speedup: %.2fx steady-state decisions/s vs the recorded rounds path\n", res.VsRoundsSpeedup)
		}
		produced[s.section] = res
		bad = append(bad, contract(s.section, res)...)
		return res
	}
	switch {
	case *smpMode:
		// The SMP lane defaults to its own artifact: CI gates it with its
		// own -prev baseline, independent of BENCH_scale.json.
		if *out == "BENCH_scale.json" {
			*out = "BENCH_scale_smp.json"
		}
		opts := scale.DefaultSMPOptions()
		if *smoke {
			opts = scale.SmokeSMPOptions()
		}
		overrides(&opts.Rounds)
		overrides(&opts.Churn)
		opts.ShardCounts = smpCounts
		res, err := scale.RunSMP(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scalesim:", err)
			return 1
		}
		res.Budgets = prevSections["budgets"]
		payload, section = res, "smp"
		printSMP(res)
		bad = append(bad, contract("smp", res)...)
		// The speedup gate only applies on hosts that can exhibit one.
		switch {
		case !*gate:
		case !res.MultiCore:
			fmt.Printf("smp: speedup gate SKIPPED: %s\n", res.Note)
		case res.CoreSpeedupP4 == 0:
			fmt.Println("smp: speedup gate SKIPPED: shards=4 not in the sweep")
		default:
			produced["smp"] = res
		}
	case *compare:
		cfg := configure(&scenarios[0])
		cmp, err := scale.RunCompare(cfg, *budget, shardCounts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scalesim:", err)
			return 1
		}
		cmp.Budgets = prevSections["budgets"]
		printResult("baseline (legacy scan)", &cmp.Baseline)
		printResult("optimized (serial)", &cmp.Optimized)
		for i := range cmp.Parallel {
			p := &cmp.Parallel[i]
			printResult(fmt.Sprintf("parallel (shards=%d, rounds)", p.Config.Shards), p)
			bad = append(bad, contract(fmt.Sprintf("parallel-%d", p.Config.Shards), p)...)
		}
		fmt.Printf("speedup: %.2fx scheduling-decision throughput (serial optimized vs legacy)\n", cmp.Speedup)
		if cmp.SpeedupParallel > 0 {
			fmt.Printf("speedup: %.2fx parallel sections vs serial optimized (best shard count)\n", cmp.SpeedupParallel)
		}
		if pl := cmp.CommonPrefixLatency; pl != nil {
			fmt.Printf("common-prefix latency over %d apps completed by every section:\n", pl.Apps)
			batched := false
			for _, name := range sortedKeys(pl.MeanMS) {
				note := ""
				if w := pl.RoundWindowMS[name]; w > 0 {
					note = fmt.Sprintf("  [+%.0fms round window]", w)
					batched = true
				}
				fmt.Printf("  %-12s mean %.2fms max %.2fms%s\n", name, pl.MeanMS[name], pl.MaxMS[name], note)
			}
			if batched {
				fmt.Println("  note: sections tagged with a round window buffer demand/returns into" +
					" scheduling rounds of that width; their latency includes the configured" +
					" batching delay (a throughput/latency trade), not a scheduling regression.")
			}
		}
		produced["baseline"], produced["optimized"], produced["parallel"] = &cmp.Baseline, &cmp.Optimized, cmp.Parallel
		bad = append(bad, contract("baseline", &cmp.Baseline)...)
		bad = append(bad, contract("optimized", &cmp.Optimized)...)
		sections := []string{"baseline", "optimized", "parallel"}
		if s := find("master-failover"); *s.on {
			fcfg := configure(s)
			// The failover section exercises sharded rounds on top of
			// hot-standby promotion.
			fcfg.Shards = shardCounts[len(shardCounts)-1]
			if fcfg.RoundWindow == 0 {
				fcfg.RoundWindow = scale.DefaultRoundWindow
			}
			if cmp.Failover = runOne(s, fcfg); cmp.Failover == nil {
				return 1
			}
			sections = append(sections, s.section)
		}
		if s := find("gateway"); *s.on {
			if cmp.GatewayRun = runOne(s, configure(s)); cmp.GatewayRun == nil {
				return 1
			}
			sections = append(sections, s.section)
		}
		cmp.Prev = diffPrev(*prev, prevSections, sections)
		payload = cmp
	default:
		res := runOne(sc, configure(sc))
		if res == nil {
			return 1
		}
		payload = res
	}

	if *gate {
		bad = append(bad, checkBudgets(rows, produced, *smoke)...)
	}
	for _, v := range bad {
		fmt.Fprintln(os.Stderr, "scalesim: FAILED:", v)
	}
	if *out != "-" {
		if err := writeOut(*out, payload, section, *merge, *compare); err != nil {
			fmt.Fprintln(os.Stderr, "scalesim:", err)
			return 1
		}
		fmt.Println("wrote", *out)
	}
	if len(bad) > 0 {
		// Contract and budget failures are correctness/perf failures, not
		// measurements: make CI smoke runs fail loudly.
		return 1
	}
	return 0
}

// exclusiveModes rejects more than one mode flag among the set scenario
// flags, -compare and -smp (they used to resolve silently by switch order:
// -chaos -churn ran chaos only). -compare takes -gateway and
// -master-failover as add-on sections.
func exclusiveModes(set []string, compare, smp bool) error {
	var modes []string
	for _, f := range set {
		if !compare || (f != "gateway" && f != "master-failover") {
			modes = append(modes, "-"+f)
		}
	}
	if compare {
		modes = append(modes, "-compare")
	}
	if smp {
		modes = append(modes, "-smp")
	}
	if len(modes) > 1 {
		return fmt.Errorf("%s are exclusive: give one mode (-compare takes -gateway and -master-failover as add-ons)",
			strings.Join(modes, ", "))
	}
	return nil
}

// budgetRow is one row of the `budgets` table: a bound on one metric of one
// section's result. Metric is a dotted JSON path inside the section;
// exactly one of Min and Max is set, and Smoke, when set, replaces it under
// -smoke.
type budgetRow struct {
	Section string   `json:"section"`
	Metric  string   `json:"metric"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	Smoke   *float64 `json:"smoke,omitempty"`
}

// parseBudgets decodes the -prev file's budgets table. A missing table or
// the old one-field-per-budget object is an error: gating on an empty
// table would pass everything.
func parseBudgets(raw json.RawMessage) ([]budgetRow, error) {
	if raw == nil {
		return nil, errors.New("no budgets table (pass -prev BENCH_scale.json)")
	}
	var rows []budgetRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("budgets is not a table of {section, metric, min|max, smoke} rows: %w", err)
	}
	for _, b := range rows {
		if b.Section == "" || b.Metric == "" || (b.Min == nil) == (b.Max == nil) {
			return nil, fmt.Errorf("budget row %+v: need section, metric and exactly one of min and max", b)
		}
	}
	return rows, nil
}

// checkBudgets evaluates every row whose section this run produced against
// that section's result JSON (each element, when it is an array) and
// returns one message per failure. A metric that does not resolve to a
// number fails, so a misspelled row cannot switch its gate off.
func checkBudgets(rows []budgetRow, produced map[string]any, smoke bool) []string {
	data, err := json.Marshal(produced)
	if err != nil {
		return []string{"budgets: " + err.Error()}
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return []string{"budgets: " + err.Error()}
	}
	var bad []string
	for _, b := range rows {
		sec, ok := doc[b.Section]
		if !ok {
			continue
		}
		elems, names := []any{sec}, []string{b.Section}
		if arr, ok := sec.([]any); ok {
			elems, names = arr, nil
			for i := range arr {
				names = append(names, fmt.Sprintf("%s[%d]", b.Section, i))
			}
		}
		kind, bound := "max", b.Max
		if b.Min != nil {
			kind, bound = "min", b.Min
		}
		if smoke && b.Smoke != nil {
			kind, bound = "smoke "+kind, b.Smoke
		}
		for i, e := range elems {
			v, ok := lookup(e, b.Metric)
			switch {
			case !ok:
				bad = append(bad, fmt.Sprintf("budget row {%s %s}: metric does not resolve to a number in the result", b.Section, b.Metric))
			case b.Max != nil && v > *bound:
				bad = append(bad, fmt.Sprintf("budget %s %s = %g exceeds %s %g", names[i], b.Metric, v, kind, *bound))
			case b.Min != nil && v < *bound:
				bad = append(bad, fmt.Sprintf("budget %s %s = %g below %s %g", names[i], b.Metric, v, kind, *bound))
			}
		}
	}
	return bad
}

// lookup resolves a dotted path inside decoded JSON to a number.
func lookup(doc any, path string) (float64, bool) {
	for _, key := range strings.Split(path, ".") {
		m, ok := doc.(map[string]any)
		if !ok {
			return 0, false
		}
		doc = m[key]
	}
	v, ok := doc.(float64)
	return v, ok
}

// contract returns the named correctness violations of one produced
// section: invariant-checker findings everywhere, plus each scenario's
// completion and accounting clauses. Unlike budgets these are not
// calibrated; they hold at every scale.
func contract(section string, payload any) []string {
	var bad []string
	fail := func(broken bool, check string, args ...any) {
		if broken {
			bad = append(bad, section+": "+fmt.Sprintf(check, args...))
		}
	}
	if r, ok := payload.(*scale.SMPResult); ok {
		fail(!r.CoreParityOK, "core decision streams diverged across shard counts")
		fail(!r.RoundsParityOK, "rounds decision streams diverged across shard counts")
		fail(!r.ChurnParityOK, "churn decision streams diverged across shard counts")
		for i := range r.Core {
			fail(r.Core[i].Invariants > 0, "core shards=%d invariant violations (%d)", r.Core[i].Shards, r.Core[i].Invariants)
		}
		for i := range r.Rounds {
			fail(len(r.Rounds[i].Invariants) > 0, "rounds shards=%d invariant violations %v", r.ShardCounts[i], r.Rounds[i].Invariants)
			fail(len(r.Churn[i].Invariants) > 0, "churn shards=%d invariant violations %v", r.ShardCounts[i], r.Churn[i].Invariants)
		}
		return bad
	}
	r := payload.(*scale.Result)
	fail(len(r.Invariants) > 0, "invariant violations %v", r.Invariants)
	switch section {
	case "failover":
		fail(r.CompletedApps != r.Config.Apps, "completed apps != apps (%d != %d)", r.CompletedApps, r.Config.Apps)
	case "gateway", "replay":
		fail(r.Truncated, "truncated before the workload drained")
		g := r.Gateway
		if g == nil {
			return append(bad, section+": gateway stats missing")
		}
		fail(g.Completed+g.Shed != g.Submitted, "completed+shed != submitted (%d+%d != %d)", g.Completed, g.Shed, g.Submitted)
		if section == "gateway" {
			break
		}
		rp := r.Replay
		if rp == nil {
			return append(bad, section+": replay stats missing")
		}
		fail(rp.Submissions == 0, "no submissions")
		fail(rp.Injections == rp.InjectionsSkipped, "no storm injection landed (%d of %d skipped)", rp.InjectionsSkipped, rp.Injections)
	case "dataplane":
		fail(r.Truncated, "truncated before the workload drained")
		d := r.Dataplane
		if d == nil {
			return append(bad, section+": dataplane stats missing")
		}
		total := r.Config.GraySortJobs + r.Config.DAGJobs + r.Config.ServiceJobs
		fail(d.CompletedJobs != total, "completed jobs != jobs (%d != %d)", d.CompletedJobs, total)
		fail(d.VerifyFailures > 0, "kernel verification failures (%d)", d.VerifyFailures)
		fail(d.ServiceOpFailures > 0, "service op failures (%d)", d.ServiceOpFailures)
	case "chaos":
		cz := r.Chaos
		if cz == nil {
			return append(bad, section+": chaos stats missing")
		}
		fail(cz.Partitions == 0, "no partition storms")
		fail(cz.Heals != cz.Partitions, "heals != partitions (%d != %d)", cz.Heals, cz.Partitions)
		fail(cz.Unconverged > 0, "unconverged heal windows (%d)", cz.Unconverged)
		fail(cz.InjectionsSkipped > 0, "injections skipped (%d)", cz.InjectionsSkipped)
	case "obs":
		o := r.Obs
		if o == nil {
			return append(bad, section+": obs stats missing")
		}
		fail(o.SamplesTotal == 0, "no samples recorded")
		fail(o.Queries == 0, "no queries issued")
		fail(o.Responses == 0, "no query responses")
		fail(o.QueryResults == 0, "no query results")
		fail(o.FlapWindows > 0 && o.LinkDropsObserved == 0, "flap loss not attributed (%d flap windows, 0 drops observed)", o.FlapWindows)
		fail(o.CheckpointSavingsX < 5, "checkpoint savings < 5x (%.1fx)", o.CheckpointSavingsX)
	}
	return bad
}

// writeOut writes the payload, either overwriting the file or — with
// doMerge — folding the run's section into an existing JSON document under
// section so e.g. a -gateway run extends BENCH_scale.json without
// discarding the compare sections. Every other section, the budgets table
// included, is written back unchanged.
func writeOut(path string, payload any, section string, doMerge, isCompare bool) error {
	var doc any = payload
	if doMerge {
		if isCompare {
			return fmt.Errorf("-merge applies to single-run modes; -compare already writes all sections")
		}
		sections := map[string]json.RawMessage{}
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &sections); err != nil {
				return fmt.Errorf("-merge: %s is not a JSON object: %w", path, err)
			}
		}
		raw, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		sections[section] = raw
		doc = sections
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadPrev reads the -prev file's sections; nil when -prev is unset or
// unreadable (a run without a baseline, which -check-budgets rejects).
func loadPrev(path string) map[string]json.RawMessage {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scalesim: -prev: %v (continuing without a baseline)\n", err)
		return nil
	}
	sections := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &sections); err != nil {
		fmt.Fprintf(os.Stderr, "scalesim: -prev: %s is not a JSON object: %v (continuing)\n", path, err)
		return nil
	}
	return sections
}

// diffPrev fills the prev-diff tag: sections this invocation produced that
// the old baseline also has are compared (throughput summary to stdout);
// sections the baseline predates are tagged skipped. Nil without a
// baseline.
func diffPrev(path string, sections map[string]json.RawMessage, produced []string) *scale.PrevDiff {
	if sections == nil {
		return nil
	}
	d := scale.PrevDiff{Path: path}
	for _, name := range produced {
		raw, ok := sections[name]
		if !ok {
			d.SkippedSections = append(d.SkippedSections, name)
			continue
		}
		d.Compared = append(d.Compared, name)
		var old scale.Result
		if err := json.Unmarshal(raw, &old); err == nil && old.DecisionsPerSec > 0 {
			fmt.Printf("vs %s [%s]: %.0f decisions/s then\n", d.Path, name, old.DecisionsPerSec)
		}
	}
	if len(d.SkippedSections) > 0 {
		fmt.Printf("baseline %s predates sections %v: skipped, not compared\n",
			d.Path, d.SkippedSections)
	}
	sort.Strings(d.Compared)
	sort.Strings(d.SkippedSections)
	return &d
}

// roundsSpeedup computes the churn section's decisions/s over the best
// rounds-path section recorded in the -prev baseline: the parallel sections
// (batched rounds) when present, else the serial optimized section. Zero
// when no baseline is comparable.
func roundsSpeedup(churn *scale.Result, sections map[string]json.RawMessage) float64 {
	if churn.DecisionsPerSec == 0 || sections == nil {
		return 0
	}
	best := 0.0
	if raw, ok := sections["parallel"]; ok {
		var par []scale.Result
		if err := json.Unmarshal(raw, &par); err == nil {
			for _, p := range par {
				if p.DecisionsPerSec > best {
					best = p.DecisionsPerSec
				}
			}
		}
	}
	if best == 0 {
		if raw, ok := sections["optimized"]; ok {
			var opt scale.Result
			if err := json.Unmarshal(raw, &opt); err == nil {
				best = opt.DecisionsPerSec
			}
		}
	}
	if best == 0 {
		return 0
	}
	return churn.DecisionsPerSec / best
}

func parseShardCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -shard-counts entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		out = []int{runtime.GOMAXPROCS(0)}
	}
	return out, nil
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func printResult(label string, r *scale.Result) {
	trunc := ""
	if r.Truncated {
		trunc = " [TRUNCATED by wall budget/horizon: latency covers the completed prefix only]"
	}
	fmt.Printf("%s: %d machines, %d units, %d decisions in %.2fs wall (sim %.1fs)%s\n",
		label, r.Machines, r.Units, r.Decisions, r.WallSeconds, r.SimSeconds, trunc)
	fmt.Printf("  throughput %.0f decisions/s, latency p50 %.2fms p99 %.2fms max %.2fms (sim-time)\n",
		r.DecisionsPerSec, r.LatencyP50MS, r.LatencyP99MS, r.LatencyMaxMS)
	wantApps := r.Config.Apps
	if g := r.Gateway; g != nil {
		wantApps = int(g.Registered)
	}
	fmt.Printf("  %.1f allocs/decision, %d events, %d msgs (%d batches), %d/%d apps completed\n",
		r.AllocsPerDecision, r.EventsFired, r.MessagesSent, r.MessageBatches,
		r.CompletedApps, wantApps)
	if r.ParallelSweeps > 0 {
		fmt.Printf("  %d sharded sweeps, %.0f%% of machines committed from speculative proposals\n",
			r.ParallelSweeps, 100*r.ParallelCommitRatio)
		fmt.Printf("  %d blocks, %d stolen (%.1f%%), score imbalance %.2f, %d shard rebalances\n",
			r.ParallelBlocks, r.ParallelSteals, 100*r.ParallelStealRate,
			r.ParallelImbalance, r.ParallelRebalances)
	}
	if r.DecisionStreamHash != "" {
		fmt.Printf("  decision stream hash %s\n", r.DecisionStreamHash)
	}
	if r.MasterFailovers > 0 {
		fmt.Printf("  %d master failovers: recovery p50 %.0fms p99 %.0fms max %.0fms (sim-time)\n",
			r.MasterFailovers, r.RecoveryP50MS, r.RecoveryP99MS, r.RecoveryMaxMS)
		fmt.Printf("  scheduling pause p50 %.0fms p99 %.0fms max %.0fms; %d grants lost, %d reissued, %d invariant checks\n",
			r.SchedPauseP50MS, r.SchedPauseP99MS, r.SchedPauseMaxMS,
			r.GrantsLost, r.GrantsReissued, r.InvariantChecks)
	}
	if g := r.Gateway; g != nil {
		fmt.Printf("  gateway: %d submissions from %d tenants (population %d), %d admitted, %d registered, %d completed\n",
			g.Submitted, g.DistinctTenants, r.Config.GatewayUsers, g.Admitted, g.Registered, g.Completed)
		fmt.Printf("  shed %.1f%% (%d rate-limit, %d tenant-queue, %d backlog); admission p50 %.1fms p99 %.1fms max %.0fms (sim-time)\n",
			100*g.ShedRate, g.ShedRateLimit, g.ShedTenantQueue, g.ShedBacklog,
			g.AdmissionP50MS, g.AdmissionP99MS, g.AdmissionMaxMS)
		fmt.Printf("  fairness (Jain): service %.3f over %d tenants, batch %.3f over %d tenants\n",
			g.Service.JainFairness, g.Service.Tenants, g.Batch.JainFairness, g.Batch.Tenants)
		fmt.Printf("  %.0f allocs/admission, %.1f msgs/admission, %d admit retries, %d failover replays, decision hash %s\n",
			r.AllocsPerAdmission, r.MessagesPerAdmission, g.AdmitRetries, g.FailoverReplays, g.DecisionHash)
	}
	if d := r.Dataplane; d != nil {
		fmt.Printf("  dataplane: %d/%d jobs completed (%d graysort, %d dag, %d service); makespan p50 %.0fms p99 %.0fms max %.0fms (sim-time)\n",
			d.CompletedJobs, d.GraySortJobs+d.DAGJobs+d.ServiceJobs,
			d.GraySortJobs, d.DAGJobs, d.ServiceJobs,
			d.MakespanP50MS, d.MakespanP99MS, d.MakespanMaxMS)
		fmt.Printf("  locality: %.1f%% hit (%d machine, %d rack, %d remote); %.0f MB shuffled, %.0f MB read locally\n",
			d.LocalityHitRatePct, d.LocalityMachineGrants, d.LocalityRackGrants, d.LocalityRemoteGrants,
			d.ShuffledMB, d.LocalMB)
		fmt.Printf("  verification: %d graysort partitions checked (%d failures), %d service ops (%d failures)\n",
			d.VerifiedPartitions, d.VerifyFailures, d.ServiceOpsRun, d.ServiceOpFailures)
		fmt.Printf("  service class: d2g p50 %.2fms p99 %.2fms, %.1f%% within %.0fms SLO; batch: d2g p99 %.2fms, %.1f%% within %.0fms\n",
			d.Service.DemandToGrantP50MS, d.Service.DemandToGrantP99MS, d.Service.SLOAttainedPct, d.Service.SLOMS,
			d.Batch.DemandToGrantP99MS, d.Batch.SLOAttainedPct, d.Batch.SLOMS)
	}
	if rp := r.Replay; rp != nil {
		fmt.Printf("  replay: %d sessions, %d submissions over %d×%.0fs days (peak %d / trough %d), mean burst %.2f\n",
			rp.Sessions, rp.Submissions, rp.Days, rp.DayLengthSec,
			rp.SubmissionsPeak, rp.SubmissionsTrough, rp.MeanBurstLen)
		fmt.Printf("  storms: %d (%d injections, %d skipped): %d killed, %d broken, %d slowed; %d launch failures, %d stretched holds\n",
			rp.Storms, rp.Injections, rp.InjectionsSkipped,
			rp.MachinesKilled, rp.MachinesBroken, rp.MachinesSlowed,
			rp.LaunchFailures, rp.SlowHolds)
		fmt.Printf("  service: admission p99 %.1fms, d2g p99 %.2fms, %.1f%% within %.0fms SLO, preemption %.2f%%, shed %.2f%%\n",
			rp.Service.AdmissionP99MS, rp.Service.DemandToGrantP99MS,
			rp.Service.SLOAttainedPct, rp.Service.SLOMS, rp.Service.PreemptionPct, rp.Service.ShedPct)
		fmt.Printf("  batch:   admission p99 %.1fms, d2g p99 %.2fms, %.1f%% within %.0fms SLO, preemption %.2f%%, shed %.2f%%\n",
			rp.Batch.AdmissionP99MS, rp.Batch.DemandToGrantP99MS,
			rp.Batch.SLOAttainedPct, rp.Batch.SLOMS, rp.Batch.PreemptionPct, rp.Batch.ShedPct)
		fmt.Printf("  utilization (cpu): peak %.1f%%, trough %.1f%%, storm %.1f%%; overall shed %.2f%%, decision hash %s\n",
			rp.Peak.CPUUtilPct, rp.Trough.CPUUtilPct, rp.Storm.CPUUtilPct,
			rp.ShedPct, rp.DecisionHash)
	}
	if cz := r.Chaos; cz != nil {
		fmt.Printf("  chaos: %d partition storms (%d machines), %d heals, %d flap windows, %d delay spikes, %d lock partitions (epoch %d)\n",
			cz.Partitions, cz.MachinesPartitioned, cz.Heals, cz.LinkFlaps, cz.DelaySpikes,
			cz.LockPartitions, cz.MasterEpoch)
		fmt.Printf("  convergence after heal: p50 %.0fms p99 %.0fms max %.0fms (sim-time), %d unconverged\n",
			cz.ConvergenceP50MS, cz.ConvergenceP99MS, cz.ConvergenceMaxMS, cz.Unconverged)
		fmt.Printf("  %d grants lost in storms, %d reissued on heal; link loss: %d links dropped %d msgs (worst %s: %d)\n",
			cz.LostGrants, cz.ReissuedGrants, cz.LinksWithLoss, cz.LinkMsgsDropped,
			cz.WorstLink, cz.WorstLinkDropped)
	}
	if o := r.Obs; o != nil {
		fmt.Printf("  obs: %d series × %d-row ring (%d B/row), %d samples recorded (%d retained), %.3f allocs/sample\n",
			o.Series, o.RingCapacity, o.BytesPerSample, o.SamplesTotal, o.SamplesRetained, o.AllocsPerSample)
		fmt.Printf("  queries: %d issued, %d answered, %d group-by rows, checksum %016x; server p50 %.0fµs p99 %.0fµs (wall)\n",
			o.Queries, o.Responses, o.QueryResults, o.QueryChecksum, o.QueryP50US, o.QueryP99US)
		fmt.Printf("  links: %d watched, %d flap windows, %d msgs dropped and attributed\n",
			o.WatchedLinks, o.FlapWindows, o.LinkDropsObserved)
		fmt.Printf("  checkpoint: %d writes, %d delta B + %d anchor B (%d compactions), %.0f B/job vs %.0f full-snapshot — %.1fx saving\n",
			o.CheckpointWrites, o.CheckpointDeltaBytes, o.CheckpointAnchorBytes,
			o.CheckpointCompactions, o.CheckpointBytesPerJob, o.FullSnapshotBytesPerJob, o.CheckpointSavingsX)
	}
	if len(r.Invariants) > 0 {
		fmt.Printf("  INVARIANT VIOLATIONS: %v\n", r.Invariants)
	}
}

// printSMP summarizes the three-lane shard-count sweep: one line per lane
// per shard count, then the parity verdict.
func printSMP(r *scale.SMPResult) {
	fmt.Printf("smp: %d cores, GOMAXPROCS %d\n", r.Cores, r.GOMAXPROCS)
	if r.Note != "" {
		fmt.Printf("  note: %s\n", r.Note)
	}
	for i, p := range r.ShardCounts {
		c := &r.Core[i]
		fmt.Printf("  core   shards=%d: %d decisions over %d rounds in %.2fs wall (%.0f/s, %.2fx), commit %.0f%%, steal %.1f%%, imbalance %.2f\n",
			p, c.Decisions, c.Rounds, c.WallSeconds, c.DecisionsPerSec, c.SpeedupVsP1,
			100*c.CommitRatio, 100*c.StealRate, c.Imbalance)
	}
	for i, p := range r.ShardCounts {
		h := &r.Rounds[i]
		fmt.Printf("  rounds shards=%d: %d decisions in %.2fs wall (%.2fx), commit %.0f%%\n",
			p, h.Decisions, h.WallSeconds, r.RoundsSpeedup[i], 100*h.ParallelCommitRatio)
	}
	for i, p := range r.ShardCounts {
		h := &r.Churn[i]
		fmt.Printf("  churn  shards=%d: %d decisions in %.2fs wall (%.2fx), commit %.0f%%\n",
			p, h.Decisions, h.WallSeconds, r.ChurnSpeedup[i], 100*h.ParallelCommitRatio)
	}
	if r.ParityOK() {
		fmt.Printf("  parity: decision streams byte-identical across all shard counts (core %s)\n",
			r.Core[0].DecisionHash)
	} else {
		fmt.Printf("  parity: DIVERGED (core %v, rounds %v, churn %v)\n",
			r.CoreParityOK, r.RoundsParityOK, r.ChurnParityOK)
	}
}
