package main

import (
	"sort"
	"time"

	"repro/internal/master"
	"repro/internal/scale"
)

// Clock tells what a metric is measured in: host wall time or resources,
// virtual (simulated) time, which repeats exactly for a seed, or a count.
const (
	clockHost    = "host"
	clockVirtual = "virtual"
	clockCount   = "count"
)

// metric is one named measurement. N is the number of samples behind the
// value (0 when the source reports none); NA marks a value the workload's
// Result does not report, printed as 0.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Clock string
	NA    bool
}

// rep is one scale.Run call: its Result, the host time the call took, and
// the process CPU it used per runtime/metrics.
type rep struct {
	cfg  scale.Config
	res  *scale.Result
	wall time.Duration
	cpu  cpuDelta
}

// setupSeconds is the host time a scale.Run call spent outside its
// measured window: boot, election, warmup and the settled end-of-run
// checks.
func setupSeconds(wall time.Duration, res *scale.Result) float64 {
	s := wall.Seconds() - res.WallSeconds
	if s < 0 {
		return 0
	}
	return s
}

// failedPct is the share of work the system did not deliver. For a replay
// run it is (shed + admitted-but-not-completed) / submitted; for the other
// workloads it is revoked / granted containers.
func failedPct(res *scale.Result) float64 {
	if gw := res.Gateway; res.Replay != nil && gw != nil {
		if gw.Submitted == 0 {
			return 0
		}
		unfinished := float64(gw.Admitted) - float64(gw.Completed)
		if unfinished < 0 {
			unfinished = 0
		}
		return 100 * (float64(gw.Shed) + unfinished) / float64(gw.Submitted)
	}
	if res.Grants == 0 {
		return 0
	}
	return 100 * float64(res.Revokes) / float64(res.Grants)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf applies f to every rep and returns the median.
func medianOf(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd derives the user-facing metrics from the untraced reps. Host
// metrics are medians over all reps. Virtual-time metrics are medians over
// the first nVirtual reps, whose sub-seeds a seed fixes, so they repeat
// exactly for a seed. A sample count n is the first rep's, where its
// Result reports one.
func endToEnd(reps []rep, nVirtual int, peakRSSMB float64) []metric {
	r0 := reps[0].res
	n := len(reps)
	virt := reps[:min(nVirtual, n)]
	vmed := func(f func(*scale.Result) float64) float64 {
		return medianOf(virt, func(r rep) float64 { return f(r.res) })
	}
	ms := []metric{
		{Name: "decisions_per_s", Unit: "1/s", Clock: clockHost, N: n,
			Value: medianOf(reps, func(r rep) float64 { return r.res.DecisionsPerSec })},
		{Name: "setup_s", Unit: "s", Clock: clockHost, N: n,
			Value: medianOf(reps, func(r rep) float64 { return setupSeconds(r.wall, r.res) })},
		{Name: "peak_rss_mb", Unit: "MiB", Clock: clockHost, Value: peakRSSMB},
		{Name: "allocs_per_decision", Unit: "count", Clock: clockHost, N: n,
			Value: medianOf(reps, func(r rep) float64 { return r.res.AllocsPerDecision })},
		{Name: "d2g_mean_ms", Unit: "ms", Clock: clockVirtual,
			Value: vmed(func(r *scale.Result) float64 { return r.LatencyMeanMS })},
		{Name: "d2g_p50_ms", Unit: "ms", Clock: clockVirtual,
			Value: vmed(func(r *scale.Result) float64 { return r.LatencyP50MS })},
		{Name: "d2g_p99_ms", Unit: "ms", Clock: clockVirtual,
			Value: vmed(func(r *scale.Result) float64 { return r.LatencyP99MS })},
		{Name: "failed_pct", Unit: "%", Clock: clockVirtual, Value: vmed(failedPct)},
	}
	if rp := r0.Replay; rp != nil {
		ms = append(ms,
			metric{Name: "admission_p99_ms", Unit: "ms", Clock: clockVirtual, N: rp.Service.Jobs,
				Value: vmed(func(r *scale.Result) float64 { return r.Replay.Service.AdmissionP99MS })},
			metric{Name: "service_slo_pct", Unit: "%", Clock: clockVirtual,
				Value: vmed(func(r *scale.Result) float64 { return r.Replay.Service.SLOAttainedPct })},
			metric{Name: "sched_pause_max_ms", Unit: "ms", Clock: clockVirtual, N: r0.MasterFailovers,
				Value: vmed(func(r *scale.Result) float64 { return r.SchedPauseMaxMS })})
	}
	if cz := r0.Chaos; cz != nil {
		ms = append(ms, metric{Name: "heal_converge_max_ms", Unit: "ms", Clock: clockVirtual, N: cz.Heals,
			Value: vmed(func(r *scale.Result) float64 { return r.Chaos.ConvergenceMaxMS })})
	}
	return ms
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters reads the per-layer counters one run's Result and
// runtime/metrics report. Counters a workload's Result does not carry are
// marked NA.
func layerCounters(r rep) []metric {
	res := r.res
	count := func(name string, v float64, na bool) metric {
		return metric{Name: name, Unit: "count", Clock: clockCount, Value: v, NA: na}
	}
	host := func(name, unit string, v float64, na bool) metric {
		return metric{Name: name, Unit: unit, Clock: clockHost, Value: v, NA: na}
	}
	virt := func(name, unit string, v float64, na bool) metric {
		return metric{Name: name, Unit: unit, Clock: clockVirtual, Value: v, NA: na}
	}
	par := res.ParallelSweeps == 0
	cz, gw, ob := res.Chaos, res.Gateway, res.Obs
	var linkDrops, lost, reissued float64
	if cz != nil {
		linkDrops, lost, reissued = float64(cz.LinkMsgsDropped), float64(cz.LostGrants), float64(cz.ReissuedGrants)
	}
	var gwAdmP50, gwShed, gwRetries, gwReplays float64
	if gw != nil {
		gwAdmP50, gwShed = gw.AdmissionP50MS, 100*gw.ShedRate
		gwRetries, gwReplays = float64(gw.AdmitRetries), float64(gw.FailoverReplays)
	}
	var obsSamples, obsAllocs, obsQuery float64
	if ob != nil {
		obsSamples, obsAllocs, obsQuery = float64(ob.SamplesTotal), ob.AllocsPerSample, ob.QueryP99US
	}
	ckWrites, ckBPJ, ckCompactions, ckNA := checkpointCounters(res)
	failover := len(res.Config.MasterFailoverAt) == 0
	return []metric{
		host("gc.cpu_pct", "%", r.cpu.gcPct(), false),
		count("sim.events_per_decision", ratio(float64(res.EventsFired), float64(res.Decisions)), false),
		count("transport.msgs_per_grant", ratio(float64(res.MessagesSent), float64(res.Grants)), false),
		count("transport.link_drops", linkDrops, cz == nil),
		host("master.par.commit_ratio", "ratio", res.ParallelCommitRatio, par),
		host("master.par.steal_rate", "ratio", res.ParallelStealRate, par),
		host("master.par.imbalance", "ratio", res.ParallelImbalance, par),
		count("master.ctl.grants_reissued", float64(res.GrantsReissued), failover),
		count("master.ctl.grants_lost", float64(res.GrantsLost), failover),
		count("checkpoint.writes", ckWrites, ckNA),
		host("checkpoint.bytes_per_job", "B", ckBPJ, ckNA),
		count("checkpoint.compactions", ckCompactions, ckNA),
		virt("gateway.admission_p50_ms", "ms", gwAdmP50, gw == nil),
		virt("gateway.shed_pct", "%", gwShed, gw == nil),
		count("gateway.admit_retries", gwRetries, gw == nil),
		count("gateway.failover_replays", gwReplays, gw == nil),
		count("gateway.allocs_per_admission", res.AllocsPerAdmission, gw == nil),
		count("obs.samples_total", obsSamples, ob == nil),
		count("obs.allocs_per_sample", obsAllocs, ob == nil),
		host("obs.query_p99_us", "us", obsQuery, ob == nil),
		count("invariant.checks", float64(res.InvariantChecks), res.InvariantChecks == 0),
		count("scale.lost_grants", lost, cz == nil),
		count("scale.reissued_grants", reissued, cz == nil),
	}
}

// checkpointCounters reads the checkpoint accounting, which Result carries
// for obs runs (ObsStats) and master-failover runs. The failover fields
// carry neither the compaction count nor, for gateway runs, bytes per job:
// the store compacts exactly once per CompactionCadence writes, so the
// count is derived from the writes, and a gateway job is a registered one.
func checkpointCounters(res *scale.Result) (writes, bytesPerJob, compactions float64, na bool) {
	if ob := res.Obs; ob != nil {
		return float64(ob.CheckpointWrites), ob.CheckpointBytesPerJob, float64(ob.CheckpointCompactions), false
	}
	if res.CheckpointWrites > 0 {
		jobs := float64(res.Config.Apps)
		if res.Gateway != nil {
			jobs = float64(res.Gateway.Registered)
		}
		cadence := master.NewCheckpointStore().CompactionCadence()
		return float64(res.CheckpointWrites), ratio(float64(res.CheckpointBytes), jobs),
			float64(res.CheckpointWrites / cadence), false
	}
	return 0, 0, 0, true
}
