// Command perfbench is the repository benchmark. It runs one workload of
// the paper-scale harness (scale.Run) from a seed, checks that the output
// is correct, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, medians over the
// workload's untraced runs (at least its minimum count, more while they
// fit in --seconds), each on a sub-seed derived from --seed. With --trace 1 one untraced and one
// traced run are made; the traced run samples the process from outside
// with the CPU and allocation profilers and charges each sample to the
// layer whose code holds it (layers.go), and the metrics are the per-layer
// ones. The program under test is not changed for tracing.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
//
// attempted counts the scheduling decisions of all runs and failed those of
// runs that failed a correctness check. The process then exits 1, naming
// the check; it exits 2 on bad usage or an error of the harness.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/scale"
)

// maxProcs caps the scheduler threads, so hosts with more cores run the
// same two-thread process.
const maxProcs = 2

// tracedMemProfileRate is the allocation sampling interval of the traced
// run, in bytes (the runtime's default).
const tracedMemProfileRate = 512 * 1024

func init() {
	// Allocation profiling is on only during the traced run.
	runtime.MemProfileRate = 0
}

// gatedEndToEnd are the end-to-end metrics BENCHMARK.json bounds, the ones
// every workload reports in its result line. The other end-to-end metrics
// are printed only: d2g_p50_ms, d2g_p99_ms, sched_pause_max_ms and
// heal_converge_max_ms fall on a fixed virtual-time grid and read the same
// on every seed of a workload, failed_pct is 0 on churn, and the rest exist
// on one workload.
var gatedEndToEnd = []string{
	"decisions_per_s", "setup_s", "peak_rss_mb", "allocs_per_decision", "d2g_mean_ms",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: churn, replay or chaos")
	seed := fs.Int64("seed", 1, "workload seed; reaches the run only as scale.Config.Seed")
	seconds := fs.Int("seconds", 30, "host seconds to spend on untraced runs (at least the workload's run count is made)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload churn|replay|chaos and --trace 0|1\n")
		return 2
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	fmt.Fprintf(stdout, "host %s\n", hostFingerprint())
	fmt.Fprintf(stdout, "workload %s seed=%d loop=%s trace=%d\n", w.name, *seed, w.loop, *trace)
	if w.loop == "open" {
		fmt.Fprintln(stdout, "note open loop: submissions are due on the virtual clock and admission is timed from the due instant; generator lateness is 0 by construction")
	}

	var reps []rep
	var traced *tracedRun
	if *trace == 0 {
		// At least the workload's run count, then more while the next run
		// fits in the budget.
		budget := time.Duration(*seconds) * time.Second
		start := time.Now()
		for i := 0; i < w.reps || time.Since(start)+typicalWall(reps) <= budget; i++ {
			r, err := runRep(w.config(subSeed(*seed, i)))
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 2
			}
			reps = append(reps, r)
		}
	} else {
		// The traced run repeats the untraced run's input, so the two
		// differ only by the profilers.
		cfg := w.config(*seed)
		r, err := runRep(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		reps = append(reps, r)
		if traced, err = runTraced(cfg); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}

	all := reps
	if traced != nil {
		all = append(all[:len(all):len(all)], traced.rep)
	}
	var attempted, failed uint64
	var failures []string
	for i, r := range all {
		fmt.Fprintf(stdout, "identity run=%d seed=%d decision_stream_hash=%s", i+1, r.cfg.Seed, r.res.DecisionStreamHash)
		if r.res.Replay != nil {
			fmt.Fprintf(stdout, " gateway_decision_hash=%s", r.res.Replay.DecisionHash)
		}
		fmt.Fprintf(stdout, " decisions=%d wall_s=%.3f setup_s=%.3f decisions_per_s=%.0f\n",
			r.res.Decisions, r.wall.Seconds(), setupSeconds(r.wall, r.res), r.res.DecisionsPerSec)
		attempted += r.res.Decisions
		if bad := check(r.cfg, r.res); len(bad) > 0 {
			failed += r.res.Decisions
			for _, b := range bad {
				failures = append(failures, fmt.Sprintf("run %d: %s", i+1, b))
			}
		}
	}

	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	var printed, reported []metric
	if traced == nil {
		printed = append(endToEnd(reps, w.reps, rss), layerCounters(reps[0])...)
		reported = pick(printed, gatedEndToEnd)
	} else {
		printed = append(perLayer(traced), layerCounters(reps[0])...)
		printed = append(printed, traceMetrics(reps[0], traced)...)
		reported = printed
	}
	for _, m := range printed {
		fmt.Fprintln(stdout, formatMetric(m))
	}
	if traced != nil && len(traced.unmapped) > 0 {
		fmt.Fprintf(stdout, "note functions outside the layer map: %v\n", traced.unmapped)
	}
	for _, f := range failures {
		fmt.Fprintf(stdout, "check FAILED %s\n", f)
	}
	if len(failures) == 0 {
		fmt.Fprintln(stdout, "check ok: every correctness check passed")
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(failures) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range reported {
		out.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// typicalWall is the median host time of the runs made so far.
func typicalWall(reps []rep) time.Duration {
	return time.Duration(medianOf(reps, func(r rep) float64 { return float64(r.wall) }))
}

// runRep makes one scale.Run call and times it.
func runRep(cfg scale.Config) (rep, error) {
	runtime.GC()
	cpu := readCPU()
	start := time.Now()
	res, err := scale.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return rep{}, fmt.Errorf("scale.Run: %w", err)
	}
	return rep{cfg: cfg, res: res, wall: wall, cpu: cpuSince(cpu)}, nil
}

// tracedRun is one scale.Run call made under the CPU and allocation
// profilers, with the profiles charged to the layers.
type tracedRun struct {
	rep
	cpu, alloc layerShares
	unmapped   []string
}

func runTraced(cfg scale.Config) (*tracedRun, error) {
	runtime.GC()
	runtime.MemProfileRate = tracedMemProfileRate
	defer func() { runtime.MemProfileRate = 0 }()
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	r, err := runRep(cfg)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	// The allocation profile publishes what the last completed GC cycle
	// saw; runRep ran one before the run, so this one covers all of it.
	runtime.GC()
	var allocBuf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&allocBuf, 0); err != nil {
		return nil, fmt.Errorf("write allocation profile: %w", err)
	}
	cpuProf, err := parseProfile(cpuBuf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("CPU %w", err)
	}
	allocProf, err := parseProfile(allocBuf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("allocation %w", err)
	}
	t := &tracedRun{
		rep:   r,
		cpu:   shareProfile(cpuProf, "samples"),
		alloc: shareProfile(allocProf, "alloc_objects"),
	}
	t.unmapped = append(t.cpu.unmapped, t.alloc.unmapped...)
	return t, nil
}

// perLayer reports each layer's share of the traced run's CPU samples
// (self and inclusive) and of its sampled allocations.
func perLayer(t *tracedRun) []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms,
			metric{Name: l + ".self_pct", Unit: "%", Clock: clockHost, Value: t.cpu.self[l]},
			metric{Name: l + ".incl_pct", Unit: "%", Clock: clockHost, Value: t.cpu.incl[l]},
			metric{Name: l + ".alloc_pct", Unit: "%", Clock: clockHost, Value: t.alloc.self[l]})
	}
	return ms
}

// traceMetrics describes the trace itself: how much slower the traced run
// decided than the untraced one, and the CPU share no layer holds.
func traceMetrics(untraced rep, t *tracedRun) []metric {
	overhead := 100 * (1 - ratio(t.res.DecisionsPerSec, untraced.res.DecisionsPerSec))
	return []metric{
		{Name: "trace.overhead_pct", Unit: "%", Clock: clockHost, Value: overhead},
		{Name: "trace.unattributed_pct", Unit: "%", Clock: clockHost, Value: t.cpu.unattributed},
	}
}

// pick returns the metrics with the given names, in that order.
func pick(ms []metric, names []string) []metric {
	var out []metric
	for _, n := range names {
		for _, m := range ms {
			if m.Name == n {
				out = append(out, m)
			}
		}
	}
	return out
}

func formatMetric(m metric) string {
	s := fmt.Sprintf("metric %s %g %s clock=%s", m.Name, m.Value, m.Unit, m.Clock)
	if m.N > 0 {
		s += fmt.Sprintf(" n=%d", m.N)
	}
	if m.NA {
		s += " n/a"
	}
	return s
}
