package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// cpuSample reads the process CPU classes from runtime/metrics.
type cpuSample struct{ gc, total, idle float64 }

var cpuMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCPU() cpuSample {
	s := make([]metrics.Sample, len(cpuMetricNames))
	for i, n := range cpuMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return cpuSample{gc: v(0), total: v(1), idle: v(2)}
}

// cpuDelta is the CPU the process used between two samples.
type cpuDelta struct{ gc, busy float64 }

func cpuSince(before cpuSample) cpuDelta {
	after := readCPU()
	return cpuDelta{
		gc:   after.gc - before.gc,
		busy: (after.total - after.idle) - (before.total - before.idle),
	}
}

// gcPct is the garbage collector's share of the busy CPU time.
func (d cpuDelta) gcPct() float64 { return 100 * ratio(d.gc, d.busy) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// hostFingerprint names the host a result was measured on: cores,
// GOMAXPROCS, Go version and CPU model.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cores=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, model)
}
