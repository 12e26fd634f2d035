package main

import (
	"path"
	"strings"
)

// layers are the units the traced run charges CPU and allocations to, in
// report order.
var layers = []string{
	"sim", "transport",
	"master.sched", "master.par", "master.ctl", "checkpoint",
	"agent", "appmaster", "gateway", "obs", "invariant", "scale", "gc",
}

// helper marks a package whose frames are charged to the nearest layer
// frame above them, like runtime and standard-library frames.
const helper = ""

// packageLayer maps every repro/internal package to its layer. The master
// package is split by file (masterFileLayer). The data-plane packages are
// only reached from the harness's data-plane mode, which no workload runs;
// as helpers they are charged to whichever layer calls them.
var packageLayer = map[string]string{
	"sim":         "sim",
	"transport":   "transport",
	"protocol":    "transport",
	"agent":       "agent",
	"appmaster":   "appmaster",
	"gateway":     "gateway",
	"obs":         "obs",
	"invariant":   "invariant",
	"scale":       "scale",
	"faults":      "scale",
	"trace":       "scale",
	"ident":       helper,
	"resource":    helper,
	"topology":    helper,
	"metrics":     helper,
	"lockservice": helper,
	"blacklist":   helper,
	"baseline":    helper,
	"core":        helper,
	"experiments": helper,
	"graysort":    helper,
	"job":         helper,
	"pangu":       helper,
	"streamline":  helper,
	"master":      helper, // by file, below
}

// masterFileLayer maps every file of internal/master to its layer.
var masterFileLayer = map[string]string{
	"scheduler.go":           "master.sched",
	"localitytree.go":        "master.sched",
	"localitytree_legacy.go": "master.sched",
	"state.go":               "master.sched",
	"quota.go":               "master.sched",
	"parallel.go":            "master.par",
	"master.go":              "master.ctl",
	"heartbeatwheel.go":      "master.ctl",
	"checkpoint.go":          "checkpoint",
	"obssample.go":           "obs",
}

const internalPrefix = "repro/internal/"

// driverFuncs drive the whole run rather than doing a layer's work: the
// harness entry point and the engine's event loop. Frames at and above the
// innermost of them are not counted as inclusive time.
var driverFuncs = map[string]bool{
	"repro/internal/scale.Run":                  true,
	"repro/internal/sim.(*Engine).Run":          true,
	"repro/internal/sim.(*Engine).run":          true,
	"repro/internal/sim.(*Engine).RunUntilIdle": true,
}

// forkFuncs are the engine's parallel-phase primitive: the work under
// them belongs to the forking layer, so they are charged like helpers.
var forkFuncs = map[string]bool{
	"repro/internal/sim.RunParallel":             true,
	"repro/internal/sim.RunParallel.func1":       true,
	"repro/internal/sim.(*Engine).ParallelPhase": true,
}

// gcRoots are runtime functions that run the background collector.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime._GC":            true,
}

// internalPackage returns the repro/internal package a function belongs
// to ("" for any other function).
func internalPackage(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// unmapped marks a frame in a repro/internal package or master file the
// layer map does not know; the test over the source tree keeps it empty.
const unmapped = "?"

// frameLayer returns the layer a frame is charged to (helper for frames
// charged to their caller).
func frameLayer(f frame) string {
	if forkFuncs[f.fn] {
		return helper
	}
	pkg := internalPackage(f.fn)
	if pkg == "" {
		return helper
	}
	l, ok := packageLayer[pkg]
	if !ok {
		return unmapped
	}
	if pkg == "master" {
		if !strings.HasSuffix(path.Dir(f.file), "internal/master") {
			// Standard-library code inlined into a master function.
			return helper
		}
		if l, ok = masterFileLayer[path.Base(f.file)]; !ok {
			return unmapped
		}
	}
	return l
}

// attribution is where one sample is charged: self is the innermost layer
// frame, incl every layer with a frame below the event-dispatch boundary.
// self is "" for a sample no layer holds.
type attribution struct {
	self string
	incl []string
}

// attribute charges one stack (leaf first).
//
//   - self: the innermost frame that belongs to a layer. Helper packages,
//     the standard library and the runtime are charged to the nearest
//     layer frame above them. A stack with no layer frame is gc when the
//     background collector runs it, unattributed otherwise.
//   - incl: every layer with a frame below the dispatch boundary, plus
//     self. The boundary is the innermost driver frame (scale.Run or the
//     engine's event loop), moved inward over the engine and transport
//     frames that only hand an event or message to its handler. Without
//     it every sample would count for scale and sim, which merely drive
//     the run.
func attribute(stack []frame) attribution {
	var a attribution
	ls := make([]string, len(stack))
	boundary := len(stack)
	for i, f := range stack {
		ls[i] = frameLayer(f)
		if a.self == "" && ls[i] != helper {
			a.self = ls[i]
		}
		if boundary == len(stack) && driverFuncs[f.fn] {
			boundary = i
		}
	}
	for boundary > 0 {
		if l := ls[boundary-1]; l != helper && l != "sim" && l != "transport" {
			break
		}
		boundary--
	}
	if a.self == "" {
		for _, f := range stack {
			if gcRoots[f.fn] {
				a.self = "gc"
				break
			}
		}
	}
	if a.self == "" {
		return a
	}
	a.incl = append(a.incl, a.self)
	for _, l := range ls[:boundary] {
		if l == helper || contains(a.incl, l) {
			continue
		}
		a.incl = append(a.incl, l)
	}
	return a
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// layerShares is one profile charged to the layers, as percentages of the
// profile's total value.
type layerShares struct {
	self, incl   map[string]float64
	unattributed float64
	unmapped     []string // functions the layer map does not cover
}

// shareProfile charges every sample of p, weighted by the named value.
func shareProfile(p *profile, valueType string) layerShares {
	s := layerShares{self: map[string]float64{}, incl: map[string]float64{}}
	vi := p.valueIndex(valueType)
	if vi < 0 {
		return s
	}
	var total float64
	seen := map[string]bool{}
	for _, smp := range p.samples {
		w := float64(smp.values[vi])
		total += w
		for _, f := range smp.stack {
			if frameLayer(f) == unmapped && !seen[f.fn] {
				seen[f.fn] = true
				s.unmapped = append(s.unmapped, f.fn)
			}
		}
		a := attribute(smp.stack)
		if a.self == "" || a.self == unmapped {
			s.unattributed += w
			continue
		}
		s.self[a.self] += w
		for _, l := range a.incl {
			s.incl[l] += w
		}
	}
	if total > 0 {
		for l := range s.self {
			s.self[l] *= 100 / total
		}
		for l := range s.incl {
			s.incl[l] *= 100 / total
		}
		s.unattributed *= 100 / total
	}
	return s
}
