package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

// The layer map must name every internal package and every master file,
// so new code cannot fall into the unattributed share unnoticed, and it
// must not name code that no longer exists.
func TestLayerMapCoversSource(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkgs[e.Name()] = true
		if _, ok := packageLayer[e.Name()]; !ok {
			t.Errorf("internal/%s has no entry in packageLayer", e.Name())
		}
	}
	for p := range packageLayer {
		if !pkgs[p] {
			t.Errorf("packageLayer names internal/%s, which does not exist", p)
		}
	}

	files, err := filepath.Glob(filepath.Join("..", "internal", "master", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range files {
		base := filepath.Base(f)
		if strings.HasSuffix(base, "_test.go") {
			continue
		}
		seen[base] = true
		if _, ok := masterFileLayer[base]; !ok {
			t.Errorf("internal/master/%s has no entry in masterFileLayer", base)
		}
	}
	for f := range masterFileLayer {
		if !seen[f] {
			t.Errorf("masterFileLayer names internal/master/%s, which does not exist", f)
		}
	}

	known := map[string]bool{helper: true}
	for _, l := range layers {
		known[l] = true
	}
	for p, l := range packageLayer {
		if !known[l] {
			t.Errorf("internal/%s maps to unknown layer %q", p, l)
		}
	}
	for f, l := range masterFileLayer {
		if l == helper || !known[l] {
			t.Errorf("internal/master/%s maps to %q, not a layer", f, l)
		}
	}
}

func fr(fn, file string) frame { return frame{fn: fn, file: file} }

func TestAttribute(t *testing.T) {
	driver := []frame{
		fr("repro/internal/sim.(*Engine).run", "repro/internal/sim/sim.go"),
		fr("repro/internal/sim.(*Engine).Run", "repro/internal/sim/sim.go"),
		fr("repro/internal/scale.Run", "repro/internal/scale/scale.go"),
		fr("main.runRep", "repro/perfbench/main.go"),
		fr("runtime.main", "runtime/proc.go"),
	}
	stack := func(fs ...frame) []frame { return append(fs, driver...) }
	cases := []struct {
		name  string
		stack []frame
		self  string
		incl  []string
	}{
		{
			name: "runtime frames go to the nearest layer above; delivery trampolines are not inclusive",
			stack: stack(
				fr("runtime.mallocgc", "runtime/malloc.go"),
				fr("repro/internal/ident.(*Table).Intern", "repro/internal/ident/ident.go"),
				fr("repro/internal/agent.(*Agent).handle", "repro/internal/agent/agent.go"),
				fr("repro/internal/transport.(*Net).deliver", "repro/internal/transport/transport.go")),
			self: "agent", incl: []string{"agent"},
		},
		{
			name: "a probe called from a harness timer is inclusive time of both",
			stack: stack(
				fr("repro/internal/master.(*Scheduler).GrantedByMachine", "repro/internal/master/scheduler.go"),
				fr("repro/internal/invariant.(*Checker).CheckScheduler", "repro/internal/invariant/invariant.go"),
				fr("repro/internal/scale.Run.func3", "repro/internal/scale/scale.go"),
				fr("repro/internal/sim.everyTick", "repro/internal/sim/sim.go")),
			self: "master.sched", incl: []string{"master.sched", "invariant", "scale"},
		},
		{
			name: "the event loop's own work is sim",
			stack: stack(
				fr("runtime.memclrNoHeapPointers", "runtime/memclr_amd64.s")),
			self: "sim", incl: []string{"sim"},
		},
		{
			name: "set-up code under scale.Run",
			stack: append([]frame{
				fr("repro/internal/topology.Build", "repro/internal/topology/topology.go"),
				fr("repro/internal/agent.New", "repro/internal/agent/agent.go"),
			}, driver[2:]...),
			self: "agent", incl: []string{"agent"},
		},
		{
			name: "master files split the package; inlined library code is a helper",
			stack: stack(
				fr("repro/internal/master.(*Scheduler).RegisterApp.SearchStrings.func2", "sort/search.go"),
				fr("repro/internal/master.(*CheckpointStore).SaveApp", "repro/internal/master/checkpoint.go"),
				fr("repro/internal/master.(*Master).handle", "repro/internal/master/master.go")),
			self: "checkpoint", incl: []string{"checkpoint", "master.ctl"},
		},
		{
			name: "a forked scoring worker",
			stack: []frame{
				fr("repro/internal/master.(*Scheduler).scoreShard", "repro/internal/master/parallel.go"),
				fr("repro/internal/sim.RunParallel.func1", "repro/internal/sim/parallel.go"),
				fr("runtime.goexit", "runtime/asm_amd64.s"),
			},
			self: "master.par", incl: []string{"master.par"},
		},
		{
			name: "background GC",
			stack: []frame{
				fr("runtime.scanobject", "runtime/mgcmark.go"),
				fr("runtime.gcDrain", "runtime/mgcmark.go"),
				fr("runtime.gcBgMarkWorker", "runtime/mgc.go"),
			},
			self: "gc", incl: []string{"gc"},
		},
		{
			name: "idle scheduler is unattributed",
			stack: []frame{
				fr("runtime.futex", "runtime/sys_linux_amd64.s"),
				fr("runtime.findRunnable", "runtime/proc.go"),
				fr("runtime.schedule", "runtime/proc.go"),
			},
			self: "", incl: nil,
		},
		{
			name: "an unknown master file is unmapped",
			stack: stack(
				fr("repro/internal/master.newThing", "repro/internal/master/newfile.go")),
			self: unmapped, incl: []string{unmapped},
		},
	}
	for _, c := range cases {
		a := attribute(c.stack)
		if a.self != c.self || !reflect.DeepEqual(a.incl, c.incl) {
			t.Errorf("%s: got self=%q incl=%v, want self=%q incl=%v", c.name, a.self, a.incl, c.self, c.incl)
		}
	}
}

//go:noinline
func allocateForProfile(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 256)
	}
	return out
}

var sink [][]byte

// parseProfile must read what runtime/pprof writes: sample types, values
// and the stacks of named functions.
func TestParseAllocationProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	sink = allocateForProfile(1000)
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vi := p.valueIndex("alloc_objects")
	if vi < 0 {
		t.Fatalf("no alloc_objects sample type in %v", p.sampleTypes)
	}
	var objs int64
	for _, s := range p.samples {
		for _, f := range s.stack {
			if strings.HasSuffix(f.fn, ".allocateForProfile") {
				if !strings.HasSuffix(f.file, "layers_test.go") {
					t.Errorf("frame %s has file %q", f.fn, f.file)
				}
				objs += s.values[vi]
				break
			}
		}
	}
	if objs < 1000 {
		t.Errorf("profile charges %d objects to allocateForProfile, want >= 1000", objs)
	}
}
