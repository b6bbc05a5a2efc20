package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eventpf/internal/harness"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// benchmarkSpec reads the metric names and units BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func smallBench(t *testing.T) *bench {
	return &bench{sz: smallSizes, seed: defaultSeed, workdir: t.TempDir()}
}

// TestSmoke runs every workload at a tiny size, untraced and traced: every
// metric is reported with its name and unit, and no simulation fails.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			out, _, err := measure(w, smallBench(t), 0, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if out.Attempted == 0 || out.Failed != 0 || !out.Correct {
				t.Errorf("%s traced=%v: %d attempted, %d failed", w.name, traced, out.Attempted, out.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			got := map[string]string{}
			for name, m := range out.Metrics {
				got[name] = m.Unit
				if !traced && m.Value <= 0 {
					t.Errorf("%s: %s = %v, want positive", w.name, name, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json promises %v", w.name, traced, got, want)
			}
		}
	}
}

// TestStepLoopMatchesRun: driving the engine from outside (Warm at op 0, a
// loop over Eng.Step, Resume) gives the Result harness.Run gives.
func TestStepLoopMatchesRun(t *testing.T) {
	opt := harness.Options{Scale: smallSizes.g500Scale}
	want, err := harness.Run(workloads.G500CSR, harness.Manual, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr := newLayerTrace()
	w, _, err := warm(workloads.G500CSR, harness.Manual, opt, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := finish(w, tr)
	if err != nil {
		t.Fatal(err)
	}
	if tr.events == 0 {
		t.Fatal("the step loop counted no events")
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("step-loop result differs from harness.Run:\n got %+v\nwant %+v", got.Result, want.Result)
	}
}

// TestTracedCountsMatchUntraced: a traced pass simulates exactly what an
// untraced pass does, and the counts it reports are that simulation's.
func TestTracedCountsMatchUntraced(t *testing.T) {
	for _, w := range workloadList {
		b := smallBench(t)
		plain, err := w.pass(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newLayerTrace()
		traced, err := w.pass(b, tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.sims) != len(traced.sims) {
			t.Fatalf("%s: %d simulations untraced, %d traced", w.name, len(plain.sims), len(traced.sims))
		}
		for i := range plain.sims {
			p, q := plain.sims[i], traced.sims[i]
			if p.err != nil || q.err != nil || p.digest != q.digest {
				t.Errorf("%s %s: untraced %s (%v), traced %s (%v)", w.name, p.name, p.digest, p.err, q.digest, q.err)
			}
		}
		// The reference simulation (the serial run, or the replay) is the
		// one whose counts the traced run reports.
		ref := plain.sims[0].digest
		if w.name == "plan-modes" {
			ref = plain.sims[len(forkMHz)].digest
		}
		if got := digestOf(tr.res); got != ref {
			t.Errorf("%s: traced counts come from a result with digest %s, want %s", w.name, got, ref)
		}
		if plain.ops() != traced.ops() {
			t.Errorf("%s: %d ops untraced, %d traced", w.name, plain.ops(), traced.ops())
		}
	}
}

// TestTraceGenSeeded: the same seed gives byte-identical traces, another
// seed a different one, and both replay with no stream error.
func TestTraceGenSeeded(t *testing.T) {
	dir := t.TempDir()
	gen := func(name string, seed uint64) []byte {
		path := filepath.Join(dir, name)
		st, err := generateTrace(path, seed, smallSizes.replayOps)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ops < smallSizes.replayOps || st.Bytes == 0 {
			t.Fatalf("seed %d: %d ops, %d bytes", seed, st.Ops, st.Bytes)
		}
		res, err := harness.Run(tracein.Bench(path), harness.GHBDelta, harness.Options{})
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if res.Core.Ops != st.Ops {
			t.Errorf("seed %d: replayed %d ops of %d", seed, res.Core.Ops, st.Ops)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, again, other := gen("a.ppft", 7), gen("b.ppft", 7), gen("c.ppft", 8)
	if !bytes.Equal(a, again) {
		t.Error("seed 7 gave two different traces")
	}
	if bytes.Equal(a, other) {
		t.Error("seeds 7 and 8 gave the same trace")
	}
}

// TestDigestCheck: a changed or missing digest, or a repeat that differs,
// fails; recording refuses after a failure.
func TestDigestCheck(t *testing.T) {
	c := &checker{recorded: map[string]string{"serial": "aa"}, first: map[string]string{}}
	if err := c.check(simOutcome{name: "serial", digest: "aa"}); err != nil {
		t.Errorf("matching digest: %v", err)
	}
	if err := c.check(simOutcome{name: "serial", digest: "bb"}); err == nil {
		t.Error("a digest other than the recorded one passed")
	}
	c = &checker{first: map[string]string{}}
	if err := c.check(simOutcome{name: "replay", digest: "aa"}); err != nil {
		t.Errorf("first pass: %v", err)
	}
	if err := c.check(simOutcome{name: "replay", digest: "bb"}); err == nil {
		t.Error("a repeat with another digest passed")
	}

	// Where recorded digests apply, a simulation or workload without one fails.
	c = &checker{recorded: map[string]string{"serial": "aa"}, first: map[string]string{}}
	if err := c.check(simOutcome{name: "sampled", digest: "aa"}); err == nil {
		t.Error("a simulation with no recorded digest passed")
	}
	c, err := newChecker("no-such-workload", &bench{sz: fullSizes, seed: defaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.check(simOutcome{name: "serial", digest: "aa"}); err == nil {
		t.Error("a workload with no recorded digests passed")
	}

	// Recording refuses to write after a failed simulation.
	path := filepath.Join(t.TempDir(), "digests.json")
	c = &checker{first: map[string]string{}}
	c.check(simOutcome{name: "serial", digest: "aa"})
	c.check(simOutcome{name: "sampled", err: errors.New("oracle mismatch")})
	if err := c.record(path, "w"); err == nil {
		t.Error("recorded digests after a failed simulation")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("digests file written after a failed simulation (stat: %v)", err)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"eventpf/internal/sim.(*Engine).Step":      "sim",
		"eventpf/internal/cpu.(*Core).tick.func1":  "cpu",
		"eventpf/internal/harness.(*seq).Next":     "other",
		"runtime.mallocgc":                         "runtime",
		"internal/runtime/maps.(*Map).getWithKey":  "runtime",
		"encoding/json.(*encodeState).marshal":     "other",
		"eventpf/internal/tracein.(*Writer).Event": "tracein",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
