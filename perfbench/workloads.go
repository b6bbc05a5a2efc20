package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"eventpf/internal/harness"
	"eventpf/internal/system"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// sizes fixes how much work one pass of each workload simulates. Every
// simulation is sized to take seconds of host time: shorter spans drift with
// the host's speed more than any change the benchmark is meant to catch.
type sizes struct {
	g500Scale float64 // G500-CSR input scale (16 k vertices at 0.2)
	replayOps int64   // micro-ops in the generated trace
	hjScale   float64 // HJ-8 input scale
	hjWarmOps int64   // plan-modes fork and checkpoint point
}

// fullSizes are the benchmark's sizes, the ones digests.json records;
// smallSizes keep the smoke test fast.
var (
	fullSizes  = sizes{g500Scale: 0.2, replayOps: 1_000_000, hjScale: 0.1, hjWarmOps: 300_000}
	smallSizes = sizes{g500Scale: 0.02, replayOps: 40_000, hjScale: 0.02, hjWarmOps: 30_000}
)

// forkMHz are the PPU clocks the plan-modes warm run is forked into
// (Figure 9's sweep axis).
var forkMHz = []int{250, 500, 2000}

// bench is one benchmark process's fixed inputs.
type bench struct {
	sz      sizes
	seed    uint64
	workdir string // where generated traces are written
	// recording: the digests are being re-recorded, so the recorded ones
	// are not checked; repeats within the run still are.
	recording bool
}

// simOutcome is one simulation of a pass: its name within the workload, the
// digest of its simulated statistics, and the error it returned.
type simOutcome struct {
	name   string
	digest string
	err    error
}

// passResult is what one pass of a workload measured.
type passResult struct {
	setup time.Duration // host time before the first op could issue
	parts []part        // the host time after set-up, split by execution plan
	sims  []simOutcome
}

// part is one timed stretch of a pass: the program micro-ops its
// simulations covered and the host time they took.
type part struct {
	ops int64
	dur time.Duration
}

// timePart appends the stretch from start until now.
func (p *passResult) timePart(ops int64, start time.Time) time.Time {
	now := time.Now()
	p.parts = append(p.parts, part{ops: ops, dur: now.Sub(start)})
	return now
}

func (p *passResult) ops() (n int64) {
	for _, pt := range p.parts {
		n += pt.ops
	}
	return n
}

func (p *passResult) add(name string, res harness.Result, err error) {
	o := simOutcome{name: name, err: err}
	if err == nil {
		o.digest = digestOf(res.Result)
	}
	p.sims = append(p.sims, o)
}

// workload is one benchmark workload. pass runs it once; with tr non-nil it
// also records per-layer spans and counts into tr. layers takes the traced
// run's one-off layer measurements after the profiled passes.
type workload struct {
	name   string
	pass   func(b *bench, tr *layerTrace) (passResult, error)
	layers func(b *bench, tr *layerTrace) error
}

var workloadList = []workload{
	{name: "g500-manual", pass: g500Pass, layers: g500Layers},
	{name: "replay-ghbdelta", pass: replayPass, layers: replayLayers},
	{name: "plan-modes", pass: planPass, layers: planLayers},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warm is harness.Warm(…, 0), the span before the first op can issue.
func warm(b *workloads.Benchmark, scheme harness.Scheme, opt harness.Options, tr *layerTrace) (*harness.WarmRun, time.Duration, error) {
	t0 := time.Now()
	w, err := harness.Warm(b, scheme, opt, 0)
	d := time.Since(t0)
	tr.span("harness.setup_s", d)
	return w, d, err
}

// advance runs a warm run's engine until the core has retired n micro-ops,
// or to the end of the simulation when n is negative. Traced, it steps the
// engine itself so events are counted; untraced it leaves the work to the
// harness (RunUntilOps now, or the Drain inside Resume).
func advance(m *system.Machine, n int64, tr *layerTrace) {
	if tr == nil {
		if n >= 0 {
			m.RunUntilOps(n)
		}
		return
	}
	t0 := time.Now()
	var ev int64
	if n < 0 {
		for m.Eng.Step() {
			ev++
		}
	} else {
		for !m.Done() && m.Core.Stats.Ops < n && m.Eng.Step() {
			ev++
		}
	}
	tr.events += ev
	tr.stepTime += time.Since(t0)
}

// finish runs a warm run to completion: the step loop (traced) and Resume.
func finish(w *harness.WarmRun, tr *layerTrace) (harness.Result, error) {
	advance(w.Machine(), -1, tr)
	t0 := time.Now()
	res, err := w.Resume()
	tr.span("harness.finish_s", time.Since(t0))
	return res, err
}

// g500-manual: one long G500-CSR BFS under the manual event kernels on the
// exact serial engine.
func g500Pass(b *bench, tr *layerTrace) (passResult, error) {
	var p passResult
	w, setup, err := warm(workloads.G500CSR, harness.Manual, harness.Options{Scale: b.sz.g500Scale}, tr)
	p.setup = setup
	if err != nil {
		p.add("serial", harness.Result{}, err)
		return p, nil
	}
	start := time.Now()
	res, err := finish(w, tr)
	p.timePart(res.Core.Ops, start)
	p.add("serial", res, err)
	tr.result(res.Result)
	return p, nil
}

func g500Layers(b *bench, tr *layerTrace) error {
	return buildAndDrain(workloads.G500CSR, b.sz.g500Scale, tr)
}

// replay-ghbdelta: the seeded synthetic trace, generated and encoded during
// set-up, replayed under the delta-correlating GHB.
func replayPass(b *bench, tr *layerTrace) (passResult, error) {
	var p passResult
	path := filepath.Join(b.workdir, fmt.Sprintf("irregular-%d.ppft", b.seed))
	t0 := time.Now()
	gs, err := generateTrace(path, b.seed, b.sz.replayOps)
	if err != nil {
		return p, err
	}
	defer os.Remove(path)
	w, _, err := warm(tracein.Bench(path), harness.GHBDelta, harness.Options{}, tr)
	p.setup = time.Since(t0)
	if tr != nil {
		tr.span("tracein.write", gs.WriteTime)
		tr.traceOps, tr.traceBytes = gs.Ops, gs.Bytes
	}
	if err != nil {
		p.add("replay", harness.Result{}, err)
		return p, nil
	}
	start := time.Now()
	res, err := finish(w, tr)
	p.timePart(res.Core.Ops, start)
	p.add("replay", res, err)
	tr.result(res.Result)
	return p, nil
}

// replayLayers times the decoder alone (Open plus a Next drain) on a freshly
// generated copy of the pass's trace.
func replayLayers(b *bench, tr *layerTrace) error {
	path := filepath.Join(b.workdir, fmt.Sprintf("irregular-%d-decode.ppft", b.seed))
	if _, err := generateTrace(path, b.seed, b.sz.replayOps); err != nil {
		return err
	}
	defer os.Remove(path)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t0 := time.Now()
	dec, err := tracein.Open(f)
	if err != nil {
		return err
	}
	var n int64
	for {
		_, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("decoding the generated trace: %w", err)
		}
		n++
	}
	tr.rate("tracein.decode_mops_per_s", n, time.Since(t0))
	return nil
}

// plan-modes: HJ-8 under manual through every non-serial execution plan —
// warm once and fork into three PPU clocks, resume the parent (the serial
// reference), sampled, time-parallel with two slices, and a checkpoint
// round trip.
func planPass(b *bench, tr *layerTrace) (passResult, error) {
	var p passResult
	opt := harness.Options{Scale: b.sz.hjScale}
	w, setup, err := warm(workloads.HJ8, harness.Manual, opt, tr)
	p.setup = setup
	if err != nil {
		p.add("serial", harness.Result{}, err)
		return p, nil
	}
	start := time.Now()
	advance(w.Machine(), b.sz.hjWarmOps, tr)
	warmed := w.Machine().Core.Stats.Ops
	var ops int64
	for _, mhz := range forkMHz {
		name := fmt.Sprintf("fork-%dMHz", mhz)
		fopt := opt
		fopt.PPUMHz = mhz
		cfg, err := harness.ConfigFor(fopt, harness.Manual)
		if err != nil {
			p.add(name, harness.Result{}, err)
			continue
		}
		tf := time.Now()
		c, err := w.Fork(cfg)
		tr.span("system.fork", time.Since(tf))
		if err != nil {
			p.add(name, harness.Result{}, err)
			continue
		}
		res, err := c.Finish()
		ops += res.Core.Ops - warmed
		p.add(name, res, err)
	}
	serial, err := finish(w, tr)
	p.add("serial", serial, err)
	tr.result(serial.Result)
	start = p.timePart(ops+serial.Core.Ops, start)

	sc := system.DefaultSampleConfig()
	sopt := opt
	sopt.Sample = &sc
	sampled, err := harness.Run(workloads.HJ8, harness.Manual, sopt)
	p.add("sampled", sampled, err)
	var sampledOps int64
	if sampled.Sampled != nil {
		sampledOps = sampled.Sampled.TotalOps
	}
	start = p.timePart(sampledOps, start)
	tr.span("system.sampled_s", p.parts[1].dur)

	lopt := opt
	lopt.Slices = 2
	sliced, err := harness.Run(workloads.HJ8, harness.Manual, lopt)
	p.add("sliced", sliced, err)
	start = p.timePart(sliced.Core.Ops, start)
	tr.span("system.sliced_s", p.parts[2].dur)

	var buf bytes.Buffer
	spec := harness.JobSpec{Bench: workloads.HJ8.Name, Scheme: harness.Manual.String(), Scale: b.sz.hjScale}
	resumed, err := checkpointRoundTrip(&buf, spec, b.sz.hjWarmOps)
	p.add("checkpoint", resumed, err)
	p.timePart(b.sz.hjWarmOps+resumed.Core.Ops, start)
	tr.span("system.checkpoint_s", p.parts[3].dur)
	// A checkpoint resume must reproduce the uninterrupted run exactly.
	if last, ref := &p.sims[len(p.sims)-1], p.sims[len(forkMHz)]; err == nil && last.digest != ref.digest {
		last.err = fmt.Errorf("checkpoint resume digest %s differs from the serial run's %s", last.digest, ref.digest)
	}
	tr.planErrors(serial.Result, sampled.Result, sliced.Result)
	return p, nil
}

func checkpointRoundTrip(buf *bytes.Buffer, spec harness.JobSpec, ops int64) (harness.Result, error) {
	if _, err := harness.SaveCheckpoint(buf, spec, ops); err != nil {
		return harness.Result{}, err
	}
	return harness.ResumeCheckpoint(buf)
}

func planLayers(b *bench, tr *layerTrace) error {
	return buildAndDrain(workloads.HJ8, b.sz.hjScale, tr)
}

// buildAndDrain times Build on a fresh manual machine, then drains the
// benchmark's kernels through the IR interpreter alone: NewInterp plus a
// Next loop over every run, with no timing model.
func buildAndDrain(wb *workloads.Benchmark, scale float64, tr *layerTrace) error {
	cfg, err := harness.ConfigFor(harness.Options{}, harness.Manual)
	if err != nil {
		return err
	}
	info, _ := harness.Manual.Info() // registered, as ConfigFor just checked
	m := system.New(cfg, info.Machine)
	t0 := time.Now()
	inst := wb.Build(m, scale)
	tr.span("workloads.build_s", time.Since(t0))
	fn := inst.BuildFn(workloads.Plain)
	if fn == nil {
		return fmt.Errorf("%s has no plain kernel", wb.Name)
	}
	t0 = time.Now()
	var n int64
	for _, run := range inst.Runs {
		if run.Before != nil {
			run.Before(m)
		}
		it := m.NewInterp(fn, run.Args...)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
	}
	tr.rate("ir.drain_mops_per_s", n, time.Since(t0))
	return nil
}
