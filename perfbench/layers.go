package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"eventpf/internal/sim"
	"eventpf/internal/system"
)

// layerTrace collects a traced run's per-layer measurements: host-time spans
// taken around the benchmark's calls into the program's public functions,
// engine events counted by the external step loop, and the simulated counts
// of each pass's reference simulation. Every method is a no-op on a nil
// receiver, so untraced passes run the same code without recording.
type layerTrace struct {
	spans  map[string][]time.Duration
	values map[string]float64

	// Per pass: engine events stepped and the host time of the step loop.
	events   int64
	stepTime time.Duration
	steps    []time.Duration

	res                  system.Result // reference simulation of the last pass
	traceOps, traceBytes int64
	sampledErr           float64
	slicedErr            float64
	detailFrac           float64
}

func newLayerTrace() *layerTrace {
	return &layerTrace{spans: map[string][]time.Duration{}, values: map[string]float64{}}
}

func (t *layerTrace) beginPass() {
	if t != nil {
		t.events, t.stepTime = 0, 0
	}
}

func (t *layerTrace) endPass() {
	if t != nil {
		t.steps = append(t.steps, t.stepTime)
	}
}

func (t *layerTrace) span(name string, d time.Duration) {
	if t != nil {
		t.spans[name] = append(t.spans[name], d)
	}
}

// rate records n items over d as millions per second.
func (t *layerTrace) rate(name string, n int64, d time.Duration) {
	if t != nil {
		t.values[name] = float64(n) / d.Seconds() / 1e6
	}
}

func (t *layerTrace) result(r system.Result) {
	if t != nil {
		t.res = r
	}
}

// planErrors records the sampled and sliced runs' cycle estimates against
// the serial reference.
func (t *layerTrace) planErrors(serial, sampled, sliced system.Result) {
	if t == nil || serial.Cycles == 0 || sampled.Sampled == nil {
		return
	}
	ref := float64(serial.Cycles)
	t.sampledErr = 100 * math.Abs(float64(sampled.Sampled.EstimatedCycles)-ref) / ref
	t.slicedErr = 100 * math.Abs(float64(sliced.Cycles)-ref) / ref
	t.detailFrac = float64(sampled.Sampled.DetailedOps) / float64(sampled.Sampled.TotalOps)
}

// perLayer lists the traced run's metrics in print order with their units.
// BENCHMARK.json's per_layer list names the same metrics.
var perLayer = []struct{ name, unit string }{
	{"harness.setup_s", "s"},
	{"harness.finish_s", "s"},
	{"workloads.build_s", "s"},
	{"sim.events", "count"},
	{"sim.events_per_op", "ratio"},
	{"sim.ns_per_event", "ns"},
	{"sim.self_pct", "%"},
	{"cpu.ops", "count"},
	{"cpu.ipc", "ratio"},
	{"cpu.self_pct", "%"},
	{"mem.l1_hit_rate", "ratio"},
	{"mem.l2_hit_rate", "ratio"},
	{"mem.dram_reads", "count"},
	{"mem.dram_read_lat_cycles", "cycles"},
	{"mem.tlb_walks", "count"},
	{"mem.l1_mshr_stalls", "count"},
	{"mem.self_pct", "%"},
	{"prefetch.kernel_runs", "count"},
	{"prefetch.issued", "count"},
	{"prefetch.accuracy", "ratio"},
	{"prefetch.late_merges", "count"},
	{"prefetch.obs_dropped", "count"},
	{"prefetch.ppu_utilisation", "ratio"},
	{"prefetch.self_pct", "%"},
	{"ppu.self_pct", "%"},
	{"baseline.generated", "count"},
	{"baseline.issued", "count"},
	{"baseline.self_pct", "%"},
	{"ir.drain_mops_per_s", "Mops/s"},
	{"ir.self_pct", "%"},
	{"tracein.write_mops_per_s", "Mops/s"},
	{"tracein.decode_mops_per_s", "Mops/s"},
	{"tracein.bytes_per_op", "B/op"},
	{"tracein.self_pct", "%"},
	{"system.fork_ms", "ms"},
	{"system.sampled_s", "s"},
	{"system.sliced_s", "s"},
	{"system.checkpoint_s", "s"},
	{"system.sampled_detail_frac", "ratio"},
	{"system.sampled_cpi_err_pct", "%"},
	{"system.sliced_cpi_err_pct", "%"},
	{"system.self_pct", "%"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.self_pct", "%"},
	{"other.self_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// corePeriod is the core clock's period in engine ticks.
var corePeriod = sim.ClockFromMHz(system.DefaultConfig().CoreMHz).Period

// layerValues turns the collected measurements into the per-layer metrics.
// shares are the CPU-profile self shares by layer; gcPct the GC's share of
// the busy CPU time over the profiled passes; overhead the traced run's sim
// rate loss against the untraced passes of the same process.
func (t *layerTrace) layerValues(shares map[string]float64, gcPct, overhead float64) map[string]float64 {
	r := t.res
	v := map[string]float64{
		"harness.setup_s":            medianSeconds(t.spans["harness.setup_s"]),
		"harness.finish_s":           medianSeconds(t.spans["harness.finish_s"]),
		"workloads.build_s":          medianSeconds(t.spans["workloads.build_s"]),
		"sim.events":                 float64(t.events),
		"sim.events_per_op":          ratio(float64(t.events), float64(r.Core.Ops)),
		"sim.ns_per_event":           ratio(float64(median(t.steps).Nanoseconds()), float64(t.events)),
		"cpu.ops":                    float64(r.Core.Ops),
		"cpu.ipc":                    ratio(float64(r.Core.Ops), float64(r.Cycles)),
		"mem.l1_hit_rate":            r.L1.ReadHitRate(),
		"mem.l2_hit_rate":            r.L2.ReadHitRate(),
		"mem.dram_reads":             float64(r.DRAM.Reads),
		"mem.dram_read_lat_cycles":   ratio(float64(r.DRAM.LatencySum)/float64(corePeriod), float64(r.DRAM.Reads)),
		"mem.tlb_walks":              float64(r.TLB.Walks),
		"mem.l1_mshr_stalls":         float64(r.L1.MSHRStalls),
		"prefetch.kernel_runs":       float64(r.PF.KernelRuns),
		"prefetch.issued":            float64(r.PF.Issued),
		"prefetch.accuracy":          ratio(float64(r.L1.PrefetchUsed), float64(r.L1.PrefetchFills)),
		"prefetch.late_merges":       float64(r.L1.LateMerges),
		"prefetch.obs_dropped":       float64(r.PF.ObsDropped),
		"prefetch.ppu_utilisation":   mean(r.Activity),
		"baseline.generated":         float64(r.Baseline.Generated),
		"baseline.issued":            float64(r.Baseline.Issued),
		"ir.drain_mops_per_s":        t.values["ir.drain_mops_per_s"],
		"tracein.write_mops_per_s":   ratio(float64(t.traceOps)/1e6, medianSeconds(t.spans["tracein.write"])),
		"tracein.decode_mops_per_s":  t.values["tracein.decode_mops_per_s"],
		"tracein.bytes_per_op":       ratio(float64(t.traceBytes), float64(t.traceOps)),
		"system.fork_ms":             1e3 * medianSeconds(t.spans["system.fork"]),
		"system.sampled_s":           medianSeconds(t.spans["system.sampled_s"]),
		"system.sliced_s":            medianSeconds(t.spans["system.sliced_s"]),
		"system.checkpoint_s":        medianSeconds(t.spans["system.checkpoint_s"]),
		"system.sampled_detail_frac": t.detailFrac,
		"system.sampled_cpi_err_pct": t.sampledErr,
		"system.sliced_cpi_err_pct":  t.slicedErr,
		"runtime.gc_cpu_pct":         gcPct,
		"trace.overhead_pct":         overhead,
	}
	for layer, s := range shares {
		v[layer+".self_pct"] = s
	}
	return v
}

// gcCPU reads the runtime's cumulative estimates of GC CPU time and of busy
// CPU time (all of GOMAXPROCS × wall time except what was idle). The runtime
// updates these only when a GC cycle ends, so it first forces one: the
// figures then cover everything up to the call.
func gcCPU() (gc, busy float64) {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
