// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed host-time budget, checks every simulation's statistics against the
// recorded ones, and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"setup_s": {"value": 0.16, "unit": "s"}, …}}
//
// Untraced (-trace 0) it reports the end-to-end metrics; traced (-trace 1)
// it reports the per-layer metrics instead. See README.md for the workloads
// and what each metric is for. Run it through run.py, which builds it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: g500-manual, replay-ghbdelta or plan-modes")
	seed := flag.Uint64("seed", defaultSeed, "input seed (varies the replay-ghbdelta trace)")
	seconds := flag.Float64("seconds", 0, "host seconds to measure for (required)")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced, profiled run")
	workdir := flag.String("workdir", os.TempDir(), "directory for generated traces")
	record := flag.String("record", "", "write this run's simulation digests into the given digests file")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	b := &bench{sz: fullSizes, seed: *seed, workdir: *workdir, recording: *record != ""}
	out, chk, err := measure(w, b, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := chk.record(*record, w.name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minPasses keeps at least this many passes per measured phase: the repeat
// check needs two, and a median of three is the smallest that ignores one
// outlier.
const minPasses = 3

// phase is the outcome of repeated passes of one workload.
type phase struct {
	parts  [][]part // per pass
	setups []time.Duration
	allocs []uint64 // heap bytes allocated per pass
}

// simRate is the phase's sim_mops_per_s: one pass's simulated ops over the
// sum, across the pass's parts, of each part's median time in the phase.
// Every pass simulates the same work, so the median is taken per part
// (plan-modes times its execution plans separately): a slow moment in one
// plan does not drag a quiet one in another.
func (ph phase) simRate() float64 {
	if len(ph.parts) == 0 {
		return 0
	}
	var ops int64
	var dur time.Duration
	for k, pt := range ph.parts[0] {
		durs := make([]time.Duration, len(ph.parts))
		for i, pass := range ph.parts {
			durs[i] = pass[k].dur
		}
		ops += pt.ops
		dur += median(durs)
	}
	return ratio(float64(ops), dur.Seconds()) / 1e6
}

// runPasses repeats passes of w until budget has elapsed (and at least
// minPasses have run), checking every simulation.
func runPasses(w workload, b *bench, budget time.Duration, tr *layerTrace, chk *checker, out *output) (phase, error) {
	var ph phase
	deadline := time.Now().Add(budget)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		runtime.GC() // each pass starts from a collected heap
		a0 := heapAllocs()
		tr.beginPass()
		p, err := w.pass(b, tr)
		if err != nil {
			return ph, err
		}
		tr.endPass()
		ph.allocs = append(ph.allocs, heapAllocs()-a0)
		ph.setups = append(ph.setups, p.setup)
		if len(ph.parts) > 0 && len(p.parts) > 0 && len(p.parts) != len(ph.parts[0]) {
			return ph, fmt.Errorf("pass %d timed %d parts, an earlier pass %d", i, len(p.parts), len(ph.parts[0]))
		}
		if len(p.parts) > 0 { // a pass whose set-up failed simulated nothing
			ph.parts = append(ph.parts, p.parts)
		}
		fmt.Fprintf(os.Stderr, "pass %d: setup %.4fs, %d ops in", i, p.setup.Seconds(), p.ops())
		for _, pt := range p.parts {
			fmt.Fprintf(os.Stderr, " %.3fs", pt.dur.Seconds())
		}
		fmt.Fprintln(os.Stderr)
		for _, s := range p.sims {
			out.Attempted++
			if err := chk.check(s); err != nil {
				out.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: simulation failed: %v\n", w.name, err)
			}
		}
	}
	return ph, nil
}

// measure runs the workload for budget and assembles its result line.
func measure(w workload, b *bench, budget time.Duration, traced bool) (*output, *checker, error) {
	chk, err := newChecker(w.name, b)
	if err != nil {
		return nil, nil, err
	}
	out := &output{Metrics: map[string]metric{}}
	if !traced {
		ph, err := runPasses(w, b, budget, nil, chk, out)
		if err != nil {
			return nil, nil, err
		}
		out.Metrics["sim_mops_per_s"] = metric{ph.simRate(), "Mops/s"}
		out.Metrics["setup_s"] = metric{medianSeconds(ph.setups), "s"}
		out.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		out.Metrics["alloc_mb"] = metric{float64(medianUint(ph.allocs)) / 1e6, "MB"}
	} else {
		// Half the budget untraced, half traced and profiled: the two medians
		// give the tracing overhead.
		plain, err := runPasses(w, b, budget/2, nil, chk, out)
		if err != nil {
			return nil, nil, err
		}
		tr := newLayerTrace()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, err
		}
		gc0, busy0 := gcCPU()
		ph, err := runPasses(w, b, budget/2, tr, chk, out)
		gc1, busy1 := gcCPU()
		pprof.StopCPUProfile()
		if err != nil {
			return nil, nil, err
		}
		if err := w.layers(b, tr); err != nil {
			return nil, nil, err
		}
		shares, err := selfShares(prof.Bytes())
		if err != nil {
			return nil, nil, err
		}
		untracedRate := plain.simRate()
		overhead := 100 * ratio(untracedRate-ph.simRate(), untracedRate)
		vals := tr.layerValues(shares, 100*ratio(gc1-gc0, busy1-busy0), overhead)
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}
	out.Correct = out.Failed == 0
	printTable(os.Stderr, w.name, out)
	return out, chk, nil
}

// printTable writes the metrics for a reader; the JSON line is for tools.
func printTable(f io.Writer, name string, out *output) {
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(f, "%s: %d simulations attempted, %d failed\n", name, out.Attempted, out.Failed)
	for _, k := range keys {
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func medianFloat(xs []float64) float64 {
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

func median(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(medianFloat(xs))
}

func medianSeconds(ds []time.Duration) float64 { return median(ds).Seconds() }

func medianUint(us []uint64) uint64 {
	xs := make([]float64, len(us))
	for i, u := range us {
		xs[i] = float64(u)
	}
	return uint64(medianFloat(xs))
}
