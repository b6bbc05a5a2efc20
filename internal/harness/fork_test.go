package harness

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// TestForkMatchesStraightThrough is the checkpoint/fork correctness gate:
// for each golden benchmark×scheme pair, warming a machine partway, forking
// it (twice, completed concurrently, so the race detector can see any shared
// state between siblings) and resuming the parent must all produce results
// byte-identical to an uninterrupted run.
func TestForkMatchesStraightThrough(t *testing.T) {
	for _, gp := range goldenPairs {
		gp := gp
		t.Run(gp.bench+"/"+gp.scheme.String(), func(t *testing.T) {
			t.Parallel()
			b, err := workloads.ByName(gp.bench)
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Scale: goldenScale}
			straight, err := Run(b, gp.scheme, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := encode(t, straight)

			w, err := Warm(b, gp.scheme, opt, straight.Core.Ops/3)
			if err != nil {
				t.Fatal(err)
			}
			if w.Done() {
				t.Fatalf("program finished during warmup (%d ops): no fork point to test", straight.Core.Ops/3)
			}
			contA, err := w.Fork(w.Machine().Cfg)
			if err != nil {
				t.Fatal(err)
			}
			contB, err := w.Fork(w.Machine().Cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Complete both siblings and the parent concurrently: each
			// machine is confined to its own goroutine, and any aliased
			// state between them shows up as a data race or a byte diff.
			results := make([]Result, 3)
			errs := make([]error, 3)
			var wg sync.WaitGroup
			for i, f := range []func() (Result, error){contA.Finish, contB.Finish, w.Resume} {
				wg.Add(1)
				go func(i int, f func() (Result, error)) {
					defer wg.Done()
					results[i], errs[i] = f()
				}(i, f)
			}
			wg.Wait()
			for i, name := range []string{"fork A", "fork B", "resumed parent"} {
				if errs[i] != nil {
					t.Fatalf("%s: %v", name, errs[i])
				}
				if got := encode(t, results[i]); !bytes.Equal(got, want) {
					t.Errorf("%s: result bytes differ from straight-through run\n(got %d cycles, want %d)",
						name, results[i].Cycles, straight.Cycles)
				}
			}
		})
	}
}

func encode(t *testing.T, r Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestForkRejectsStructuralChanges pins the compatibility contract: sweeps
// may retarget the PPU clock across a fork, but anything that reshapes
// copied state must be refused.
func TestForkRejectsStructuralChanges(t *testing.T) {
	b, err := workloads.ByName("HJ-2")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Warm(b, Manual, Options{Scale: 0.02}, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	okCfg := w.Machine().Cfg
	okCfg.Prefetcher.PPUClock = mustClock(500)
	if _, err := w.Machine().ForkWith(okCfg); err != nil {
		t.Errorf("clock-only change should fork: %v", err)
	}
	bad := w.Machine().Cfg
	bad.L1.MSHRs *= 2
	if _, err := w.Machine().ForkWith(bad); err == nil {
		t.Error("cache-geometry change must not fork")
	}
	bad = w.Machine().Cfg
	bad.Prefetcher.NumPPUs = 3
	if _, err := w.Machine().ForkWith(bad); err == nil {
		t.Error("PPU-count change must not fork")
	}
}

// TestCheckpointRoundTrip saves a checkpoint, resumes it, and requires the
// resumed result to be byte-identical to an uninterrupted run of the same
// job — the property the CI checkpoint smoke also exercises end to end.
func TestCheckpointRoundTrip(t *testing.T) {
	spec := JobSpec{Bench: "HJ-2", Scheme: "manual", Scale: goldenScale}
	job, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Run(job.Bench, job.Scheme, Options{Scale: job.Scale})
	if err != nil {
		t.Fatal(err)
	}

	var file bytes.Buffer
	cp, err := SaveCheckpoint(&file, spec, straight.Core.Ops/2)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Digest == 0 {
		t.Error("checkpoint digest should fingerprint real state")
	}
	resumed, err := ResumeCheckpoint(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, resumed), encode(t, straight)) {
		t.Errorf("resumed result differs from straight-through run (got %d cycles, want %d)",
			resumed.Cycles, straight.Cycles)
	}

	// A checkpoint against different inputs must be refused, not resumed.
	bad := file.Bytes()
	tampered := bytes.Replace(bad, []byte(`"warmup_ops": `), []byte(`"warmup_ops": 1`), 1)
	if _, err := ResumeCheckpoint(bytes.NewReader(tampered)); err == nil {
		t.Error("digest mismatch should fail the resume")
	}
}

// pinnedCheckpoint is a checkpoint file as SaveCheckpoint wrote it before
// the core's tick moved into the engine's clock slot and idle cycles began to
// be skipped. Both changes are meant to be invisible in machine state, so
// the digest recorded then must still verify.
const pinnedCheckpoint = `{
  "version": 1,
  "job": {
    "bench": "HJ-2",
    "scheme": "manual",
    "scale": 0.05,
    "ppus": 12,
    "ppu_mhz": 1000
  },
  "warmup_ops": 20000,
  "digest": 16298728040533770211
}`

// TestCheckpointDigestPinned replays a checkpoint recorded by an earlier
// build of the simulator. ResumeCheckpoint fails unless Machine.Digest at op
// 20 000 (time, schedule sequence, pending events and the core, cache, DRAM
// and TLB counters) equals the recorded one.
func TestCheckpointDigestPinned(t *testing.T) {
	if _, err := ResumeCheckpoint(strings.NewReader(pinnedCheckpoint)); err != nil {
		t.Fatal(err)
	}
}

// TestSampledRunCPIError bounds the SMARTS sampling error at small scale:
// the estimated whole-program cycle count must stay within a loose band of
// the full run's, while simulating only a fraction of ops in detail. The
// functional side (oracle check) must hold exactly.
func TestSampledRunCPIError(t *testing.T) {
	b, err := workloads.ByName("HJ-2")
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(b, Manual, Options{Scale: goldenScale})
	if err != nil {
		t.Fatal(err)
	}
	sc := system.SampleConfig{WarmupOps: 1_000, MeasureOps: 4_000, FFOps: 15_000}
	sampled, err := Run(b, Manual, Options{Scale: goldenScale, Sample: &sc})
	if err != nil {
		t.Fatal(err)
	}
	st := sampled.Sampled
	if st == nil {
		t.Fatal("sampled run did not report sampling stats")
	}
	if st.TotalOps != full.Core.Ops {
		t.Errorf("sampled run consumed %d ops, full run %d — functional execution diverged", st.TotalOps, full.Core.Ops)
	}
	if st.DetailedOps >= st.TotalOps*3/4 {
		t.Errorf("sampling detailed %d of %d ops — not actually fast-forwarding", st.DetailedOps, st.TotalOps)
	}
	relErr := float64(st.EstimatedCycles-full.Cycles) / float64(full.Cycles)
	if relErr < 0 {
		relErr = -relErr
	}
	t.Logf("full %d cycles, estimated %d (%.1f%% error, %d/%d ops detailed)",
		full.Cycles, st.EstimatedCycles, 100*relErr, st.DetailedOps, st.TotalOps)
	if relErr > 0.35 {
		t.Errorf("sampled CPI estimate off by %.1f%% (full %d, estimated %d)", 100*relErr, full.Cycles, st.EstimatedCycles)
	}
}

// TestSuiteSimulatesBaselineOnce asserts the no-prefetch baseline dedup
// across figures: Figure 8, Figure 11 and the instruction-overhead analysis
// all need every benchmark's NoPF (and mostly Manual) runs, and the memo
// must simulate each exactly once per suite.
func TestSuiteSimulatesBaselineOnce(t *testing.T) {
	s := NewSuite(Options{Scale: 0.02})
	if _, err := s.Fig8(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig11(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstrOverhead(); err != nil {
		t.Fatal(err)
	}
	_, misses := s.MemoStats()
	// Fig8 simulates no-pf + manual for each benchmark; Fig11 adds only
	// manual-blocked; InstrOverhead adds only software. Anything above
	// 4×benchmarks means a baseline re-simulated.
	want := int64(4 * len(workloads.All))
	if misses != want {
		t.Errorf("suite simulated %d unique runs, want %d — a shared baseline was re-simulated", misses, want)
	}
}

// TestForkAllocBudget pins the allocation cost of forking a warmed machine.
// A fork necessarily builds a second machine, so the budget is far above the
// steady-state (zero-alloc) simulation gates, but it must stay bounded: the
// sweep fan-out forks dozens of machines per figure.
func TestForkAllocBudget(t *testing.T) {
	b, err := workloads.ByName("HJ-2")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Warm(b, Manual, Options{Scale: 0.02}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if w.Done() {
		t.Fatal("program finished during warmup; pick a smaller warmup")
	}
	m := w.Machine()
	avg := testing.AllocsPerRun(3, func() {
		if _, err := m.Fork(); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 6_000
	if avg > budget {
		t.Errorf("Machine.Fork allocated %.0f objects, budget %d", avg, budget)
	}
	t.Logf("Machine.Fork: %.0f allocs (budget %d)", avg, budget)
}
