package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"eventpf/internal/trace"
	"eventpf/internal/workloads"
)

// updateGolden regenerates the committed golden result files instead of
// comparing against them:
//
//	go test ./internal/harness -run TestGoldenResults -update-golden
//
// Only do this when a change is *supposed* to alter simulated timing; the
// whole point of the goldens is that performance work (pooling, closure-free
// scheduling, queue recycling) must NOT move a single byte of any result.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden result files")

// goldenPairs are the pinned benchmark×scheme measurements. They are chosen
// to cover every allocation-sensitive path: manual exercises the full
// event-triggered prefetcher (kernels, tagged chains, EWMA), manual-blocked
// the Figure 11 suspended-VM path, stride the baseline issuer, and no-pf the
// bare core+cache+DRAM+TLB stack.
var goldenPairs = []struct {
	bench  string
	scheme Scheme
}{
	{"HJ-2", NoPF},
	{"HJ-2", Manual},
	{"RandAcc", Stride},
	{"G500-CSR", ManualBlocked},
	// Every remaining pre-registry scheme, pinned across the scheme-registry
	// refactor: collapsing the dispatch switches into one table must not move
	// a single byte of any scheme's result.
	{"HJ-2", GHBRegular},
	{"HJ-2", GHBLarge},
	{"HJ-2", Software},
	{"HJ-2", Pragma},
	{"HJ-2", Converted},
	// The registry-added competitor prefetchers. RandAcc's random-walk access
	// stream exercises the timing and delta paths hardest; their presence here
	// also puts each new unit through the fork byte-identity test.
	{"RandAcc", RPT},
	{"RandAcc", GHBDelta},
	{"RandAcc", TSKID},
}

const goldenScale = 0.05

func goldenPath(bench string, scheme Scheme) string {
	return filepath.Join("testdata", "golden_"+bench+"_"+scheme.String()+".json")
}

// TestGoldenResults pins the exact EncodeResult bytes (and therefore every
// cycle count, stat counter and EWMA value) of four representative runs.
// Any change to simulated behaviour — intended or not — fails here; pure
// performance work must keep these bytes identical.
func TestGoldenResults(t *testing.T) {
	for _, gp := range goldenPairs {
		gp := gp
		t.Run(gp.bench+"/"+gp.scheme.String(), func(t *testing.T) {
			t.Parallel()
			b, err := workloads.ByName(gp.bench)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(b, gp.scheme, Options{Scale: goldenScale})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := EncodeResult(&buf, res); err != nil {
				t.Fatal(err)
			}
			path := goldenPath(gp.bench, gp.scheme)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("%s under %s: result bytes differ from golden %s\n"+
					"cycles: got %d\nsimulated behaviour changed; if intended, rerun with -update-golden",
					gp.bench, gp.scheme, path, res.Cycles)
			}
		})
	}
}

// nopSink is a trace sink that discards every event.
type nopSink struct{}

func (nopSink) Event(trace.Event) {}

// TestIdleSkipMatchesTracedRun runs every golden pair untraced, where the
// core jumps over provably idle cycles, and with a no-op trace sink, whose
// bus disables that jump and keeps one core tick per cycle. The encoded
// results must be byte-identical: the jump must be exact, and attaching an
// observer must not perturb timing.
func TestIdleSkipMatchesTracedRun(t *testing.T) {
	for _, gp := range goldenPairs {
		gp := gp
		t.Run(gp.bench+"/"+gp.scheme.String(), func(t *testing.T) {
			t.Parallel()
			b, err := workloads.ByName(gp.bench)
			if err != nil {
				t.Fatal(err)
			}
			var out [2][]byte
			for i, sink := range []trace.Sink{nil, nopSink{}} {
				res, err := Run(b, gp.scheme, Options{Scale: goldenScale, TraceSink: sink})
				if err != nil {
					t.Fatal(err)
				}
				out[i] = encode(t, res)
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Errorf("untraced result differs from the traced (dense tick) run")
			}
		})
	}
}
