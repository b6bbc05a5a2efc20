package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"eventpf/internal/system"
)

// defaultSeed is the seed whose simulated statistics are recorded in
// digests.json. Only replay-ghbdelta's input depends on the seed: the
// built-in benchmarks fix their generator seeds inside the program.
const defaultSeed = 1

// digests.json maps workload → simulation → digest of the simulated
// statistics at fullSizes and defaultSeed. Regenerate it with -record after
// a change that sets out to alter simulated results.
//
//go:embed digests.json
var recordedJSON []byte

// digestOf fingerprints every simulated statistic of a result: cycles, ops,
// cache/DRAM/TLB/prefetcher counters, and the sampled and sliced estimates.
// The JSON encoding of system.Result is deterministic, field order included.
func digestOf(r system.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a result: %v", err)) // plain data; cannot fail
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checker decides whether each simulation's statistics are the expected
// ones: the recorded digest where one applies, and in every case the digest
// the same simulation produced in the first pass of this process.
type checker struct {
	// simulation → recorded digest; nil when no recorded digest applies.
	// Where one applies, a simulation missing from it fails.
	recorded map[string]string
	first    map[string]string // simulation → digest of its first pass
	failed   int               // simulations check has failed
}

func newChecker(workload string, b *bench) (*checker, error) {
	c := &checker{first: map[string]string{}}
	if b.sz != fullSizes || b.recording || (workload == "replay-ghbdelta" && b.seed != defaultSeed) {
		return c, nil
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(recordedJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	c.recorded = all[workload]
	if c.recorded == nil {
		c.recorded = map[string]string{} // every simulation of the workload fails
	}
	return c, nil
}

// check returns the reason a simulation counts as failed, or nil.
func (c *checker) check(o simOutcome) error {
	err := c.verify(o)
	if err != nil {
		c.failed++
	} else {
		c.first[o.name] = o.digest
	}
	return err
}

func (c *checker) verify(o simOutcome) error {
	if o.err != nil {
		return o.err
	}
	if c.recorded != nil {
		want, ok := c.recorded[o.name]
		if !ok {
			return fmt.Errorf("%s: no digest recorded in digests.json", o.name)
		}
		if want != o.digest {
			return fmt.Errorf("%s: simulated statistics changed: digest %s, recorded %s", o.name, o.digest, want)
		}
	}
	if want, ok := c.first[o.name]; ok && want != o.digest {
		return fmt.Errorf("%s: repeat differs: digest %s, first pass %s", o.name, o.digest, want)
	}
	return nil
}

// record writes this process's digests for workload into the file at path,
// keeping the other workloads' entries. It refuses when any simulation
// failed: the file would lack that simulation or hold a wrong digest.
func (c *checker) record(path, workload string) error {
	if c.failed > 0 {
		return fmt.Errorf("not recording digests: %d simulations failed", c.failed)
	}
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[workload] = c.first
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
