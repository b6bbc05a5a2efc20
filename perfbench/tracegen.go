package main

import (
	"fmt"
	"os"
	"time"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
	"eventpf/internal/sim"
	"eventpf/internal/trace"
	"eventpf/internal/tracein"
)

// The replay-ghbdelta input is a synthetic irregular loop, generated from the
// benchmark's seed and encoded through tracein.Writer during set-up. Every
// iteration reads a 64-byte record sequentially, hashes it, stores a result
// sequentially and closes with the loop branch. Every fourth iteration also
// gathers from a large table at the hashed index and advances a pointer chase
// through a seeded random cycle of nodes (sometimes two hops), combining the
// two loaded values. The record stream gives the delta-correlating GHB a
// repeating miss delta to learn between the gathers and chase steps, which
// give it nothing, so it keeps both generating and mispredicting. The
// footprint (tables below) is several times the modelled 1 MiB L2.
const (
	genRecs   = 1 << 17 // 64-byte records, 8 MiB, read sequentially
	genTable  = 1 << 17 // 64-byte buckets, 8 MiB, gathered by hash
	genNodes  = 1 << 16 // 64-byte nodes, 4 MiB, one random cycle
	genOut    = 1 << 17 // 8-byte results, 1 MiB, stored sequentially
	genInner  = 16      // iterations per inner loop: one not-taken branch in 16
	genSparse = 4       // one gather and chase step every genSparse iterations
)

// Instruction addresses of the loop body.
const (
	pcRecord = 0x4000 + 4*iota
	pcHash
	pcMix
	pcGather
	pcChase
	pcChase2
	pcCombine
	pcStore
	pcBranch
	pcOuter
	pcOuterBranch
)

// splitmix64 is the generator's only source of randomness, so a seed fixes
// every address and branch of the trace on every platform.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// genRegions lays the four tables out like mem.Arena does: page-aligned,
// starting at 1 MiB, with a guard page between regions.
func genRegions() []mem.Region {
	sizes := []struct {
		name string
		size uint64
	}{{"records", genRecs * 64}, {"table", genTable * 64}, {"nodes", genNodes * 64}, {"out", genOut * 8}}
	next := uint64(1 << 20)
	var rs []mem.Region
	for _, s := range sizes {
		rs = append(rs, mem.Region{Name: s.name, Base: next, Size: s.size})
		next += (s.size+mem.PageSize-1)/mem.PageSize*mem.PageSize + mem.PageSize
	}
	return rs
}

// genStats describes one generated trace.
type genStats struct {
	Ops   int64
	Bytes int64
	// WriteTime is the host time spent inside tracein.Writer.Event, without
	// the generator's own work.
	WriteTime time.Duration
}

// genBatch is how many ops are generated before the batch is timed through
// the Writer; large enough that the two clock reads per batch cost nothing.
const genBatch = 4096

// generateTrace writes a PPFT trace of at least ops micro-ops, fixed by seed,
// to path.
func generateTrace(path string, seed uint64, ops int64) (genStats, error) {
	f, err := os.Create(path)
	if err != nil {
		return genStats{}, fmt.Errorf("tracegen: %w", err)
	}
	st, err := writeTrace(f, seed, ops)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("tracegen: %w", cerr)
	}
	if err != nil {
		os.Remove(path)
		return genStats{}, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return genStats{}, fmt.Errorf("tracegen: %w", err)
	}
	st.Bytes = fi.Size()
	return st, nil
}

func writeTrace(f *os.File, seed uint64, ops int64) (genStats, error) {
	rng := splitmix64(seed)
	regions := genRegions()
	recs, table, nodes, out := regions[0], regions[1], regions[2], regions[3]

	// Sattolo's shuffle: one cycle through every node, so the chase never
	// settles into a short loop the caches could hold.
	next := make([]uint32, genNodes)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := genNodes - 1; i > 0; i-- {
		j := rng.next() % uint64(i)
		next[i], next[j] = next[j], next[i]
	}
	salt := rng.next() | 1

	w := tracein.NewWriter(f, tracein.Meta{Bench: "perfbench-irregular", Tool: "perfbench"})
	w.BeginCapture(regions)

	var (
		st        genStats
		batch     = make([]trace.Event, 0, genBatch+16)
		id        int64
		lastChase = int64(-1)
		node      = uint32(rng.next() % genNodes)
	)
	emit := func(kind cpu.OpKind, pc int, addr uint64, taken bool, deps ...int64) int64 {
		var rel [2]uint64
		for i, d := range deps {
			if d >= 0 {
				rel[i] = uint64(id - d)
			}
		}
		ev := trace.Event{Kind: trace.CoreDispatch, ID: id, Addr: addr,
			A: int32(kind), B: int32(pc), Dur: sim.Ticks(rel[0] | rel[1]<<32)}
		if taken {
			ev.C = 1
		}
		batch = append(batch, ev)
		id++
		return id - 1
	}
	flush := func() {
		t0 := time.Now()
		for _, ev := range batch {
			w.Event(ev)
		}
		st.WriteTime += time.Since(t0)
		batch = batch[:0]
	}
	for i := uint64(0); id < ops; i++ {
		k := emit(cpu.OpLoad, pcRecord, recs.Base+64*(i%genRecs), false)
		h := emit(cpu.OpMul, pcHash, 0, false, k)
		h = emit(cpu.OpInt, pcMix, 0, false, h)
		v := h
		if i%genSparse == 0 {
			bucket := (i*salt ^ (i*salt)>>29) % genTable
			g := emit(cpu.OpLoad, pcGather, table.Base+64*bucket, false, h)
			node = next[node]
			c := emit(cpu.OpLoad, pcChase, nodes.Base+64*uint64(node), false, lastChase)
			if rng.next()%4 == 0 {
				node = next[node]
				c = emit(cpu.OpLoad, pcChase2, nodes.Base+64*uint64(node), false, c)
			}
			lastChase = c
			v = emit(cpu.OpInt, pcCombine, 0, false, g, c)
		}
		emit(cpu.OpStore, pcStore, out.Base+8*(i%genOut), false, v)
		last := i%genInner == genInner-1
		emit(cpu.OpBranch, pcBranch, 0, !last)
		if last {
			o := emit(cpu.OpInt, pcOuter, 0, false)
			emit(cpu.OpBranch, pcOuterBranch, 0, true, o)
		}
		if len(batch) >= genBatch {
			flush()
		}
	}
	flush()
	t0 := time.Now()
	err := w.Close()
	st.WriteTime += time.Since(t0)
	if err != nil {
		return genStats{}, fmt.Errorf("tracegen: %w", err)
	}
	st.Ops = id
	return st, nil
}
