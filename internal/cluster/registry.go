package cluster

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// WorkerInfo identifies one ppfserve worker: a stable ID (used on the hash
// ring and as its job-ID prefix) and the base URL peers reach it at.
type WorkerInfo struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// workerState is the registry's view of one live worker.
type workerState struct {
	info     WorkerInfo
	lastBeat time.Time
	// metrics is the last successful /metrics scrape; when the worker is
	// ejected these counters fold into the departed aggregate so cluster
	// totals (memo misses above all) survive worker death.
	metrics map[string]int64
}

// registry tracks live workers and the folded counters of departed ones.
type registry struct {
	mu        sync.Mutex
	live      map[string]*workerState
	departed  map[string]int64 // summed counters of every ejected worker
	departedN int
}

func newRegistry() *registry {
	return &registry{
		live:     map[string]*workerState{},
		departed: map[string]int64{},
	}
}

// upsert registers or refreshes a worker, returning true when it is new.
func (r *registry) upsert(info WorkerInfo, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.live[info.ID]
	if ok {
		w.info = info
		w.lastBeat = now
		return false
	}
	r.live[info.ID] = &workerState{info: info, lastBeat: now}
	return true
}

// remove ejects a worker, folding its last-known counters into the
// departed aggregate. Idempotent.
func (r *registry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.live[id]
	if !ok {
		return false
	}
	for name, v := range w.metrics {
		if summable(name) {
			r.departed[name] += v
		}
	}
	r.departedN++
	delete(r.live, id)
	return true
}

// get returns a live worker's info.
func (r *registry) get(id string) (WorkerInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.live[id]
	if !ok {
		return WorkerInfo{}, false
	}
	return w.info, true
}

// liveWorkers lists live workers sorted by ID.
func (r *registry) liveWorkers() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.live))
	for _, w := range r.live {
		out = append(out, w.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// stale returns the IDs of workers whose last heartbeat predates the TTL.
func (r *registry) stale(now time.Time, ttl time.Duration) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for id, w := range r.live {
		if now.Sub(w.lastBeat) > ttl {
			out = append(out, id)
		}
	}
	return out
}

// setMetrics records a worker's latest /metrics scrape.
func (r *registry) setMetrics(id string, m map[string]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.live[id]; ok {
		w.metrics = m
	}
}

// snapshot returns a copy of every live worker's last scrape, the departed
// aggregate, and the departed count.
func (r *registry) snapshot() (perWorker map[string]map[string]int64, departed map[string]int64, departedN int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	perWorker = make(map[string]map[string]int64, len(r.live))
	for id, w := range r.live {
		m := make(map[string]int64, len(w.metrics))
		for k, v := range w.metrics {
			m[k] = v
		}
		perWorker[id] = m
	}
	departed = make(map[string]int64, len(r.departed))
	for k, v := range r.departed {
		departed[k] = v
	}
	return perWorker, departed, r.departedN
}

// summable reports whether a metric line is a monotonic counter that can
// be summed across workers and folded into the departed aggregate. Gauges
// (queue depth, inflight, …) and histogram quantiles are not.
func summable(name string) bool {
	switch name {
	case "ppfserve_queue_depth", "ppfserve_queue_capacity", "ppfserve_workers",
		"ppfserve_jobs_inflight", "ppfserve_cache_entries", "ppfserve_cache_bytes",
		"ppfserve_draining":
		return false
	}
	return !strings.HasSuffix(name, "_p50") && !strings.HasSuffix(name, "_p99") &&
		!strings.HasSuffix(name, "_max")
}
