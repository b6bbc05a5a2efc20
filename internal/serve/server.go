package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"eventpf/internal/harness"
	"eventpf/internal/stats"
	"eventpf/internal/workloads"
)

// Config sizes the daemon. The zero value is usable: every field has a
// production-minded default.
type Config struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; a full queue answers 429 with
	// a Retry-After hint instead of growing without bound (default 64).
	QueueDepth int
	// DefaultScale is substituted when a job omits scale (default 0.05 — a
	// serving-sized input, not the full paper input).
	DefaultScale float64
	// MaxScale rejects jobs above this input scale so one request cannot
	// monopolise the service (default 1.0).
	MaxScale float64
	// CacheEntries caps the content-addressed result cache entry count
	// (default 4096; eviction is LRU).
	CacheEntries int
	// CacheBytes caps the cache's total stored bytes (default 256 MiB;
	// eviction is LRU, but a single entry larger than the cap is retained
	// rather than thrashed).
	CacheBytes int64
	// JobHistory caps how many terminal jobs stay queryable by ID
	// (default 1024).
	JobHistory int
	// EventHistory caps each job's retained progress chain; older events
	// fold into one synthesized snapshot event (default 256).
	EventHistory int
	// ProgressEvery publishes one SSE progress event per this many machine
	// trace events (default 65536).
	ProgressEvery int64
	// IDPrefix prefixes every job ID (default "j"). Cluster workers use
	// their worker name so IDs stay unique across the fleet.
	IDPrefix string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultScale <= 0 {
		c.DefaultScale = 0.05
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 1.0
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 1024
	}
	if c.EventHistory <= 0 {
		c.EventHistory = 256
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 1 << 16
	}
	if c.IDPrefix == "" {
		c.IDPrefix = "j"
	}
	return c
}

// cacheEntry is one content-addressed result: the canonical bytes plus the
// job that produced them (empty for peer-filled entries).
type cacheEntry struct {
	key   string
	bytes []byte
	jobID string
}

// Server is the simulation-as-a-service daemon. One Server owns one
// harness.Suite, so the suite's singleflight memo is the second layer of
// the cache: even if the serve-level cache evicted an entry, re-simulating
// it hits the memo.
type Server struct {
	cfg   Config
	suite *harness.Suite
	mux   *http.ServeMux
	m     metrics
	sim   *simAggregate

	// runJob performs one admitted simulation; tests and cluster stubs
	// substitute it via SetRunner so queue/drain/SSE behaviour is checkable
	// without real simulations.
	runJob func(*Job) ([]byte, error)

	mu         sync.Mutex
	seq        uint64
	jobs       map[string]*Job
	jobOrder   []string
	byKey      map[string]*Job // queued or running job per content key
	cache      map[string]*list.Element
	cacheLRU   *list.List // front = most recently used *cacheEntry
	cacheBytes int64
	queue      chan *Job
	draining   bool
	drained    chan struct{} // closed when Drain finishes
	ewmaRun    stats.EWMA    // smoothed job duration, feeds Retry-After

	workerWG sync.WaitGroup
}

// NewServer builds a daemon and starts its workers.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		suite:    harness.NewSuite(harness.Options{Parallel: cfg.Workers}),
		jobs:     map[string]*Job{},
		byKey:    map[string]*Job{},
		cache:    map[string]*list.Element{},
		cacheLRU: list.New(),
		queue:    make(chan *Job, cfg.QueueDepth),
		ewmaRun:  stats.NewEWMA(4),
		drained:  make(chan struct{}),
		sim:      newSimAggregate(),
	}
	s.runJob = s.simulate
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("PUT /cache/{key}", s.handleCachePut)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.startWorkers()
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetRunner replaces the function that executes admitted jobs. Production
// keeps the built-in simulator; cluster and queue tests substitute stubs
// (which may call Job.Publish to emit progress). Call before serving
// traffic.
func (s *Server) SetRunner(run func(*Job) ([]byte, error)) { s.runJob = run }

// submitResponse is the POST /jobs response body.
type submitResponse struct {
	ID     string          `json:"id,omitempty"`
	Key    string          `json:"key"`
	State  State           `json:"state"`
	Cached bool            `json:"cached"`
	Dedup  bool            `json:"dedup,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// errorResponse is every non-2xx JSON body. The valid-value lists turn a
// typo'd request into a menu (satellite: surface workloads.ByName's list).
type errorResponse struct {
	Error           string   `json:"error"`
	ValidBenchmarks []string `json:"valid_benchmarks,omitempty"`
	ValidSchemes    []string `json:"valid_schemes,omitempty"`
	RetryAfter      int      `json:"retry_after_seconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleSubmit admits one job: cache hit → immediate result; duplicate of
// an in-flight job → coalesce (only onto a running one while draining);
// queue full → 429 + Retry-After; draining → 503; otherwise enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec harness.JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		s.m.rejectedValidation.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	s.m.submitted.Add(1)
	if spec.Scale == 0 {
		spec.Scale = s.cfg.DefaultScale
	}
	resolved, err := spec.Resolve()
	if err != nil {
		s.m.rejectedValidation.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error:           err.Error(),
			ValidBenchmarks: workloads.MenuNames(),
			ValidSchemes:    harness.SchemeNames(),
		})
		return
	}
	if resolved.Scale > s.cfg.MaxScale {
		s.m.rejectedValidation.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("scale %g exceeds this server's maximum %g", resolved.Scale, s.cfg.MaxScale),
		})
		return
	}
	key := resolved.Key()

	s.mu.Lock()
	if e, ok := s.cacheGetLocked(key); ok {
		s.m.cacheHits.Add(1)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, submitResponse{
			ID: e.jobID, Key: key, State: StateDone, Cached: true, Result: e.bytes,
		})
		return
	}
	// While draining, only a running job will still produce a result: a
	// queued one is about to be rejected, so a duplicate of it gets 503
	// like new work rather than coalescing onto a doomed job.
	if jb, ok := s.byKey[key]; ok && (!s.draining || jb.currentState() == StateRunning) {
		s.m.deduped.Add(1)
		s.mu.Unlock()
		s.respondMaybeWait(w, r, jb, submitResponse{ID: jb.ID, Key: key, State: jb.currentState(), Dedup: true})
		return
	}
	if s.draining {
		s.m.rejectedDraining.Add(1)
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining; not accepting jobs"})
		return
	}
	s.seq++
	jb := newJob(jobID(s.cfg.IDPrefix, s.seq), spec, resolved, time.Now(), s.cfg.EventHistory)
	select {
	case s.queue <- jb:
		s.m.cacheMisses.Add(1)
		s.jobs[jb.ID] = jb
		s.jobOrder = append(s.jobOrder, jb.ID)
		s.byKey[key] = jb
		s.evictJobsLocked()
		s.mu.Unlock()
		s.respondMaybeWait(w, r, jb, submitResponse{ID: jb.ID, Key: key, State: StateQueued})
	default:
		s.m.rejectedBackpressure.Add(1)
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error:      "admission queue full",
			RetryAfter: retry,
		})
	}
}

// respondMaybeWait answers immediately, or — with ?wait=1 — blocks until
// the job is terminal and answers like a cache hit would have.
func (s *Server) respondMaybeWait(w http.ResponseWriter, r *http.Request, jb *Job, resp submitResponse) {
	if r.URL.Query().Get("wait") == "" {
		writeJSON(w, http.StatusAccepted, resp)
		return
	}
	ch, replay, cancel := jb.subscribe()
	defer cancel()
	st := jb.currentState()
	for _, ev := range replay {
		if ev.State != "" {
			st = ev.State
		}
	}
	for !st.Terminal() {
		select {
		case ev := <-ch:
			if ev.State != "" {
				st = ev.State
			}
		case <-r.Context().Done():
			writeJSON(w, http.StatusAccepted, resp)
			return
		}
	}
	snap := jb.snapshot()
	resp.State = snap.State
	resp.Error = snap.Error
	resp.Result = jb.resultBytes()
	code := http.StatusOK
	if snap.State != StateDone {
		code = http.StatusUnprocessableEntity
	}
	writeJSON(w, code, resp)
}

func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	return jb, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such job"})
		return
	}
	type statusWithResult struct {
		JobStatus
		Result json.RawMessage `json:"result,omitempty"`
	}
	writeJSON(w, http.StatusOK, statusWithResult{JobStatus: jb.snapshot(), Result: jb.resultBytes()})
}

// handleResult serves the stored canonical result bytes verbatim — the
// byte-identical-to-ppfsim guarantee lives here.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such job"})
		return
	}
	b := jb.resultBytes()
	if b == nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: fmt.Sprintf("job is %s, not done", jb.currentState())})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such job"})
		return
	}
	if jb.currentState() != StateQueued {
		writeJSON(w, http.StatusConflict, errorResponse{Error: "only queued jobs can be cancelled"})
		return
	}
	s.finishJob(jb, StateRejected, "cancelled by client")
	writeJSON(w, http.StatusOK, jb.snapshot())
}

// handleCacheGet serves the raw cached bytes for a content key — the peer
// half of the cluster's peer-fill protocol. A hit refreshes LRU recency.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	b, ok := s.CacheGet(r.PathValue("key"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no cached result for that key"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// handleCachePut inserts externally produced canonical bytes under a
// content key. The cluster coordinator uses it to replicate results and to
// fill a newly-responsible worker from the previous owner, so rebalancing
// never re-runs a sweep.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if len(key) != 64 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "key must be a hex SHA-256 content address"})
		return
	}
	b, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil || len(b) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty or unreadable body"})
		return
	}
	s.CachePut(key, b)
	s.m.cacheFills.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// CacheGet returns the cached canonical bytes for a content key, if
// present, refreshing its LRU recency.
func (s *Server) CacheGet(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cacheGetLocked(key)
	if !ok {
		return nil, false
	}
	return e.bytes, true
}

// CachePut inserts canonical bytes under a content key (first write wins).
func (s *Server) CachePut(key string, b []byte) {
	s.mu.Lock()
	s.cachePutLocked(key, b, "")
	s.mu.Unlock()
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"benchmarks": workloads.MenuNames(),
		"schemes":    harness.SchemeNames(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.m.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders every server counter plus the suite memo counters
// and the merged per-run simulator registries as "name value" lines.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.mu.Lock()
	queueDepth := len(s.queue)
	cacheEntries := s.cacheLRU.Len()
	cacheBytes := s.cacheBytes
	s.mu.Unlock()
	memoHits, memoMisses := s.suite.MemoStats()
	drain := int64(0)
	if s.m.draining.Load() {
		drain = 1
	}
	for _, kv := range []struct {
		name string
		v    int64
	}{
		{"ppfserve_jobs_submitted", s.m.submitted.Load()},
		{"ppfserve_jobs_completed", s.m.completed.Load()},
		{"ppfserve_jobs_failed", s.m.failed.Load()},
		{"ppfserve_jobs_rejected_validation", s.m.rejectedValidation.Load()},
		{"ppfserve_jobs_rejected_backpressure", s.m.rejectedBackpressure.Load()},
		{"ppfserve_jobs_rejected_draining", s.m.rejectedDraining.Load()},
		{"ppfserve_jobs_deduped", s.m.deduped.Load()},
		{"ppfserve_jobs_inflight", s.m.inflight.Load()},
		{"ppfserve_cache_hits", s.m.cacheHits.Load()},
		{"ppfserve_cache_misses", s.m.cacheMisses.Load()},
		{"ppfserve_cache_evictions", s.m.cacheEvictions.Load()},
		{"ppfserve_cache_fills", s.m.cacheFills.Load()},
		{"ppfserve_cache_entries", int64(cacheEntries)},
		{"ppfserve_cache_bytes", cacheBytes},
		{"ppfserve_queue_depth", int64(queueDepth)},
		{"ppfserve_queue_capacity", int64(s.cfg.QueueDepth)},
		{"ppfserve_workers", int64(s.cfg.Workers)},
		{"ppfserve_draining", drain},
		{"ppfserve_memo_hits", memoHits},
		{"ppfserve_memo_misses", memoMisses},
	} {
		fmt.Fprintf(w, "%s %d\n", kv.name, kv.v)
	}
	s.sim.writeTo(w)
}

// evictJobsLocked trims terminal jobs beyond the history cap, oldest first.
// Callers hold s.mu.
func (s *Server) evictJobsLocked() {
	for len(s.jobOrder) > s.cfg.JobHistory {
		evicted := false
		for i, id := range s.jobOrder {
			jb := s.jobs[id]
			if jb != nil && !jb.currentState().Terminal() {
				continue
			}
			delete(s.jobs, id)
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			return // everything live; cap is soft in that case
		}
	}
}

// cacheGetLocked looks a key up and refreshes its recency. Callers hold s.mu.
func (s *Server) cacheGetLocked(key string) (*cacheEntry, bool) {
	el, ok := s.cache[key]
	if !ok {
		return nil, false
	}
	s.cacheLRU.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// cachePutLocked inserts an entry (first write wins) and evicts LRU-last
// past the entry and byte caps. A single entry above the byte cap stays
// resident rather than thrashing. Callers hold s.mu.
func (s *Server) cachePutLocked(key string, b []byte, jobID string) {
	if el, ok := s.cache[key]; ok {
		s.cacheLRU.MoveToFront(el)
		return
	}
	el := s.cacheLRU.PushFront(&cacheEntry{key: key, bytes: b, jobID: jobID})
	s.cache[key] = el
	s.cacheBytes += int64(len(b))
	for s.cacheLRU.Len() > 1 &&
		(s.cacheLRU.Len() > s.cfg.CacheEntries || s.cacheBytes > s.cfg.CacheBytes) {
		back := s.cacheLRU.Back()
		e := back.Value.(*cacheEntry)
		s.cacheLRU.Remove(back)
		delete(s.cache, e.key)
		s.cacheBytes -= int64(len(e.bytes))
		s.m.cacheEvictions.Add(1)
	}
}

// storeResult publishes a completed job's canonical bytes into the
// content-addressed cache.
func (s *Server) storeResult(jb *Job, b []byte) {
	s.mu.Lock()
	s.cachePutLocked(jb.Key, b, jb.ID)
	delete(s.byKey, jb.Key)
	s.mu.Unlock()
}
