package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"eventpf/internal/harness"
)

const testScale = 0.02

func postJob(t *testing.T, url string, spec harness.JobSpec, query string) (*http.Response, submitResponse) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp, sr
}

func scrapeMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var name string
		var v int64
		if _, err := fmt.Sscanf(sc.Text(), "%s %d", &name, &v); err == nil {
			m[name] = v
		}
	}
	return m
}

// waitState polls until the job reaches want (or any terminal state).
func waitState(t *testing.T, jb *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := jb.currentState()
		if st == want {
			return
		}
		if st.Terminal() {
			t.Fatalf("job reached terminal state %s while waiting for %s", st, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for state %s (at %s)", want, jb.currentState())
}

// TestSubmitCacheHitAndDeterminism is the end-to-end acceptance path: a
// real (small) simulation through the full HTTP stack, a second submission
// served from the content-addressed cache without re-simulating, and the
// served bytes byte-identical to what ppfsim -json prints for the config.
func TestSubmitCacheHitAndDeterminism(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, ProgressEvery: 1000})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	spec := harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: testScale}
	resp, sr := postJob(t, hs.URL, spec, "?wait=1")
	if resp.StatusCode != http.StatusOK || sr.State != StateDone || sr.Cached {
		t.Fatalf("first submit: status=%d state=%s cached=%v err=%q", resp.StatusCode, sr.State, sr.Cached, sr.Error)
	}
	if len(sr.Result) == 0 {
		t.Fatal("first submit returned no result")
	}

	// Same config, different spelling: must be a cache hit on the same key.
	resp2, sr2 := postJob(t, hs.URL, harness.JobSpec{Bench: "hj2", Scheme: "stride", Scale: testScale}, "")
	if resp2.StatusCode != http.StatusOK || !sr2.Cached || sr2.Key != sr.Key {
		t.Fatalf("second submit: status=%d cached=%v key=%s (want hit on %s)", resp2.StatusCode, sr2.Cached, sr2.Key, sr.Key)
	}

	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_cache_hits"] != 1 || m["ppfserve_cache_misses"] != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", m["ppfserve_cache_hits"], m["ppfserve_cache_misses"])
	}
	if m["ppfserve_memo_misses"] != 1 {
		t.Errorf("memo misses = %d, want 1 (exactly one simulation)", m["ppfserve_memo_misses"])
	}
	if _, ok := m["sim_core_ops"]; len(srv.sim.reg.Counters()) > 0 && !ok {
		// The merged sim registry is exposed with a sim_ prefix; which
		// counters exist depends on the machine, so only check the scrape
		// carried some sim_ lines when the aggregate is non-empty.
		found := false
		for k := range m {
			if strings.HasPrefix(k, "sim_") {
				found = true
				break
			}
		}
		if !found {
			t.Error("metrics scrape carried no sim_ lines despite a merged registry")
		}
	}

	// Byte-identical serving: /result must equal EncodeResult of a direct
	// harness run of the same resolved config.
	res, err := http.Get(hs.URL + "/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	if _, err := served.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()

	j, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := harness.Run(j.Bench, j.Scheme, harness.Options{Scale: j.Scale})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := harness.EncodeResult(&want, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), want.Bytes()) {
		t.Errorf("served result differs from direct harness encoding:\nserved: %.120s\ndirect: %.120s",
			served.String(), want.String())
	}
}

func TestValidationErrorsListMenus(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, tc := range []struct {
		spec harness.JobSpec
		want string
	}{
		{harness.JobSpec{Bench: "nope", Scheme: "manual"}, "hj2"},
		// Extra benches must appear in the menu too: the duplicated All/Extra
		// lookup loops once dropped them from the 400 response's list.
		{harness.JobSpec{Bench: "nope", Scheme: "manual"}, "phasemix"},
		{harness.JobSpec{Bench: "nope", Scheme: "manual"}, "spmv"},
		{harness.JobSpec{Bench: "HJ-2", Scheme: "nope"}, "manual-blocked"},
		{harness.JobSpec{Bench: "HJ-2", Scheme: "manual", Scale: 99}, "exceeds"},
	} {
		body, _ := json.Marshal(tc.spec)
		resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", tc.spec, resp.StatusCode)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%+v: body %q does not mention %q", tc.spec, buf.String(), tc.want)
		}
	}
	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_jobs_rejected_validation"] != 5 {
		t.Errorf("rejected_validation = %d, want 5", m["ppfserve_jobs_rejected_validation"])
	}
}

// blockingServer builds a server whose runner blocks until released,
// returning the release function.
func blockingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	srv := NewServer(cfg)
	block := make(chan struct{})
	srv.runJob = func(jb *Job) ([]byte, error) {
		<-block
		return []byte("{\"stub\":true}\n"), nil
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	var once sync.Once
	return srv, hs, func() { once.Do(func() { close(block) }) }
}

// TestBackpressure429 saturates the admission queue and checks the
// explicit-backpressure contract: 429 + Retry-After, no queue growth, no
// goroutine growth.
func TestBackpressure429(t *testing.T) {
	srv, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
	defer release()

	// First job: admitted, popped by the worker, blocks in runJob.
	_, srA := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}, "")
	jbA, ok := srv.lookup(srA.ID)
	if !ok {
		t.Fatal("job A not found")
	}
	waitState(t, jbA, StateRunning)

	// Second job fills the queue.
	respB, _ := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: 0.01}, "")
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: status %d, want 202", respB.StatusCode)
	}

	// Everything beyond is rejected with 429 + Retry-After; goroutines stay
	// bounded (rejections allocate nothing that lives on).
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		resp, _ := postJob(t, hs.URL, harness.JobSpec{Bench: "RandAcc", Scheme: "manual", Scale: 0.01, PPUs: 2 + i%7}, "")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated submit %d: status %d, want 429", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After header")
		}
	}
	runtime.GC()
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Errorf("goroutines grew from %d to %d under saturation", before, after)
	}
	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_jobs_rejected_backpressure"] != 100 {
		t.Errorf("rejected_backpressure = %d, want 100", m["ppfserve_jobs_rejected_backpressure"])
	}
	if m["ppfserve_queue_depth"] != 1 || m["ppfserve_jobs_inflight"] != 1 {
		t.Errorf("queue_depth=%d inflight=%d, want 1/1", m["ppfserve_queue_depth"], m["ppfserve_jobs_inflight"])
	}
	release()
}

// TestInflightDedup: a duplicate of a queued/running job coalesces onto it
// instead of consuming a queue slot.
func TestInflightDedup(t *testing.T) {
	srv, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 4})
	defer release()
	spec := harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}
	_, sr1 := postJob(t, hs.URL, spec, "")
	jb, _ := srv.lookup(sr1.ID)
	waitState(t, jb, StateRunning)
	resp2, sr2 := postJob(t, hs.URL, spec, "")
	if resp2.StatusCode != http.StatusAccepted || !sr2.Dedup || sr2.ID != sr1.ID {
		t.Fatalf("duplicate submit: status=%d dedup=%v id=%s (want %s)", resp2.StatusCode, sr2.Dedup, sr2.ID, sr1.ID)
	}
	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_jobs_deduped"] != 1 {
		t.Errorf("deduped = %d, want 1", m["ppfserve_jobs_deduped"])
	}
}

// TestGracefulShutdown pins the drain contract: the in-flight job
// completes, the queued job is rejected, new submissions get 503, and
// Drain returns.
func TestGracefulShutdown(t *testing.T) {
	srv, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})

	_, srA := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}, "")
	jbA, _ := srv.lookup(srA.ID)
	waitState(t, jbA, StateRunning)
	_, srB := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: 0.01}, "")
	jbB, _ := srv.lookup(srB.ID)

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()

	// New work is refused while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postJob(t, hs.URL, harness.JobSpec{Bench: "RandAcc", Scheme: "no-pf", Scale: 0.01}, "")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions during drain never saw 503 (last status %d)", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}

	release() // let the in-flight job finish
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := jbA.currentState(); st != StateDone {
		t.Errorf("in-flight job ended %s, want done", st)
	}
	if jbA.resultBytes() == nil {
		t.Error("in-flight job lost its result")
	}
	if st := jbB.currentState(); st != StateRejected {
		t.Errorf("queued job ended %s, want rejected", st)
	}
	// Drain is idempotent once drained.
	if err := srv.Drain(context.Background()); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// TestDrainDedup: while draining, a duplicate of a queued job is refused
// with 503 (the drain rejects that job, so coalescing would hand back a
// rejection), while a duplicate of the running job still coalesces onto it.
func TestDrainDedup(t *testing.T) {
	srv, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})

	running := harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}
	queued := harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: 0.01}
	_, srA := postJob(t, hs.URL, running, "")
	jbA, _ := srv.lookup(srA.ID)
	waitState(t, jbA, StateRunning)
	_, srB := postJob(t, hs.URL, queued, "")
	jbB, _ := srv.lookup(srB.ID)

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.m.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never started")
		}
		time.Sleep(time.Millisecond)
	}

	if resp, _ := postJob(t, hs.URL, queued, ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("duplicate of queued job during drain: status %d, want 503", resp.StatusCode)
	}
	resp, sr := postJob(t, hs.URL, running, "")
	if resp.StatusCode != http.StatusAccepted || !sr.Dedup || sr.ID != srA.ID {
		t.Errorf("duplicate of running job during drain: status=%d dedup=%v id=%s (want 202 onto %s)",
			resp.StatusCode, sr.Dedup, sr.ID, srA.ID)
	}

	release()
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := jbB.currentState(); st != StateRejected {
		t.Errorf("queued job ended %s, want rejected", st)
	}
	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_jobs_deduped"] != 1 || m["ppfserve_jobs_rejected_draining"] != 1 {
		t.Errorf("deduped=%d rejected_draining=%d, want 1/1",
			m["ppfserve_jobs_deduped"], m["ppfserve_jobs_rejected_draining"])
	}
}

// TestSignalPolicy: first signal drains gracefully; a second signal while
// the drain hangs forces exit(1).
func TestSignalPolicy(t *testing.T) {
	t.Run("graceful", func(t *testing.T) {
		srv, _, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
		release()
		sigc := make(chan os.Signal, 2)
		exitCode := -1
		shutdownCalled := false
		done := make(chan struct{})
		go func() {
			HandleSignals(srv, sigc, func() { shutdownCalled = true }, func(c int) { exitCode = c })
			close(done)
		}()
		sigc <- syscall.SIGTERM
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("graceful shutdown did not complete")
		}
		if !shutdownCalled || exitCode != -1 {
			t.Errorf("graceful path: shutdown=%v exit=%d, want true/-1", shutdownCalled, exitCode)
		}
	})
	t.Run("forced", func(t *testing.T) {
		srv, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
		defer release()
		// An in-flight blocked job makes the drain hang until released.
		_, sr := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}, "")
		jb, _ := srv.lookup(sr.ID)
		waitState(t, jb, StateRunning)
		sigc := make(chan os.Signal, 2)
		exited := make(chan int, 1)
		done := make(chan struct{})
		go func() {
			HandleSignals(srv, sigc, nil, func(c int) { exited <- c })
			close(done)
		}()
		sigc <- syscall.SIGTERM
		sigc <- syscall.SIGTERM
		select {
		case code := <-exited:
			if code != 1 {
				t.Errorf("forced exit code %d, want 1", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("second signal did not force exit")
		}
		release()
		<-done
	})
}

// TestSSEChainOrder: progress events arrive strictly seq-ordered with the
// lifecycle states in chain order, for both a live subscriber and a late
// one that replays.
func TestSSEChainOrder(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	srv.runJob = func(jb *Job) ([]byte, error) {
		<-gate // hold until the subscriber attached
		for i := 1; i <= 5; i++ {
			jb.Publish(ProgressEvent{State: StateRunning, Phase: "simulating", Events: int64(i * 100)})
		}
		return []byte("{\"stub\":true}\n"), nil
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	_, sr := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}, "")

	check := func(t *testing.T, events []ProgressEvent) {
		t.Helper()
		if len(events) < 4 {
			t.Fatalf("only %d events streamed", len(events))
		}
		for i, ev := range events {
			if ev.Seq != int64(i) {
				t.Fatalf("event %d has seq %d: chain broken (%+v)", i, ev.Seq, events)
			}
		}
		order := map[State]int{StateQueued: 0, StateRunning: 1, StateDone: 2, StateFailed: 2, StateRejected: 2}
		for i := 1; i < len(events); i++ {
			if order[events[i].State] < order[events[i-1].State] {
				t.Fatalf("state went backwards: %s after %s", events[i].State, events[i-1].State)
			}
		}
		if events[0].State != StateQueued {
			t.Errorf("chain starts with %s, want queued", events[0].State)
		}
		if last := events[len(events)-1]; last.State != StateDone {
			t.Errorf("chain ends with %s, want done", last.State)
		}
	}

	// Live subscriber: attach before the job makes progress, then open the gate.
	resp, err := http.Get(hs.URL + "/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	live := readSSE(t, resp)
	check(t, live)

	// Late subscriber: the job is long done; the whole chain replays.
	resp2, err := http.Get(hs.URL + "/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	check(t, readSSE(t, resp2))
}

// readSSE consumes one SSE stream until it closes, returning the data
// payloads in arrival order.
func readSSE(t *testing.T, resp *http.Response) []ProgressEvent {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q, want text/event-stream", ct)
	}
	var events []ProgressEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev ProgressEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, ev)
		}
	}
	return events
}

// TestCancelQueuedJob: DELETE on a queued job rejects it; the worker skips
// it when popped.
func TestCancelQueuedJob(t *testing.T) {
	srv, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})
	defer release()
	_, srA := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}, "")
	jbA, _ := srv.lookup(srA.ID)
	waitState(t, jbA, StateRunning)
	_, srB := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: 0.01}, "")

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+srB.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	jbB, _ := srv.lookup(srB.ID)
	if st := jbB.currentState(); st != StateRejected {
		t.Errorf("cancelled job state %s, want rejected", st)
	}
	// Running jobs cannot be cancelled.
	req, _ = http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+srA.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancelling a running job: status %d, want 409", resp.StatusCode)
	}
	release()
	// The worker must skip the cancelled job and stay healthy: submit one
	// more and see it complete.
	_, srC := postJob(t, hs.URL, harness.JobSpec{Bench: "RandAcc", Scheme: "no-pf", Scale: 0.01}, "")
	jbC, _ := srv.lookup(srC.ID)
	deadline := time.Now().Add(5 * time.Second)
	for jbC.currentState() != StateDone && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if st := jbC.currentState(); st != StateDone {
		t.Errorf("post-cancel job state %s, want done", st)
	}
}

// TestUnsupportedPairFails: the paper's missing bars surface as a failed
// job with a helpful message, not a hung request.
func TestUnsupportedPairFails(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, sr := postJob(t, hs.URL, harness.JobSpec{Bench: "PageRank", Scheme: "software", Scale: 0.01}, "?wait=1")
	if resp.StatusCode != http.StatusUnprocessableEntity || sr.State != StateFailed {
		t.Fatalf("unsupported pair: status=%d state=%s", resp.StatusCode, sr.State)
	}
	if !strings.Contains(sr.Error, "not applicable") {
		t.Errorf("error %q does not explain unsupportedness", sr.Error)
	}
}
