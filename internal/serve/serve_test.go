package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"openmxsim/internal/cliflag"
	"openmxsim/internal/sweep"
	"openmxsim/internal/tune"
)

// testGrid is the small differential workload: 2 strategies x 3 delays
// x 2 sizes = 12 points, a few ms of simulation.
var testGrid = SweepRequest{
	Strategies: "timeout,openmx",
	Delays:     "0:30:15",
	Sizes:      "1,128",
	Iters:      5,
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		if err := s.Drain(10 * time.Second); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url, client string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Omx-Client", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func submit(t *testing.T, ts *httptest.Server, path, client string, body any, wantCode int) JobStatus {
	t.Helper()
	resp, b := postJSON(t, ts.URL+path, client, body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s = %d, want %d (body %s)", path, resp.StatusCode, wantCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("bad status body %q: %v", b, err)
	}
	return st
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, b := getBody(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s = %d (%s)", id, resp.StatusCode, b)
		}
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("bad status body %q: %v", b, err)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// enqueueRaw plants a hand-built job, bypassing the HTTP submission
// path — the white-box lever for occupying the executor deterministically.
func enqueueRaw(t *testing.T, s *Server, client, key string, run runFunc) *Job {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.newJobLocked("sweep", client, key, run)
	select {
	case s.queue <- j:
		s.perClient[client]++
		j.slotHeld = true
	default:
		t.Fatal("test queue unexpectedly full")
	}
	return j
}

func offlineSweepBytes(t *testing.T, req SweepRequest) []byte {
	t.Helper()
	grid, err := req.Grid()
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	rs, err := sweep.Run(grid, 0)
	if err != nil {
		t.Fatalf("offline sweep: %v", err)
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatalf("offline marshal: %v", err)
	}
	return buf.Bytes()
}

// TestServerSweepDifferential is the headline contract: the service and
// the offline path produce byte-identical output for the same request —
// fresh execution, cache hit, and re-execution after cache corruption.
func TestServerSweepDifferential(t *testing.T) {
	cache := openTestCache(t)
	_, ts := newTestServer(t, Config{Cache: cache})
	want := offlineSweepBytes(t, testGrid)

	st := submit(t, ts, "/v1/sweep", "diff", testGrid, http.StatusAccepted)
	if st.Cached {
		t.Fatal("first submission claimed a cache hit")
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Points != bytes.Count(want, []byte(`"index"`)) {
		t.Fatalf("streamed %d points, offline grid has %d", fin.Points, bytes.Count(want, []byte(`"index"`)))
	}
	resp, got := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d (%s)", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("server result differs from offline run:\nserver %d bytes\noffline %d bytes", len(got), len(want))
	}

	// Same request again: born done from the cache, same bytes.
	st2 := submit(t, ts, "/v1/sweep", "diff", testGrid, http.StatusOK)
	if !st2.Cached || st2.State != JobDone {
		t.Fatalf("repeat submission: cached=%v state=%s, want cache-hit done", st2.Cached, st2.State)
	}
	_, got2 := getBody(t, ts.URL+"/v1/jobs/"+st2.ID+"/result")
	if !bytes.Equal(got2, want) {
		t.Fatal("cache hit not byte-identical to fresh execution")
	}

	// Corrupt the entry on disk: next submission must fall back to
	// re-execution and still match.
	corruptEntry(t, cache, st.CacheKey, func(raw []byte) []byte { return raw[:len(raw)-1] })
	st3 := submit(t, ts, "/v1/sweep", "diff", testGrid, http.StatusAccepted)
	if st3.Cached {
		t.Fatal("corrupt entry served as a cache hit")
	}
	fin3 := waitTerminal(t, ts, st3.ID)
	if fin3.State != JobDone {
		t.Fatalf("fallback re-execution finished %s (%s)", fin3.State, fin3.Error)
	}
	_, got3 := getBody(t, ts.URL+"/v1/jobs/"+st3.ID+"/result")
	if !bytes.Equal(got3, want) {
		t.Fatal("re-execution after corruption not byte-identical")
	}
	if cache.Stats().Quarantined == 0 {
		t.Fatal("corruption left no quarantine trace")
	}
}

// TestServerTuneDifferential: same contract for the search executor.
// TestTuneRequestSizeDefaultsLikeCLI: a tune body without "size" must
// tune the same 128-byte workload as omxtune without -size, so the two
// front ends produce the same bytes for the same flags.
func TestTuneRequestSizeDefaultsLikeCLI(t *testing.T) {
	spec, err := TuneRequest{}.Spec()
	if err != nil || spec.Size != 128 {
		t.Fatalf("TuneRequest{}.Spec() size = %d, %v; want 128 like omxtune -size", spec.Size, err)
	}
	spec, err = TuneRequest{Size: 4096}.Spec()
	if err != nil || spec.Size != 4096 {
		t.Fatalf("explicit size = %d, %v; want 4096", spec.Size, err)
	}
}

func TestServerTuneDifferential(t *testing.T) {
	req := TuneRequest{
		Strategies: "timeout,openmx",
		Delays:     "0:60:30",
		Budget:     6,
		Iters:      4,
	}
	spec, err := req.Spec()
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	out, err := tune.Search(spec)
	if err != nil {
		t.Fatalf("offline tune: %v", err)
	}
	var wantBuf bytes.Buffer
	if err := out.WriteJSON(&wantBuf); err != nil {
		t.Fatalf("offline marshal: %v", err)
	}
	want := wantBuf.Bytes()

	_, ts := newTestServer(t, Config{Cache: openTestCache(t)})
	st := submit(t, ts, "/v1/tune", "tuner", req, http.StatusAccepted)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("tune job finished %s (%s)", fin.State, fin.Error)
	}
	_, got := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if !bytes.Equal(got, want) {
		t.Fatal("server tune result differs from offline tune.Search")
	}
	st2 := submit(t, ts, "/v1/tune", "tuner", req, http.StatusOK)
	if !st2.Cached {
		t.Fatal("repeat tune not served from cache")
	}
	_, got2 := getBody(t, ts.URL+"/v1/jobs/"+st2.ID+"/result")
	if !bytes.Equal(got2, want) {
		t.Fatal("cached tune result not byte-identical")
	}
}

// TestServerShedsWhenQueueFull: with the executor pinned and the queue
// full, further submissions get 429 + Retry-After and leave no job
// behind — bounded memory under overload.
func TestServerShedsWhenQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxQueue: 1, MaxPerClient: 10})
	block := make(chan struct{})
	defer func() { close(block) }()
	enqueueRaw(t, s, "pin", "pin-key", func(ctx context.Context, obs sweep.Observer) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return []byte("{}\n"), nil
	})
	// Give the executor a moment to dequeue the pin job.
	waitRunning(t, s, "j1")

	submit(t, ts, "/v1/sweep", "c1", testGrid, http.StatusAccepted) // fills the 1-slot queue
	resp, body := postJSON(t, ts.URL+"/v1/sweep", "c2", testGrid)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submission = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After")
	}
	if n := s.MetricsSnapshot().ShedQueueFull; n != 1 {
		t.Fatalf("shed_queue_full = %d, want 1", n)
	}
	// The shed job left no record: exactly pin + queued remain.
	if got := len(s.MetricsSnapshot().Jobs); got != 2 {
		resp, b := getBody(t, ts.URL+"/v1/jobs")
		t.Fatalf("job table has %d states (%d: %s)", got, resp.StatusCode, b)
	}
}

func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		j := s.jobs[id]
		running := j != nil && j.state == JobRunning
		s.mu.Unlock()
		if running {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// TestServerPerClientCap: one client at its cap is shed with 429 while
// another client is still admitted.
func TestServerPerClientCap(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxQueue: 8, MaxPerClient: 1})
	block := make(chan struct{})
	defer func() { close(block) }()
	enqueueRaw(t, s, "pin", "pin-key", func(ctx context.Context, obs sweep.Observer) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return []byte("{}\n"), nil
	})
	waitRunning(t, s, "j1")

	submit(t, ts, "/v1/sweep", "greedy", testGrid, http.StatusAccepted)
	resp, _ := postJSON(t, ts.URL+"/v1/sweep", "greedy", testGrid)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submission = %d, want 429", resp.StatusCode)
	}
	submit(t, ts, "/v1/sweep", "patient", testGrid, http.StatusAccepted)
	if n := s.MetricsSnapshot().ShedClientCap; n != 1 {
		t.Fatalf("shed_client_cap = %d, want 1", n)
	}
}

// TestServerCancelRunningJob: DELETE on a running job cancels at the
// seam and the status says a client asked for it — not a wedge, not a
// failure.
func TestServerCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	j := enqueueRaw(t, s, "c", "cancel-key", func(ctx context.Context, obs sweep.Observer) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	waitRunning(t, s, j.ID)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, ts, j.ID)
	if fin.State != JobCancelled {
		t.Fatalf("state = %s (%s), want cancelled", fin.State, fin.Error)
	}
	if !strings.Contains(fin.Error, "cancelled by client") {
		t.Fatalf("cancel cause lost: %q", fin.Error)
	}
}

// TestServerJobTimeout: a job outliving its deadline fails (it would
// fail again identically), and the error names the deadline.
func TestServerJobTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{JobTimeout: 20 * time.Millisecond})
	j := enqueueRaw(t, s, "c", "slow-key", func(ctx context.Context, obs sweep.Observer) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	fin := waitTerminal(t, ts, j.ID)
	if fin.State != JobFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("state = %s (%q), want failed with deadline message", fin.State, fin.Error)
	}
}

// TestServerPanicIsolation: a panicking job fails alone; the executor
// survives and the next job runs to completion.
func TestServerPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	j := enqueueRaw(t, s, "c", "panic-key", func(ctx context.Context, obs sweep.Observer) ([]byte, error) {
		panic("synthetic executor bug")
	})
	fin := waitTerminal(t, ts, j.ID)
	if fin.State != JobFailed || !strings.Contains(fin.Error, "job panicked") {
		t.Fatalf("state = %s (%q), want failed via panic isolation", fin.State, fin.Error)
	}
	if n := s.MetricsSnapshot().Panics; n != 1 {
		t.Fatalf("panics counter = %d, want 1", n)
	}
	st := submit(t, ts, "/v1/sweep", "c", testGrid, http.StatusAccepted)
	if fin := waitTerminal(t, ts, st.ID); fin.State != JobDone {
		t.Fatalf("job after panic finished %s — executor did not survive", fin.State)
	}
}

// TestServerFailedJobRunsOnce: a job whose run returns an error ends
// failed, carrying the error, after exactly one run — the executors are
// deterministic, so re-running the same spec would fail the same way.
func TestServerFailedJobRunsOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	runs := 0
	j := enqueueRaw(t, s, "c", "perm-key", func(ctx context.Context, obs sweep.Observer) ([]byte, error) {
		runs++ // executor goroutine only; read after the terminal state
		return nil, fmt.Errorf("deterministic failure")
	})
	fin := waitTerminal(t, ts, j.ID)
	if fin.State != JobFailed || !strings.Contains(fin.Error, "deterministic failure") {
		t.Fatalf("state = %s (%q), want failed carrying the run's error", fin.State, fin.Error)
	}
	if runs != 1 {
		t.Fatalf("run function called %d times, want 1", runs)
	}
}

// TestServerOversizedGridFails: a 400 KB body whose sizes and seeds each
// repeat 100,000 values names 10^10 points. The job must end failed with
// the sweep's point cap, and the server must keep serving.
func TestServerOversizedGridFails(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ones := strings.TrimSuffix(strings.Repeat("1,", 100_000), ",")
	st := submit(t, ts, "/v1/sweep", "big", SweepRequest{Sizes: ones, Seeds: ones}, http.StatusAccepted)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != JobFailed || !strings.Contains(fin.Error, "want at most 65536") {
		t.Fatalf("state = %s (%q), want failed carrying the point cap", fin.State, fin.Error)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d after the oversized job", resp.StatusCode)
	}
}

// TestServerStreamNDJSON: /stream delivers every point as NDJSON and a
// terminal end event; the point count and telemetry fields match the
// final result body.
func TestServerStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submit(t, ts, "/v1/sweep", "streamer", testGrid, http.StatusAccepted)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	points := 0
	sawEnd := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "point":
			if ev.Result == nil {
				t.Fatal("point event without a result")
			}
			points++
		case "end":
			sawEnd = true
			if ev.State != JobDone {
				t.Fatalf("end state = %s (%s)", ev.State, ev.Error)
			}
		default:
			t.Fatalf("unknown event type %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	grid, _ := testGrid.Grid()
	if !sawEnd || points != grid.Size() {
		t.Fatalf("stream saw %d points, end=%v; want %d points and an end event", points, sawEnd, grid.Size())
	}
}

// TestServerDrain: SIGTERM semantics — running work finishes, queued
// work is cancelled, submissions and readiness reflect the drain.
func TestServerDrain(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	block := make(chan struct{})
	j := enqueueRaw(t, s, "c", "drain-key", func(ctx context.Context, obs sweep.Observer) ([]byte, error) {
		select {
		case <-block:
			return []byte("{}\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	waitRunning(t, s, j.ID)
	queued := enqueueRaw(t, s, "c", "queued-key", func(ctx context.Context, obs sweep.Observer) ([]byte, error) {
		return []byte("{}\n"), nil
	})

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(10 * time.Second) }()
	waitDraining(t, s)

	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/sweep", "late", testGrid); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining = %d, want 503", resp.StatusCode)
	}

	close(block) // let the running job finish
	if err := <-drainErr; err != nil {
		t.Fatalf("drain was not clean: %v", err)
	}
	fin := waitTerminal(t, ts, j.ID)
	if fin.State != JobDone {
		t.Fatalf("running job drained as %s, want done (drain must finish running work)", fin.State)
	}
	finq := waitTerminal(t, ts, queued.ID)
	if finq.State != JobCancelled || !strings.Contains(finq.Error, "draining") {
		t.Fatalf("queued job drained as %s (%q), want cancelled by drain", finq.State, finq.Error)
	}
}

func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		d := s.draining
		s.mu.Unlock()
		if d {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never entered draining state")
}

// TestServerDrainDeadlineForcesCancel: a wedged-forever job cannot hold
// the drain hostage; past the deadline it is cancelled at the seam and
// Drain reports the forced exit.
func TestServerDrainDeadlineForcesCancel(t *testing.T) {
	s := New(Config{})
	j := enqueueRaw(t, s, "c", "stuck-key", func(ctx context.Context, obs sweep.Observer) ([]byte, error) {
		<-ctx.Done() // honors the seam, but never finishes on its own
		return nil, ctx.Err()
	})
	waitRunning(t, s, j.ID)
	err := s.Drain(20 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("Drain = %v, want deadline-exceeded error", err)
	}
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	if state != JobCancelled {
		t.Fatalf("forced job state = %s, want cancelled", state)
	}
}

// TestServerHealthAndMetrics: the liveness/readiness/counters surface.
func TestServerHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Cache: openTestCache(t)})
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}
	st := submit(t, ts, "/v1/sweep", "m", testGrid, http.StatusAccepted)
	waitTerminal(t, ts, st.ID)
	resp, b := getBody(t, ts.URL+"/metricz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz = %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("bad metricz body: %v", err)
	}
	if m.Submitted != 1 || m.QueueCapacity == 0 {
		t.Fatalf("metrics = %+v, want 1 submitted and a queue capacity", m)
	}
	if m.Cache.Puts != 1 {
		t.Fatalf("cache puts = %d, want 1 (finished job must commit)", m.Cache.Puts)
	}
}

// TestServerRejectsBadRequests: parse errors are 400s with the axis
// vocabulary's own message, and unknown fields are refused (a typo'd
// axis must not silently become the default).
func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", "c", map[string]string{"strategies": "warp-drive"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy = %d (%s), want 400", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sweep", "c", map[string]any{"strategeis": "timeout"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typo'd field = %d, want 400", resp.StatusCode)
	}
	resp, _ = getBody(t, ts.URL+"/v1/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestGridSpecServerMatchesCLIVocabulary pins that the server accepts
// exactly the omxsweep axis spellings — the shared-vocabulary satellite.
func TestGridSpecServerMatchesCLIVocabulary(t *testing.T) {
	req := SweepRequest{
		Strategies: "disabled,timeout,openmx,stream",
		Delays:     "0:100:25",
		Sizes:      "1,128,4096",
		IRQ:        "round-robin,single-core",
		Queues:     "1,4",
		Seeds:      "1,2",
		Iters:      3,
	}
	var viaServer cliflag.GridSpec = req // same type by construction
	g1, err := viaServer.Grid()
	if err != nil {
		t.Fatalf("server-side parse failed on CLI vocabulary: %v", err)
	}
	if g1.Size() == 0 {
		t.Fatal("parsed grid is empty")
	}
}
