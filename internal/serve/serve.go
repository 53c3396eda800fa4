// Package serve is the simulation-as-a-service control plane: an
// HTTP/JSON front end over the sweep and tune executors, built so that
// robustness is structural rather than incidental.
//
// Four layers:
//
//   - Job supervision: every job runs under its own context (deadline +
//     cancellation, observed only at the executors' between-points seam,
//     so per-point determinism is untouched), with panic isolation. A job
//     ends done, cancelled, or failed; a failed job is never re-run,
//     because the deterministic executors reproduce their own failures.
//   - Graceful degradation: a bounded admission queue sheds overload with
//     429 + Retry-After instead of growing without bound, per-client
//     in-flight caps keep one client from starving the rest, and Drain
//     (SIGTERM) finishes running jobs within a deadline before forcing
//     cancellation at the seam.
//   - Crash-safe persistence: finished results are memoized in the
//     content-addressed Cache (atomic commit, per-entry checksums,
//     startup quarantine scan), so a repeated job is a byte-identical
//     cache hit and a kill -9 at any instant is survivable.
//   - Streaming and health: per-point results and their telemetry stream
//     as NDJSON with client-disconnect handling, and /healthz, /readyz,
//     /metricz expose liveness, readiness, and the queue/shed/panic/cache
//     counters.
//
// The package deliberately lives outside the simulation-visible set:
// its goroutines, clocks, and maps never touch simulation state except
// through the executors' supervised entry points (see the lint-scope
// test in internal/lint).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"openmxsim/internal/cliflag"
	"openmxsim/internal/sweep"
	"openmxsim/internal/tune"
)

// Config shapes a Server. The zero value is usable: no cache, a
// 64-deep queue, 4 in-flight jobs per client, a 10-minute job deadline,
// one executor.
type Config struct {
	// Cache is the shared result cache; nil disables persistence.
	Cache *Cache
	// MaxQueue bounds the admission queue; submissions beyond it are
	// shed with 429 + Retry-After (default 64).
	MaxQueue int
	// MaxPerClient caps one client's queued+running jobs (default 4).
	MaxPerClient int
	// JobTimeout is the per-job deadline (default 10 minutes; < 0 = none).
	JobTimeout time.Duration
	// Workers and Par are handed to the executors (sweep.Run semantics);
	// they shape execution speed, never results.
	Workers, Par int
	// Executors is the number of jobs run concurrently (default 1: many
	// clients share one warm executor; each job parallelizes internally).
	Executors int
	// Log receives supervision events; nil silences them.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxPerClient <= 0 {
		c.MaxPerClient = 4
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.Executors <= 0 {
		c.Executors = 1
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	return c
}

// Server is the control plane. Create with New, expose via ServeHTTP,
// stop with Drain.
type Server struct {
	cfg   Config
	cache *Cache
	mux   *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // executor goroutines

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string // submission order, for listing
	queue     chan *Job
	perClient map[string]int
	nextID    int
	draining  bool

	submittedTotal, shedQueueTotal, shedClientTotal atomic.Uint64
	panicsTotal, cacheHitJobs                       atomic.Uint64
	sampledPoints, seriesSamples                    atomic.Uint64
}

// New builds the server and starts its executors.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     cfg.Cache,
		jobs:      map[string]*Job{},
		queue:     make(chan *Job, cfg.MaxQueue),
		perClient: map[string]int{},
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/tune", s.handleTune)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	for i := 0; i < cfg.Executors; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// Drain is the SIGTERM path: stop admitting (submissions get 503,
// /readyz goes unready), cancel everything still queued, let running
// jobs finish within timeout, then force-cancel the stragglers at the
// between-points seam and wait for them to unwind. Returns nil on a
// clean drain, an error naming the forced jobs otherwise.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state == JobQueued {
			s.finishLocked(j, JobCancelled, nil, "server draining")
		}
	}
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-time.After(timeout):
		forced := s.countByState()[JobRunning]
		s.baseCancel() // running jobs see cancellation at the next point boundary
		<-done
		return fmt.Errorf("serve: drain deadline %v exceeded; cancelled %d running job(s)", timeout, forced)
	}
}

// ---- submission -----------------------------------------------------

// SweepRequest is the sweep-job wire form: exactly the omxsweep axis
// vocabulary (cliflag.GridSpec), so a job POSTed here and a sweep run
// offline are the same grid by construction.
type SweepRequest = cliflag.GridSpec

// TuneRequest is the tune-job wire form, mirroring omxtune's flags.
// Zero fields mean the same defaults the CLI uses.
type TuneRequest struct {
	Size       int     `json:"size,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`
	Bg         int     `json:"bg,omitempty"`
	Iters      int     `json:"iters,omitempty"`
	Rate       bool    `json:"rate,omitempty"`
	Strategies string  `json:"strategies,omitempty"`
	Delays     string  `json:"delays,omitempty"`
	Budget     int     `json:"budget,omitempty"`
	Weight     float64 `json:"weight,omitempty"`
	Drop       float64 `json:"drop,omitempty"`
	Burst      float64 `json:"burst,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
}

// Spec parses the request into a tune.Spec (execution knobs unset; the
// server fills those at run time).
func (r TuneRequest) Spec() (tune.Spec, error) {
	spec := tune.Spec{
		Size:          r.Size,
		Nodes:         r.Nodes,
		BgStreams:     r.Bg,
		Iters:         r.Iters,
		Rate:          r.Rate,
		MaxEvals:      r.Budget,
		LatencyWeight: r.Weight,
		DropProb:      r.Drop,
		Burst:         r.Burst,
		Seed:          r.Seed,
	}
	if spec.Size == 0 {
		spec.Size = 128 // omxtune's -size default; tune.Spec reads 0 as 0 bytes
	}
	var err error
	if spec.Strategies, err = cliflag.Strategies(r.Strategies); err != nil {
		return spec, err
	}
	if spec.Delays, err = cliflag.Delays(r.Delays); err != nil {
		return spec, err
	}
	return spec, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	grid, err := req.Grid()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := s.cache.Key("sweep", grid.Canonical())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	grid.Par = s.cfg.Par
	run := func(ctx context.Context, obs sweep.Observer) ([]byte, error) {
		rs, err := sweep.RunContext(ctx, grid, s.cfg.Workers, obs)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := rs.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	s.admit(w, r, "sweep", key, run, decodeSweepPoints)
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req TuneRequest
	if err := decodeBody(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, err := req.Spec()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := s.cache.Key("tune", spec.Canonical())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	run := func(ctx context.Context, obs sweep.Observer) ([]byte, error) {
		sp := spec
		sp.Workers, sp.Par, sp.Observer = s.cfg.Workers, s.cfg.Par, obs
		out, err := tune.SearchContext(ctx, sp)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := out.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	s.admit(w, r, "tune", key, run, decodeTunePoints)
}

// admit is the degradation gate: cache hit → job born done; draining →
// 503; client over its cap → 429; queue full → 429 + Retry-After. The
// pointDecoder rebuilds the streamable per-point log from a cached
// payload so /stream replays identically for hits and fresh runs.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, kind, key string, run runFunc, decode func([]byte) []sweep.Result) {
	client := clientID(r)
	if payload, ok := s.cache.Get(key); ok {
		s.cacheHitJobs.Add(1)
		j := s.newJob(kind, client, key, run)
		s.mu.Lock()
		j.cacheHit = true
		j.points = decode(payload)
		s.finishLocked(j, JobDone, payload, "")
		status := s.statusLocked(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, status)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	if s.perClient[client] >= s.cfg.MaxPerClient {
		s.mu.Unlock()
		s.shedClientTotal.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, fmt.Sprintf("client %q at its in-flight cap (%d)", client, s.cfg.MaxPerClient))
		return
	}
	j := s.newJobLocked(kind, client, key, run)
	select {
	case s.queue <- j:
		s.perClient[client]++
		j.slotHeld = true
		s.submittedTotal.Add(1)
		status := s.statusLocked(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, status)
	default:
		// Queue full: forget the job ever existed and shed. The queue is
		// the only job memory, so server memory stays bounded by
		// MaxQueue + running, whatever the arrival rate.
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		s.shedQueueTotal.Add(1)
		w.Header().Set("Retry-After", "2")
		httpError(w, http.StatusTooManyRequests, fmt.Sprintf("admission queue full (%d jobs)", s.cfg.MaxQueue))
	}
}

func (s *Server) newJob(kind, client, key string, run runFunc) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newJobLocked(kind, client, key, run)
}

func (s *Server) newJobLocked(kind, client, key string, run runFunc) *Job {
	s.nextID++
	j := &Job{
		ID:        fmt.Sprintf("j%d", s.nextID),
		Kind:      kind,
		Client:    client,
		Key:       key,
		run:       run,
		state:     JobQueued,
		updated:   make(chan struct{}),
		submitted: time.Now(),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	return j
}

// decodeSweepPoints rebuilds the per-point log from a cached sweep
// payload (best effort: a failure just means an empty replay).
func decodeSweepPoints(payload []byte) []sweep.Result {
	var rs []sweep.Result
	if json.Unmarshal(payload, &rs) != nil {
		return nil
	}
	return rs
}

// decodeTunePoints rebuilds the evaluated-point log from a cached tune
// payload.
func decodeTunePoints(payload []byte) []sweep.Result {
	var out struct {
		Evaluated []sweep.Result `json:"evaluated"`
	}
	if json.Unmarshal(payload, &out) != nil {
		return nil
	}
	return out.Evaluated
}

// ---- job state under s.mu -------------------------------------------

// jobContext transitions a dequeued job to running and builds its
// supervision context. Returns nil when the job was cancelled while
// queued (drain or client cancel) — the executor just skips it.
func (s *Server) jobContext(j *Job) (context.Context, context.CancelCauseFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != JobQueued {
		return nil, nil
	}
	j.state = JobRunning
	s.bumpLocked(j)
	ctx, cancelCause := context.WithCancelCause(s.baseCtx)
	j.cancel = cancelCause
	if s.cfg.JobTimeout > 0 {
		tctx, tcancel := context.WithTimeout(ctx, s.cfg.JobTimeout)
		return tctx, func(cause error) { tcancel(); cancelCause(cause) }
	}
	return ctx, cancelCause
}

func (s *Server) appendPoint(j *Job, r sweep.Result) {
	if n := len(r.Series); n > 0 {
		s.sampledPoints.Add(1)
		s.seriesSamples.Add(uint64(n))
	}
	s.mu.Lock()
	j.points = append(j.points, r)
	s.bumpLocked(j)
	s.mu.Unlock()
}

func (s *Server) finishJob(j *Job, state JobState, payload []byte, errMsg string) {
	s.mu.Lock()
	s.finishLocked(j, state, payload, errMsg)
	s.mu.Unlock()
}

func (s *Server) finishLocked(j *Job, state JobState, payload []byte, errMsg string) {
	if j.state.terminal() {
		return
	}
	j.state = state
	j.result = payload
	j.err = errMsg
	j.finished = time.Now()
	if j.slotHeld {
		j.slotHeld = false
		if s.perClient[j.Client]--; s.perClient[j.Client] <= 0 {
			delete(s.perClient, j.Client)
		}
	}
	s.bumpLocked(j)
	s.logf("job %s (%s, client %s): %s%s", j.ID, j.Kind, j.Client, state, suffixIf(errMsg))
}

func suffixIf(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// bumpLocked wakes every watcher of j (stream handlers, pollers).
func (s *Server) bumpLocked(j *Job) {
	close(j.updated)
	j.updated = make(chan struct{})
}

func (s *Server) statusLocked(j *Job) JobStatus {
	return JobStatus{
		ID:       j.ID,
		Kind:     j.Kind,
		State:    j.state,
		CacheKey: j.Key,
		Cached:   j.cacheHit,
		Points:   len(j.points),
		Error:    j.err,
	}
}

func (s *Server) countByState() map[JobState]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := map[JobState]int{}
	for _, j := range s.jobs {
		counts[j.state]++
	}
	return counts
}

// ---- read-side handlers ---------------------------------------------

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
	}
	return j
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		list = append(list, s.statusLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	status := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	switch {
	case j.state == JobQueued:
		s.finishLocked(j, JobCancelled, nil, "cancelled by client")
	case j.state == JobRunning && j.cancel != nil:
		// The executor observes the cancellation at the next point
		// boundary and finishes the job as cancelled.
		j.cancel(fmt.Errorf("cancelled by client"))
	}
	status := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, payload, errMsg := j.state, j.result, j.err
	s.mu.Unlock()
	switch state {
	case JobDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(payload)
	case JobFailed:
		httpError(w, http.StatusBadGateway, errMsg)
	case JobCancelled:
		httpError(w, http.StatusGone, "job cancelled"+suffixIf(errMsg))
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusConflict, fmt.Sprintf("job is %s; retry when done", state))
	}
}

// streamEvent is one NDJSON line of /stream: a per-point result (with
// its telemetry riding in the result fields — feedback_steps, retransmit
// and backoff counters) or the terminal end marker.
type streamEvent struct {
	Type   string        `json:"type"` // "point" | "end"
	Job    string        `json:"job"`
	Result *sweep.Result `json:"result,omitempty"`
	State  JobState      `json:"state,omitempty"`
	Cached bool          `json:"cached,omitempty"`
	Error  string        `json:"error,omitempty"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	for {
		s.mu.Lock()
		fresh := append([]sweep.Result(nil), j.points[sent:]...)
		state, errMsg, cached := j.state, j.err, j.cacheHit
		updated := j.updated
		s.mu.Unlock()

		for i := range fresh {
			if err := enc.Encode(streamEvent{Type: "point", Job: j.ID, Result: &fresh[i]}); err != nil {
				return // client went away mid-line; the job runs on
			}
		}
		sent += len(fresh)
		if state.terminal() {
			enc.Encode(streamEvent{Type: "end", Job: j.ID, State: state, Cached: cached, Error: errMsg})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return // client disconnected; never cancels the job
		}
	}
}

// ---- health ----------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	depth := len(s.queue)
	s.mu.Unlock()
	switch {
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
	case depth >= s.cfg.MaxQueue:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "queue full"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	}
}

// Metrics is the /metricz payload.
type Metrics struct {
	Jobs          map[JobState]int `json:"jobs"`
	QueueDepth    int              `json:"queue_depth"`
	QueueCapacity int              `json:"queue_capacity"`
	Submitted     uint64           `json:"submitted"`
	ShedQueueFull uint64           `json:"shed_queue_full"`
	ShedClientCap uint64           `json:"shed_client_cap"`
	Panics        uint64           `json:"panics"`
	CacheHitJobs  uint64           `json:"cache_hit_jobs"`
	// SampledPoints counts streamed results that carried a sampled metric
	// series; SeriesSamples totals the samples across them. Both move only
	// when clients submit grids with "sample" set.
	SampledPoints uint64     `json:"sampled_points"`
	SeriesSamples uint64     `json:"series_samples"`
	Draining      bool       `json:"draining"`
	Cache         CacheStats `json:"cache"`
}

// MetricsSnapshot returns the current counters (the /metricz body).
func (s *Server) MetricsSnapshot() Metrics {
	m := Metrics{
		Jobs:          s.countByState(),
		QueueCapacity: s.cfg.MaxQueue,
		Submitted:     s.submittedTotal.Load(),
		ShedQueueFull: s.shedQueueTotal.Load(),
		ShedClientCap: s.shedClientTotal.Load(),
		Panics:        s.panicsTotal.Load(),
		CacheHitJobs:  s.cacheHitJobs.Load(),
		SampledPoints: s.sampledPoints.Load(),
		SeriesSamples: s.seriesSamples.Load(),
		Cache:         s.cache.Stats(),
	}
	s.mu.Lock()
	m.QueueDepth = len(s.queue)
	m.Draining = s.draining
	s.mu.Unlock()
	return m
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// ---- plumbing --------------------------------------------------------

// clientID identifies the caller for the per-client cap: the
// self-declared X-Omx-Client header when present (cooperating clients
// get stable identities across connections), the remote host otherwise.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Omx-Client"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// DefaultWorkers is the Workers value omxserve uses when the flag is 0:
// everything the machine has, shared across the executor pool.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
