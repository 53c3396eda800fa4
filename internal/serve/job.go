package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"openmxsim/internal/sweep"
)

// JobState is the lifecycle: queued → running → done | failed |
// cancelled. Cache hits are born done.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state can never change again.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// runFunc executes one job: it returns the final result payload
// (the exact bytes the offline CLI would emit) and feeds obs each
// completed point. It must honor ctx at the between-points seam.
type runFunc func(ctx context.Context, obs sweep.Observer) ([]byte, error)

// Job is one supervised unit of work. All mutable fields are guarded by
// the owning Server's mu; snapshots leave the lock as JobStatus copies.
type Job struct {
	ID     string
	Kind   string // "sweep" | "tune"
	Client string
	Key    string // cache key (content address of the canonical spec)

	run    runFunc
	cancel context.CancelCauseFunc // nil until running; see Server.cancelJob

	state     JobState
	slotHeld  bool // true while the job counts against its client's cap
	err       string
	cacheHit  bool
	result    []byte
	points    []sweep.Result
	updated   chan struct{} // closed and replaced on every mutation
	submitted time.Time
	finished  time.Time
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	State    JobState `json:"state"`
	CacheKey string   `json:"cache_key"`
	Cached   bool     `json:"cached"`
	Points   int      `json:"points_done"`
	Error    string   `json:"error,omitempty"`
}

// runJob is the executor body for one job: panic isolation, mapping the
// run's error onto the job's terminal state, and cache commit on success.
// A deterministic executor reproduces its own failures exactly, so a
// failed job is never re-run. Runs on an executor goroutine.
func (s *Server) runJob(j *Job) {
	ctx, cancel := s.jobContext(j)
	if ctx == nil {
		return // job was cancelled while queued
	}
	defer cancel(nil)

	payload, err := s.runIsolated(ctx, j)
	switch {
	case err == nil:
		if cerr := s.cache.Put(j.Key, payload); cerr != nil {
			// The result is in hand; a cache-commit failure costs a
			// future hit, not this job.
			s.logf("job %s: %v", j.ID, cerr)
		}
		s.finishJob(j, JobDone, payload, "")
	case errors.Is(err, context.Canceled):
		s.finishJob(j, JobCancelled, nil, cancelMessage(ctx, err))
	case errors.Is(err, context.DeadlineExceeded):
		s.finishJob(j, JobFailed, nil, fmt.Sprintf("deadline %v exceeded: %v", s.cfg.JobTimeout, err))
	default:
		s.finishJob(j, JobFailed, nil, err.Error())
	}
}

// runIsolated runs the job with panic isolation: a panicking simulation
// (or a bug in ours) fails this job and only this job — the executor
// goroutine, the queue, and every other job keep going.
func (s *Server) runIsolated(ctx context.Context, j *Job) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsTotal.Add(1)
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	return j.run(ctx, func(r sweep.Result) { s.appendPoint(j, r) })
}

// cancelMessage distinguishes the three ways a job context dies so the
// status a client polls says which one happened.
func cancelMessage(ctx context.Context, err error) string {
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		return cause.Error()
	}
	if err != nil {
		return err.Error()
	}
	return "cancelled"
}
