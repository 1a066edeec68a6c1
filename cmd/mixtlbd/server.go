package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mixtlb/internal/experiments"
	"mixtlb/internal/journal"
	"mixtlb/internal/logx"
	"mixtlb/internal/telemetry"
)

// jobBody is the submission body of POST /jobs: an experiment name and
// the run's settings, flat on the wire. Refs is the per-cell measured
// reference count the per-job work budget is denominated in.
type jobBody struct {
	Experiment string `json:"experiment"`
	experiments.RunSpec
}

// maxBodyBytes bounds a POST /jobs body; a real one is a few hundred bytes.
const maxBodyBytes = 64 << 10

// job states.
const (
	stateQueued   = "queued"
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// job is one queued or completed experiment run.
type job struct {
	ID    string
	exp   experiments.Experiment
	scale experiments.Scale

	mu       sync.Mutex
	state    string
	err      string
	title    string
	csv      string
	enqueued time.Time
	started  time.Time
	finished time.Time
	replayed int
	failures []string // FAILED cell markers
	cancel   context.CancelFunc
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// jobStatus is the wire shape of GET /jobs/{id}.
type jobStatus struct {
	ID            string   `json:"id"`
	State         string   `json:"state"`
	Experiment    string   `json:"experiment"`
	Error         string   `json:"error,omitempty"`
	EnqueuedAt    string   `json:"enqueued_at"`
	StartedAt     string   `json:"started_at,omitempty"`
	FinishedAt    string   `json:"finished_at,omitempty"`
	ReplayedCells int      `json:"replayed_cells"`
	FailedCells   []string `json:"failed_cells,omitempty"`
}

// Config sizes the daemon.
type Config struct {
	DataDir      string        // journal directory (one file per spec fingerprint)
	QueueDepth   int           // bounded job queue; submissions beyond it get 429
	MaxRefs      uint64        // per-job budget: max measured refs per cell
	JobTimeout   time.Duration // wall-clock budget per job (0 disables)
	CellJobs     int           // worker pool per job (0 = GOMAXPROCS)
	DrainTimeout time.Duration // how long Drain waits for the running job
	RetryAfter   time.Duration // hint returned with 429/503
	Log          *slog.Logger  // lifecycle event log (nil = discard)
}

// Server owns the job queue, the runner loop, and the HTTP API.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	col    *telemetry.Collector
	tracer *telemetry.Tracer
	lg     *slog.Logger

	mu    sync.Mutex
	jobs  map[string]*job
	order []string

	queue    chan *job
	draining atomic.Bool
	idSeq    atomic.Int64
	wg       sync.WaitGroup

	// runJob executes one job; tests inject a stub to exercise the HTTP
	// and queue machinery without simulating.
	runJob func(ctx context.Context, j *job)
}

// NewServer builds a daemon and starts its runner loop.
func NewServer(cfg Config, reg *telemetry.Registry, tracer *telemetry.Tracer) *Server {
	return newServer(cfg, reg, tracer, nil)
}

// newServer is NewServer with an injectable job runner (tests exercise
// the queue and HTTP machinery against a stub instead of the simulator).
// The runner must be fixed before the loop goroutine starts.
func newServer(cfg Config, reg *telemetry.Registry, tracer *telemetry.Tracer,
	runJob func(ctx context.Context, j *job)) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 15 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log, _ = logx.New(io.Discard, logx.FormatText)
	}
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		col:    telemetry.NewCollector(reg, tracer),
		tracer: tracer,
		lg:     cfg.Log,
		jobs:   map[string]*job{},
		queue:  make(chan *job, cfg.QueueDepth),
	}
	s.runJob = s.runExperiment
	if runJob != nil {
		s.runJob = runJob
	}
	s.wg.Add(1)
	go s.runLoop()
	return s
}

// counters/gauges. Families:
//
//	mixtlbd_queue_depth              gauge: jobs waiting in the queue
//	mixtlbd_jobs_total{state=...}    counter: jobs by terminal state
//	mixtlbd_rejected_total{reason}   counter: refused submissions
//	mixtlbd_resume_replayed_total    counter: cells served from journals
//	mixtlbd_resume_simulated_total   counter: cells actually simulated
//
// (engine_* counters — retries, watchdog fires, journal replays — land in
// the same registry via the jobs' scoped collectors.)
func (s *Server) queueGauge() *telemetry.Gauge { return s.col.Gauge("mixtlbd_queue_depth") }

func (s *Server) countJob(state string) {
	s.col.Counter("mixtlbd_jobs_total", "state", state).Inc()
}

func (s *Server) countRejected(reason string) {
	s.col.Counter("mixtlbd_rejected_total", "reason", reason).Inc()
}

// runLoop drains the queue one job at a time; each job parallelizes its
// own cell grid, so serializing jobs keeps the machine's core budget
// predictable under a full queue.
func (s *Server) runLoop() {
	defer s.wg.Done()
	for j := range s.queue {
		s.queueGauge().Add(-1)
		j.mu.Lock()
		canceled := j.state == stateCanceled
		var ctx context.Context
		if !canceled {
			ctx, j.cancel = context.WithCancel(context.Background())
			j.state = stateRunning
			j.started = time.Now()
		}
		j.mu.Unlock()
		if canceled {
			continue
		}
		s.lg.Info("job started", "job", j.ID, "experiment", j.exp.Name)
		s.runJob(ctx, j)
		j.mu.Lock()
		j.finished = time.Now()
		j.cancel = nil
		switch {
		case j.state == stateCanceled:
		case j.err != "":
			j.state = stateFailed
		default:
			j.state = stateDone
		}
		s.countJob(j.state)
		state, errMsg, elapsed := j.state, j.err, j.finished.Sub(j.started).Round(time.Millisecond)
		j.mu.Unlock()
		switch state {
		case stateFailed:
			s.lg.Error("job failed", "job", j.ID, "experiment", j.exp.Name,
				"err", errMsg, "elapsed", elapsed.String())
		case stateCanceled:
			s.lg.Warn("job canceled", "job", j.ID, "experiment", j.exp.Name, "reason", errMsg)
		default:
			s.lg.Info("job done", "job", j.ID, "experiment", j.exp.Name,
				"elapsed", elapsed.String())
		}
	}
}

// journalPath keys a spec's checkpoint file by its configuration
// fingerprint, so resubmitting the same spec — after a crash, a drain, or
// just again — replays every cell the previous attempt completed.
func (s *Server) journalPath(experiment, fingerprint string) string {
	h := fnv.New64a()
	h.Write([]byte(experiment))
	h.Write([]byte{0})
	h.Write([]byte(fingerprint))
	return filepath.Join(s.cfg.DataDir, fmt.Sprintf("%s-%016x.journal", experiment, h.Sum64()))
}

// runExperiment is the real job runner: open (or resume) the spec's
// journal, run under RunSafe, and store the rendered table.
func (s *Server) runExperiment(ctx context.Context, j *job) {
	s.runExperimentWithFault(ctx, j, "")
}

// runExperimentWithFault is runExperiment plus an injected per-cell fault
// (cells whose name contains faultCell fail every attempt) — the test
// hook for exercising the fail-soft path over the real simulator.
func (s *Server) runExperimentWithFault(ctx context.Context, j *job, faultCell string) {
	e, scale := j.exp, j.scale
	if faultCell != "" {
		scale.RetryBackoff = time.Millisecond
		scale.CellFault = func(exp, cell string) error {
			if strings.Contains(cell, faultCell) {
				return fmt.Errorf("injected fault on %q", cell)
			}
			return nil
		}
	}
	jnl, err := journal.Open(s.journalPath(e.Name, scale.Fingerprint()), scale.Fingerprint())
	if err != nil {
		j.mu.Lock()
		j.err = fmt.Sprintf("journal: %v", err)
		j.mu.Unlock()
		return
	}
	scale.Journal = jnl
	replayable := jnl.Stats().Replayed
	if replayable > 0 {
		s.lg.Info("job resumed", "job", j.ID, "experiment", e.Name, "replayed_cells", replayable)
	}

	tbl, runErr := experiments.RunSafe(ctx, e, scale, s.cfg.JobTimeout)
	st := jnl.Stats()
	if cerr := jnl.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	s.col.Counter("mixtlbd_resume_replayed_total").Add(uint64(replayable))
	s.col.Counter("mixtlbd_resume_simulated_total").Add(uint64(st.Appended))

	j.mu.Lock()
	defer j.mu.Unlock()
	j.replayed = replayable
	for _, fc := range scale.Failures.ForExperiment(e.Name) {
		j.failures = append(j.failures, fc.String())
	}
	if tbl != nil {
		j.title = tbl.Title
		j.csv = tbl.CSV()
	}
	if runErr != nil {
		j.err = runErr.Error()
	}
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /debug/tail", func(w http.ResponseWriter, r *http.Request) {
		limit := 100
		if v := r.URL.Query().Get("n"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				limit = n
			}
		}
		w.Header().Set("Content-Type", "application/json")
		s.tracer.WriteTailJSON(w, limit)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// handleSubmit implements admission control: a draining daemon and a full
// queue both refuse with Retry-After rather than queueing unboundedly.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	retryAfter := strconv.Itoa(int(s.cfg.RetryAfter / time.Second))
	if s.draining.Load() {
		s.countRejected("draining")
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, apiError{"draining: not accepting jobs"})
		return
	}
	e, scale, serr := s.decodeJob(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if serr != nil {
		s.countRejected(serr.reason)
		writeJSON(w, http.StatusBadRequest, apiError{serr.Error()})
		return
	}
	j := &job{
		ID:       fmt.Sprintf("job-%06d", s.idSeq.Add(1)),
		exp:      e,
		scale:    scale,
		state:    stateQueued,
		enqueued: time.Now(),
	}
	select {
	case s.queue <- j:
	default:
		s.countRejected("queue_full")
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusTooManyRequests,
			apiError{fmt.Sprintf("queue full (%d jobs)", cap(s.queue))})
		return
	}
	s.queueGauge().Add(1)
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	s.lg.Info("job accepted", "job", j.ID, "experiment", e.Name, "refs", scale.MeasureRefs)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID})
}

// specError is a rejected submission with its metrics reason.
type specError struct {
	reason string
	msg    string
}

func (e *specError) Error() string { return e.msg }

// decodeJob parses one POST /jobs body into the job's experiment and
// Scale. A malformed body (unknown field, trailing data), an unknown
// experiment or a bad setting is bad_spec; a run wanting more refs per
// cell than -max-refs is over_budget. The daemon's own defaults fill in
// around the spec: fail-soft unless the body says otherwise, -jobs when
// the body names no pool size, and the daemon's telemetry.
func (s *Server) decodeJob(r io.Reader) (experiments.Experiment, experiments.Scale, *specError) {
	var none experiments.Scale
	body := jobBody{RunSpec: experiments.DefaultRunSpec()}
	body.FailSoft = true
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		return experiments.Experiment{}, none, &specError{"bad_spec", "bad spec: " + err.Error()}
	}
	if _, err := dec.Token(); err != io.EOF {
		return experiments.Experiment{}, none, &specError{"bad_spec", "bad spec: trailing data after the JSON object"}
	}
	e, err := experiments.ByName(body.Experiment)
	if err != nil {
		return e, none, &specError{"bad_spec", err.Error()}
	}
	scale, err := body.Scale(nil)
	if err != nil {
		return e, none, &specError{"bad_spec", err.Error()}
	}
	// refs < MeasureRefs catches a sum that wrapped around uint64.
	if refs := scale.WarmupRefs + scale.MeasureRefs; s.cfg.MaxRefs > 0 && (refs < scale.MeasureRefs || refs > s.cfg.MaxRefs) {
		return e, none, &specError{"over_budget",
			fmt.Sprintf("job wants %d warm-up + %d measured refs per cell, budget is %d",
				scale.WarmupRefs, scale.MeasureRefs, s.cfg.MaxRefs)}
	}
	if scale.Jobs == 0 {
		scale.Jobs = s.cfg.CellJobs
	}
	scale.Telemetry = s.col
	scale.Failures = &experiments.FailureLog{}
	return e, scale, nil
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) status(j *job) jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID: j.ID, State: j.state, Experiment: j.exp.Name,
		Error: j.err, EnqueuedAt: j.enqueued.UTC().Format(time.RFC3339),
		ReplayedCells: j.replayed, FailedCells: append([]string(nil), j.failures...),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339)
	}
	return st
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]jobStatus, 0, len(ids))
	for _, id := range ids {
		if j := s.lookup(id); j != nil {
			out = append(out, s.status(j))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	j.mu.Lock()
	state, title, csv, errMsg := j.state, j.title, j.csv, j.err
	j.mu.Unlock()
	switch state {
	case stateDone:
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprintf(w, "# %s\n%s", title, csv)
	case stateFailed, stateCanceled:
		writeJSON(w, http.StatusConflict, apiError{fmt.Sprintf("job %s: %s", state, errMsg)})
	default:
		writeJSON(w, http.StatusAccepted, s.status(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	j.mu.Lock()
	switch j.state {
	case stateQueued, stateRunning:
		j.state = stateCanceled
		j.err = "canceled by request"
		if j.cancel != nil {
			j.cancel() // completed cells stay checkpointed in the journal
		}
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, s.status(j))
}

// Drain stops admissions, cancels the running job (its completed cells
// are already checkpointed — a resubmission replays them), and waits for
// the runner loop to park. Safe to call once.
func (s *Server) Drain() {
	if s.draining.Swap(true) {
		return
	}
	s.lg.Info("draining", "queued_jobs", len(s.queue))
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == stateRunning && j.cancel != nil {
			j.cancel()
			j.state = stateCanceled
			j.err = "canceled by daemon drain (completed cells are checkpointed)"
		}
		if j.state == stateQueued {
			j.state = stateCanceled
			j.err = "daemon drained before the job started"
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	close(s.queue)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
	}
}
