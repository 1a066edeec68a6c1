// Command mixtlbd is the resilient experiment daemon: it serves the
// simulator's experiment grid as an HTTP job API backed by the crash-safe
// checkpoint engine. Jobs queue in a bounded buffer (admission control
// answers 429 + Retry-After when it is full), run one at a time (each job
// parallelizes its own cell grid), checkpoint every completed cell to a
// per-spec journal under -data-dir, and default to fail-soft: cells that
// exhaust their retries become FAILED(...) markers in the result instead
// of killing the job.
//
//	POST   /jobs             submit {"experiment": ...} plus any experiments.RunSpec
//	                         fields, returns {"id": "job-000001"}
//	GET    /jobs             list jobs
//	GET    /jobs/{id}        status (state, timings, replayed/failed cells)
//	GET    /jobs/{id}/result finished table as CSV (202 while running)
//	DELETE /jobs/{id}        cancel (completed cells stay checkpointed)
//	GET    /metrics          Prometheus text (queue depth, retries,
//	                         watchdog fires, resume hit counts, ...)
//	GET    /healthz          503 once draining
//
// On SIGTERM/SIGINT the daemon drains: new submissions get 503, the
// running job is canceled at its next cell checkpoint, journals are
// flushed and closed, and the process exits. Because journals are keyed
// by spec fingerprint, resubmitting the same spec after a restart
// replays every cell the interrupted run completed.
//
// Example:
//
//	mixtlbd -addr localhost:8080 -data-dir /var/tmp/mixtlbd &
//	curl -s -X POST localhost:8080/jobs -d '{"experiment":"fig12","quick":true}'
//	curl -s localhost:8080/jobs/job-000001/result
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mixtlb/internal/logx"
	"mixtlb/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "HTTP listen address")
		dataDir      = flag.String("data-dir", ".", "directory for per-spec checkpoint journals")
		queueDepth   = flag.Int("queue-depth", 8, "bounded job queue size (excess submissions get 429)")
		maxRefs      = flag.Uint64("max-refs", 50_000_000, "per-job budget: max warmup+measured refs per cell (0 disables)")
		jobTimeout   = flag.Duration("job-timeout", 30*time.Minute, "wall-clock budget per job (0 disables)")
		cellJobs     = flag.Int("jobs", 0, "worker pool per job's cell grid (0 = GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for the running job on shutdown")
		logFormat    = flag.String("log-format", "text", "stderr log format: text or json")
	)
	flag.Parse()

	lg, err := logx.New(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		lg.Error("creating data dir", "dir", *dataDir, "err", err)
		os.Exit(2)
	}

	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	srv := NewServer(Config{
		DataDir:      *dataDir,
		QueueDepth:   *queueDepth,
		MaxRefs:      *maxRefs,
		JobTimeout:   *jobTimeout,
		CellJobs:     *cellJobs,
		DrainTimeout: *drainTimeout,
		Log:          lg,
	}, reg, tracer)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		lg.Error("listening", "addr", *addr, "err", err)
		os.Exit(2)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	lg.Info("serving", "addr", ln.Addr().String(),
		"endpoints", "/jobs /metrics /debug/tail /healthz", "journals", *dataDir)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	sig := <-stop
	lg.Info("signal received — draining (in-flight cells stay checkpointed)", "signal", sig.String())
	srv.Drain()
	httpSrv.Close()
}
