package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Serve starts an HTTP listener on addr exposing live observability for a
// long run:
//
//	/metrics        current registry as Prometheus text
//	/trace          current event buffer as Chrome trace_event JSON
//	/debug/tail     slowest recorded translations, slowest-first JSON
//	/debug/vars     expvar (Go runtime memstats + event totals)
//	/debug/pprof/*  live CPU/heap/goroutine profiles
//
// It returns the bound address (useful with ":0") and a shutdown func.
// The server lives on its own mux, so it never disturbs http.DefaultServeMux.
func Serve(addr string, reg *Registry, tracer *Tracer) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		tracer.WriteChromeTrace(w)
	})
	mux.Handle("/debug/tail", tailHandler(tracer))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	publishEventVars(tracer)

	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// tailHandler serves tracer's tail records as JSON at /debug/tail. The
// optional ?n= caps the list: default 100, 0 = all, and a malformed or
// negative n falls back to the default.
func tailHandler(tracer *Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		limit := 100
		if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n >= 0 {
			limit = n
		}
		w.Header().Set("Content-Type", "application/json")
		tracer.WriteTailJSON(w, limit)
	}
}

// eventVarsPublished guards the process-global expvar names, which panic
// on re-publication.
var eventVarsPublished = false

// publishEventVars exposes live event totals under expvar.
func publishEventVars(tracer *Tracer) {
	if eventVarsPublished {
		return
	}
	eventVarsPublished = true
	expvar.Publish("telemetry_events_total", expvar.Func(func() any {
		total, _ := tracer.Counts()
		return total
	}))
	expvar.Publish("telemetry_events_dropped", expvar.Func(func() any {
		_, dropped := tracer.Counts()
		return dropped
	}))
}
