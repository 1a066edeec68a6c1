package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// maxStoredSpans bounds the spans a traced run keeps for the Chrome trace
// file. Per-name totals keep counting past it, so derived metrics never
// depend on the cap; only the written file is truncated.
const maxStoredSpans = 1 << 16

// span is one recorded call into a simulator layer. Spans are stored in
// start order, so a stored span's parent is always stored before it.
type span struct {
	name       string
	id, parent int32 // ids count from 1; parent 0 marks a root span
	run        int32 // instance the span belongs to
	start, end time.Duration
}

// spanTotal accumulates every span of one name, stored or not.
type spanTotal struct {
	ns    int64
	count int64
}

// tracer records spans around the benchmark's calls into the simulator.
// A nil *tracer is valid and records nothing, so the untraced run takes the
// same code path at the cost of one nil check per call.
type tracer struct {
	epoch   time.Time
	run     int32
	spans   []span
	dropped int64
	totals  map[string]*spanTotal
	// replayPending makes the next traced stream run capture its walked
	// requests and replay them; one replay per traced run suffices.
	replayPending bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), totals: make(map[string]*spanTotal)}
}

// handle is an open span.
type handle struct {
	id    int32 // 0 when the span is not stored
	name  string
	start time.Time
}

// begin opens a span named name under parent (0 for a root span).
func (t *tracer) begin(name string, parent int32) handle {
	if t == nil {
		return handle{}
	}
	h := handle{name: name, start: time.Now()}
	if len(t.spans) < maxStoredSpans {
		h.id = int32(len(t.spans) + 1)
		t.spans = append(t.spans, span{name: name, id: h.id, parent: parent, run: t.run,
			start: h.start.Sub(t.epoch)})
	} else {
		t.dropped++
	}
	return h
}

// end closes h and returns its duration.
func (t *tracer) end(h handle) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(h.start)
	if h.id > 0 {
		t.spans[h.id-1].end = now.Sub(t.epoch)
	}
	tot := t.totals[h.name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[h.name] = tot
	}
	tot.ns += int64(d)
	tot.count++
	return d
}

// total returns the summed duration and count of every span named name.
func (t *tracer) total(name string) (time.Duration, int64) {
	if t == nil || t.totals[name] == nil {
		return 0, 0
	}
	tot := t.totals[name]
	return time.Duration(tot.ns), tot.count
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int32     `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Run      int32  `json:"run"`
	Workload string `json:"workload"`
}

// writeChrome writes the stored spans as Chrome trace JSON, one event per
// span with its id, parent id and run id in args; each run is its own
// thread row.
func (t *tracer) writeChrome(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.run,
			Args: traceArgs{ID: s.id, Parent: s.parent, Run: s.run, Workload: workload},
		}
	}
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		Dropped         int64        `json:"droppedSpans"`
	}{events, "ns", t.dropped}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
