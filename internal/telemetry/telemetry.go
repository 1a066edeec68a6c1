// Package telemetry is the simulator's observability layer: a
// hierarchical, deterministic metrics registry (counters, gauges,
// fixed-bucket histograms keyed by stable names and label sets) plus a
// low-overhead event tracer (spans and instant events carrying wall-time
// and simulated-time stamps). Exporters render the registry as a
// Prometheus text dump and the tracer as a Chrome trace_event JSON
// timeline or a JSONL event stream, each to an io.Writer; mixtlb writes
// them to files once the run ends. The package has no network listener
// and no package-level state.
//
// Two contracts shape the whole package:
//
//   - Nil-sink fast path. Every handle type (*Counter, *Gauge,
//     *Histogram, *Collector, Tracer-backed Span) is safe on a nil
//     receiver, so an instrumentation site compiles to a single
//     predictable nil-check branch when telemetry is disabled — the
//     default. Hot paths resolve their metric handles once at attach
//     time; the steady-state simulation loop allocates nothing whether
//     telemetry is on or off.
//
//   - Determinism. Registry contents derive only from simulation events
//     and stable names: counter/histogram updates are commutative integer
//     adds and the exporter emits families and series in sorted order, so
//     the same seeds produce byte-identical metric dumps at any worker
//     count. Wall-clock time never enters the registry — it lives only in
//     trace events, which are explicitly a wall-time artifact of one run.
//
// Simulation statistics (the tables experiments print) must never read
// telemetry state; the registry is a one-way sink.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. All methods are
// safe on a nil receiver and for concurrent use.
type Counter struct {
	v uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	atomic.AddUint64(&c.v, d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	atomic.AddUint64(&c.v, 1)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return atomic.LoadUint64(&c.v)
}

// Gauge is a settable signed metric (an instantaneous level: bytes
// mapped, free blocks of an order). Safe on a nil receiver and for
// concurrent use.
type Gauge struct {
	v int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	atomic.StoreInt64(&g.v, v)
}

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	atomic.AddInt64(&g.v, d)
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}

// Histogram counts observations into fixed buckets chosen at creation:
// bucket i counts observations <= bounds[i]; one extra bucket catches the
// overflow. Fixed bounds keep Observe allocation-free and the exported
// shape stable across runs. Safe on a nil receiver and for concurrent use.
type Histogram struct {
	bounds []uint64 // ascending upper bounds
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    uint64
	count  uint64
}

// Observe records one observation of v.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v.
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil || n == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddUint64(&h.counts[i], n)
	atomic.AddUint64(&h.count, n)
	atomic.AddUint64(&h.sum, v*n)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return atomic.LoadUint64(&h.count)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return atomic.LoadUint64(&h.sum)
}

// Registry holds every metric of one run, keyed by family name plus a
// label set. Metric handles are created on first reference and live for
// the registry's lifetime, so instrumentation resolves them once and the
// hot path never touches the registry map. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	kinds    map[string]string // family -> "counter"|"gauge"|"histogram"
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		kinds:    make(map[string]string),
	}
}

// seriesKey renders the canonical "family{k="v",...}" identity of one
// series. Label order is preserved as given: call sites build labels along
// deterministic code paths, so identical runs produce identical keys.
func seriesKey(family string, labels []string) string {
	if len(labels) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeName(labels[i]))
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// sanitizeName maps an arbitrary string onto the Prometheus metric/label
// name alphabet [a-zA-Z0-9_:].
func sanitizeName(s string) string {
	ok := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9' && i > 0)) {
			ok = false
			break
		}
	}
	if ok && s != "" {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9' && i > 0) {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Counter returns (creating if needed) the counter series for family and
// label pairs. Nil registries return nil handles, which no-op.
func (r *Registry) Counter(family string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	family = sanitizeName(family)
	key := seriesKey(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
		r.kinds[family] = "counter"
	}
	return c
}

// Gauge returns (creating if needed) the gauge series for family and
// label pairs.
func (r *Registry) Gauge(family string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	family = sanitizeName(family)
	key := seriesKey(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
		r.kinds[family] = "gauge"
	}
	return g
}

// Histogram returns (creating if needed) the histogram series for family
// and label pairs. bounds are ascending upper bucket bounds; they are
// fixed by the first creation of the series and shared by later lookups.
func (r *Registry) Histogram(family string, bounds []uint64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	family = sanitizeName(family)
	key := seriesKey(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = &Histogram{bounds: append([]uint64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
		r.hists[key] = h
		r.kinds[family] = "histogram"
	}
	return h
}

// familyOf strips the label set off a series key.
func familyOf(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// labelsOf returns the "{...}" suffix of a series key ("" when unlabeled).
func labelsOf(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[i:]
	}
	return ""
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Series are emitted in sorted order with one # TYPE line per
// family, so identical registries render byte-identically regardless of
// the schedule that populated them.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k := range r.counters {
		keys = append(keys, k)
	}
	for k := range r.gauges {
		keys = append(keys, k)
	}
	for k := range r.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, key := range keys {
		family := familyOf(key)
		if family != lastFamily {
			fmt.Fprintf(bw, "# TYPE %s %s\n", family, r.kinds[family])
			lastFamily = family
		}
		switch {
		case r.counters[key] != nil:
			fmt.Fprintf(bw, "%s %d\n", key, r.counters[key].Value())
		case r.gauges[key] != nil:
			fmt.Fprintf(bw, "%s %d\n", key, r.gauges[key].Value())
		default:
			writeHistogram(bw, family, labelsOf(key), r.hists[key])
		}
	}
	r.mu.Unlock()
	return bw.Flush()
}

// writeHistogram emits one histogram series as cumulative _bucket lines
// plus _sum and _count, per the Prometheus convention.
func writeHistogram(w io.Writer, family, labels string, h *Histogram) {
	withLE := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`%s_bucket{le="%s"}`, family, le)
		}
		return fmt.Sprintf(`%s_bucket%s,le="%s"}`, family, labels[:len(labels)-1], le)
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += atomic.LoadUint64(&h.counts[i])
		fmt.Fprintf(w, "%s %d\n", withLE(strconv.FormatUint(b, 10)), cum)
	}
	cum += atomic.LoadUint64(&h.counts[len(h.bounds)])
	fmt.Fprintf(w, "%s %d\n", withLE("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %d\n", family, labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", family, labels, h.Count())
}

// PrometheusString renders the registry to a string (tests).
func (r *Registry) PrometheusString() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// ParsePrometheus validates a Prometheus text dump: every sample line must
// be syntactically well-formed with a parseable value, and every sample's
// family must be declared by a preceding # TYPE line. It returns the
// number of sample lines, so callers can assert non-emptiness.
func ParsePrometheus(rd io.Reader) (samples int, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typed := make(map[string]bool)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					typed[fields[2]] = true
				default:
					return samples, fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
			}
			continue
		}
		name, value, perr := splitSample(line)
		if perr != nil {
			return samples, fmt.Errorf("line %d: %v", lineNo, perr)
		}
		if _, ferr := strconv.ParseFloat(value, 64); ferr != nil {
			return samples, fmt.Errorf("line %d: bad sample value %q", lineNo, value)
		}
		family := familyOf(name)
		base := family
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(family, suf) {
				base = strings.TrimSuffix(family, suf)
				break
			}
		}
		if !typed[family] && !typed[base] {
			return samples, fmt.Errorf("line %d: sample %q has no # TYPE declaration", lineNo, family)
		}
		samples++
	}
	if serr := sc.Err(); serr != nil {
		return samples, serr
	}
	return samples, nil
}

// splitSample splits "name{labels} value" (or "name value") into the
// series identity and the value text, validating basic label syntax.
func splitSample(line string) (name, value string, err error) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", fmt.Errorf("unbalanced braces in %q", line)
		}
		name = line[:j+1]
		if !validMetricName(line[:i]) {
			return "", "", fmt.Errorf("bad metric name in %q", line)
		}
		value = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", "", fmt.Errorf("expected 'name value' in %q", line)
		}
		if !validMetricName(fields[0]) {
			return "", "", fmt.Errorf("bad metric name %q", fields[0])
		}
		name, value = fields[0], fields[1]
	}
	if value == "" {
		return "", "", fmt.Errorf("missing value in %q", line)
	}
	return name, value, nil
}

// validMetricName checks the Prometheus metric-name alphabet.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_' || c == ':':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
