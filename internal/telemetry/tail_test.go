package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func seedTailTracer() *Tracer {
	tr := NewTracer(0)
	tr.Instant(TailCategory, "slow_translation", 1, 40, "design", "split", "va", "0x1000")
	tr.Instant("engine", "cell_done", 1, 0)
	tr.Instant(TailCategory, "slow_translation", 2, 90, "design", "mix", "va", "0x2000")
	tr.Instant(TailCategory, "slow_translation", 1, 40, "design", "split", "va", "0x3000")
	return tr
}

func TestTailRecordsFilterAndOrder(t *testing.T) {
	recs := seedTailTracer().TailRecords()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (non-tail events must be filtered)", len(recs))
	}
	if recs[0].Cycles != 90 || recs[0].Args["design"] != "mix" {
		t.Fatalf("slowest-first violated: %+v", recs[0])
	}
	// Equal-cycle records keep recording order.
	if recs[1].Args["va"] != "0x1000" || recs[2].Args["va"] != "0x3000" {
		t.Fatalf("tie order violated: %+v", recs[1:])
	}
}

func TestWriteTailJSON(t *testing.T) {
	var b strings.Builder
	if err := seedTailTracer().WriteTailJSON(&b, 2); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Count int          `json:"count"`
		Tail  []TailRecord `json:"tail"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON %q: %v", b.String(), err)
	}
	if doc.Count != 3 || len(doc.Tail) != 2 {
		t.Fatalf("count=%d len=%d, want 3 and 2", doc.Count, len(doc.Tail))
	}
}

func TestWriteTailJSONNilAndEmpty(t *testing.T) {
	var nilTracer *Tracer
	var b strings.Builder
	if err := nilTracer.WriteTailJSON(&b, 0); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(b.String()); got != `{"count":0,"tail":[]}` {
		t.Fatalf("nil tracer rendered %q", got)
	}
}

func TestServeDebugTail(t *testing.T) {
	tr := seedTailTracer()
	addr, shutdown, err := Serve("127.0.0.1:0", NewRegistry(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/debug/tail?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc struct {
		Count int          `json:"count"`
		Tail  []TailRecord `json:"tail"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count != 3 || len(doc.Tail) != 1 || doc.Tail[0].Cycles != 90 {
		t.Fatalf("endpoint returned %+v", doc)
	}
}

func TestTailHandlerLimit(t *testing.T) {
	tr := NewTracer(0)
	for i := 0; i < 101; i++ {
		tr.Instant(TailCategory, "slow_translation", 1, uint64(i))
	}
	h := tailHandler(tr)
	for _, tc := range []struct {
		n    string
		want int
	}{
		{"", 100}, {"1", 1}, {"0", 101}, {"-1", 100}, {"x", 100},
	} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/debug/tail?n="+tc.n, nil))
		var doc struct {
			Count int          `json:"count"`
			Tail  []TailRecord `json:"tail"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("n=%q: %v", tc.n, err)
		}
		if doc.Count != 101 || len(doc.Tail) != tc.want {
			t.Errorf("n=%q: count=%d len=%d, want 101 and %d", tc.n, doc.Count, len(doc.Tail), tc.want)
		}
	}
}
