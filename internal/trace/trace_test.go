package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
	"mixtlb/internal/workload"
)

func roundTrip(t *testing.T, refs []workload.Ref) []workload.Ref {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range refs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(refs)) {
		t.Fatalf("Count = %d", w.Count())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out []workload.Ref
	for {
		ref, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ref)
	}
	return out
}

func TestRoundTripBasic(t *testing.T) {
	refs := []workload.Ref{
		{VA: 0x1000, Write: false, PC: 7},
		{VA: 0x1040, Write: true, PC: 7},
		{VA: 0x0fff, Write: false, PC: 9}, // negative delta + PC change
		{VA: 0x7fffffff000, Write: true, PC: 9},
	}
	got := roundTrip(t, refs)
	if len(got) != len(refs) {
		t.Fatalf("decoded %d refs", len(got))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("ref %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := simrand.New(seed)
		refs := make([]workload.Ref, int(n%512)+1)
		for i := range refs {
			refs[i] = workload.Ref{
				VA:    addr.V(rng.Uint64n(1 << addr.VABits)),
				Write: rng.Bool(0.3),
				PC:    rng.Uint64n(1 << 40),
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range refs {
			if w.Append(r) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for i := range refs {
			got, err := r.Next()
			if err != nil || got != refs[i] {
				return false
			}
		}
		_, err = r.Next()
		return errors.Is(err, io.EOF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	got := roundTrip(t, nil)
	if len(got) != 0 {
		t.Errorf("decoded %d refs from empty trace", len(got))
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("notatracefile!!!"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("short header accepted")
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(workload.Ref{VA: 0x123456789, PC: 42})
	w.Flush()
	full := buf.Bytes()
	// Cut mid-record (keep header + flags byte only).
	r, err := NewReader(bytes.NewReader(full[:9]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated record err = %v", err)
	}
}

func TestCompressionOnSequentialStream(t *testing.T) {
	s := workload.NewSequential(0x10000000000, 1<<30, 64, false, 7)
	var buf bytes.Buffer
	const n = 10000
	if err := Record(&buf, s, n); err != nil {
		t.Fatal(err)
	}
	perRef := float64(buf.Len()-8) / n
	if perRef > 3 {
		t.Errorf("sequential trace costs %.1f bytes/ref, want <= 3", perRef)
	}
}

func TestRecordAndReplayDrivesSimulator(t *testing.T) {
	// The methodology round trip: capture a workload stream to a trace,
	// replay it, and confirm the replayed stream matches the original
	// reference-for-reference.
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	const fp = 64 << 20
	orig := spec.Build(0x10000000000, fp, simrand.New(5))
	var buf bytes.Buffer
	const n = 20000
	if err := Record(&buf, orig, n); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != n {
		t.Fatalf("replayed %d refs, want %d", len(replayed), n)
	}
	fresh := spec.Build(0x10000000000, fp, simrand.New(5))
	for i, got := range replayed {
		if want := fresh.Next(); got != want {
			t.Fatalf("ref %d: %+v != %+v", i, got, want)
		}
	}
}

func TestRoundTripHugeDelta(t *testing.T) {
	// Boundary coverage: VA deltas of 2^63 and above exercise the unsigned
	// magnitude computation in Append (the old signed form relied on
	// overflow wraparound here).
	refs := []workload.Ref{
		{VA: 0, PC: 1},
		{VA: 1 << 63, PC: 1},            // +2^63 exactly
		{VA: 0xffffffffffffffff, PC: 1}, // near the top
		{VA: 1, PC: 1},                  // -(2^64 - 2)
		{VA: 0x8000000000000001, PC: 1}, // +2^63 again
	}
	got := roundTrip(t, refs)
	if len(got) != len(refs) {
		t.Fatalf("decoded %d refs", len(got))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("ref %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
}

func TestDecodeErrorNamesRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(workload.Ref{VA: 0x1000, PC: 1})
	w.Append(workload.Ref{VA: 0x2000, PC: 2})
	w.Append(workload.Ref{VA: 0x123456789abc, PC: 3})
	w.Flush()
	full := buf.Bytes()
	// Cut inside the third record: drop the last byte of the stream.
	r, err := NewReader(bytes.NewReader(full[:len(full)-1]))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	_, err = r.Next()
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DecodeError", err)
	}
	if de.Record != 2 {
		t.Errorf("DecodeError.Record = %d, want 2", de.Record)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("cause = %v, want io.ErrUnexpectedEOF", de.Err)
	}
	if r.Count() != 2 {
		t.Errorf("Count = %d, want 2", r.Count())
	}
}

func TestReadAllTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		w.Append(workload.Ref{VA: addr.V(0x1000 * (i + 1)), PC: uint64(i)})
	}
	w.Flush()
	full := buf.Bytes()

	r, err := NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	refs, err := ReadAll(r)
	if err != nil || len(refs) != 5 {
		t.Fatalf("ReadAll full = %d refs, %v", len(refs), err)
	}

	r, err = NewReader(bytes.NewReader(full[:len(full)-1]))
	if err != nil {
		t.Fatal(err)
	}
	refs, err = ReadAll(r)
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("ReadAll truncated err = %v, want *DecodeError", err)
	}
	if len(refs) != 4 {
		t.Errorf("ReadAll kept %d valid records before the failure, want 4", len(refs))
	}
}
