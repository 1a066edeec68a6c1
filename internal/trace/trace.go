// Package trace records and replays memory-reference traces, the
// methodology backbone of the paper's CPU studies (Sec 6.2): the authors
// collect Pin traces of native executions and feed them to the functional
// simulator. Here, traces are captured from the synthetic workload
// streams (or any Stream) into a compact binary format and read back
// reference by reference (Reader.Next, ReadAll) — so a simulation can run
// from a frozen trace file, be shared, and be re-run bit-identically
// without regenerating the workload.
//
// Format (little-endian, after an 8-byte magic/version header):
//
//	each record is one reference, delta-encoded against the previous:
//	  flags byte: bit0 = write, bit1 = PC changed, bit2 = VA delta sign
//	  uvarint     |VA delta| in bytes
//	  uvarint     new PC (only when bit1 set)
//
// Delta encoding exploits the spatial locality of real reference streams;
// sequential workloads compress to ~2 bytes per reference.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mixtlb/internal/addr"
	"mixtlb/internal/workload"
)

// magic identifies trace files; the low byte is the format version.
const magic uint64 = 0x4d49585442435201 // "MIXTBCR" + version 1

const (
	flagWrite     = 1 << 0
	flagPCChanged = 1 << 1
	flagNegDelta  = 1 << 2
)

// ErrBadMagic indicates the reader's input is not a trace file (or is a
// different version).
var ErrBadMagic = errors.New("trace: bad magic or unsupported version")

// DecodeError reports a malformed or truncated record, carrying the index
// of the record that failed to decode (records before it are valid).
// It wraps the underlying cause: io.ErrUnexpectedEOF for truncation, or
// the reader's I/O error.
type DecodeError struct {
	Record uint64 // zero-based index of the failed record
	Err    error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("trace: decoding record %d: %v", e.Record, e.Err)
}

// Unwrap exposes the cause so errors.Is(err, io.ErrUnexpectedEOF) works.
func (e *DecodeError) Unwrap() error { return e.Err }

// Writer encodes references to an io.Writer.
type Writer struct {
	w      *bufio.Writer
	prevVA addr.V
	prevPC uint64
	n      uint64
	buf    [2 * binary.MaxVarintLen64]byte
	opened bool
}

// NewWriter starts a trace on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Append encodes one reference.
func (t *Writer) Append(ref workload.Ref) error {
	if !t.opened {
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], magic)
		if _, err := t.w.Write(hdr[:]); err != nil {
			return err
		}
		t.opened = true
	}
	var flags byte
	if ref.Write {
		flags |= flagWrite
	}
	if ref.PC != t.prevPC {
		flags |= flagPCChanged
	}
	// Compute |delta| in uint64 space so deltas of 2^63 and above (e.g. a
	// kernel-half address after a user-half one) are handled explicitly
	// rather than through signed-overflow wraparound.
	var delta uint64
	if ref.VA >= t.prevVA {
		delta = uint64(ref.VA - t.prevVA)
	} else {
		flags |= flagNegDelta
		delta = uint64(t.prevVA - ref.VA)
	}
	if err := t.w.WriteByte(flags); err != nil {
		return err
	}
	n := binary.PutUvarint(t.buf[:], delta)
	if flags&flagPCChanged != 0 {
		n += binary.PutUvarint(t.buf[n:], ref.PC)
	}
	if _, err := t.w.Write(t.buf[:n]); err != nil {
		return err
	}
	t.prevVA, t.prevPC = ref.VA, ref.PC
	t.n++
	return nil
}

// Count returns the number of references appended so far.
func (t *Writer) Count() uint64 { return t.n }

// Flush writes buffered data through to the underlying writer.
func (t *Writer) Flush() error {
	if !t.opened { // an empty trace still carries the header
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], magic)
		if _, err := t.w.Write(hdr[:]); err != nil {
			return err
		}
		t.opened = true
	}
	return t.w.Flush()
}

// Record captures n references from a stream.
func Record(w io.Writer, s workload.Stream, n uint64) error {
	tw := NewWriter(w)
	for i := uint64(0); i < n; i++ {
		if err := tw.Append(s.Next()); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Reader decodes a trace.
type Reader struct {
	r      *bufio.Reader
	prevVA addr.V
	prevPC uint64
	n      uint64 // records decoded so far
}

// NewReader validates the header and returns a decoder.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[:]) != magic {
		return nil, ErrBadMagic
	}
	return &Reader{r: br}, nil
}

// Next decodes one reference. A clean end of trace returns io.EOF
// unwrapped; every other failure — truncation mid-record, I/O errors —
// returns a *DecodeError carrying the index of the record that failed.
func (t *Reader) Next() (workload.Ref, error) {
	flags, err := t.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return workload.Ref{}, io.EOF // clean end of trace
		}
		return workload.Ref{}, &DecodeError{Record: t.n, Err: err}
	}
	delta, err := binary.ReadUvarint(t.r)
	if err != nil {
		return workload.Ref{}, &DecodeError{Record: t.n, Err: unexpectedEOF(err)}
	}
	if flags&flagNegDelta != 0 {
		t.prevVA -= addr.V(delta)
	} else {
		t.prevVA += addr.V(delta)
	}
	if flags&flagPCChanged != 0 {
		pc, err := binary.ReadUvarint(t.r)
		if err != nil {
			return workload.Ref{}, &DecodeError{Record: t.n, Err: unexpectedEOF(err)}
		}
		t.prevPC = pc
	}
	t.n++
	return workload.Ref{VA: t.prevVA, Write: flags&flagWrite != 0, PC: t.prevPC}, nil
}

// Count returns the number of records decoded so far.
func (t *Reader) Count() uint64 { return t.n }

// ReadAll decodes the remaining records, failing on a malformed or
// truncated trace (the partial slice is still returned alongside the
// *DecodeError, which names the failed record).
func ReadAll(r *Reader) ([]workload.Ref, error) {
	var refs []workload.Ref
	for {
		ref, err := r.Next()
		if errors.Is(err, io.EOF) {
			return refs, nil
		}
		if err != nil {
			return refs, err
		}
		refs = append(refs, ref)
	}
}

// unexpectedEOF maps a mid-record EOF to ErrUnexpectedEOF so truncated
// traces are distinguishable from complete ones.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
