package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
)

// profiler collects a CPU profile and the runtime's GC CPU accounting over
// the phases it is started for. A nil *profiler does nothing.
type profiler struct {
	cur     *bytes.Buffer
	raw     [][]byte // one gzipped profile per phase
	err     error
	gcCPU   float64 // GC CPU seconds over the phases
	totCPU  float64 // all CPU seconds over the phases
	samples []metrics.Sample
}

func newProfiler() *profiler {
	return &profiler{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

func (p *profiler) cpu() (gc, total float64) {
	metrics.Read(p.samples)
	return p.samples[0].Value.Float64(), p.samples[1].Value.Float64()
}

func (p *profiler) start() {
	if p == nil || p.err != nil {
		return
	}
	p.cur = &bytes.Buffer{}
	if err := pprof.StartCPUProfile(p.cur); err != nil {
		p.err = err
		p.cur = nil
		return
	}
	gc, tot := p.cpu()
	p.gcCPU -= gc
	p.totCPU -= tot
}

func (p *profiler) stop() {
	if p == nil || p.cur == nil {
		return
	}
	pprof.StopCPUProfile()
	gc, tot := p.cpu()
	p.gcCPU += gc
	p.totCPU += tot
	p.raw = append(p.raw, p.cur.Bytes())
	p.cur = nil
}

// shares buckets the CPU samples of every collected phase by layer into
// shares of the total.
func (p *profiler) shares() (map[string]float64, error) {
	if p.err != nil {
		return nil, p.err
	}
	counts := make(map[string]int64)
	var total int64
	for _, raw := range p.raw {
		stacks, err := sampleStacks(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range stacks {
			counts[layerOf(s.frames)] += s.count
			total += s.count
		}
	}
	out := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		out[l] = 0
		if total > 0 { // a phase shorter than the 10ms sampling period may catch none
			out[l] = float64(counts[l]) / float64(total)
		}
	}
	return out, nil
}

// profileLayers are the buckets <layer>.self_share reports: the hot
// simulator packages, the Go runtime, and "other" for everything else
// (other packages and the benchmark's own code), so the shares sum to 1.
var profileLayers = []string{
	"addr", "cachesim", "core", "experiments", "gpu", "ledger", "mmu", "osmm",
	"pagetable", "physmem", "pwc", "simrand", "tlb", "virt", "workload",
	"runtime", "other",
}

// layerOf buckets one sample by its stack (function names, leaf first).
// The leaf's package owns the sample, except that standard-library and
// runtime frames (math.Pow, runtime.duffcopy, a GC assist) are charged to
// the nearest caller that is simulator or benchmark code: they are that
// layer's own work. Samples with no such caller (GC workers, the
// scheduler) stay with the runtime.
func layerOf(frames []string) string {
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, "mixtlb/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				for _, l := range profileLayers {
					if l == rest[:i] {
						return l
					}
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
	}
	if len(frames) > 0 && (strings.HasPrefix(frames[0], "runtime.") || strings.HasPrefix(frames[0], "internal/runtime/")) {
		return "runtime"
	}
	return "other"
}

// stack is one profile sample: its count and its function names, leaf
// first, inlined frames expanded.
type stack struct {
	count  int64
	frames []string
}

// sampleStacks decodes a gzipped pprof profile (the profile.proto wire
// format). Only the fields this needs are decoded: samples, locations with
// their lines, functions and the string table.
func sampleStacks(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locFuncs = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcName = make(map[uint64]uint64)   // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			haveValue := false
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first
					ids, err := repeatedVarint(wt, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value; [0] is the sample count
					vals, err := repeatedVarint(wt, v, b)
					if err == nil && !haveValue && len(vals) > 0 {
						s.count, haveValue = int64(vals[0]), true
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line, innermost inlined frame first
					return eachField(b, func(num int, wt int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, len(samples))
	for i, s := range samples {
		out[i].count = s.count
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := "unknown"
				if idx, ok := funcName[fn]; ok && idx < uint64(len(strs)) {
					name = strs[idx]
				}
				out[i].frames = append(out[i].frames, name)
			}
		}
	}
	return out, nil
}

// eachField walks one protobuf message, calling visit with each field's
// number, wire type, and its varint value (wire types 0, 1, 5) or payload
// (wire type 2).
func eachField(b []byte, visit func(num int, wt int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := visit(num, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint decodes a repeated varint field occurrence, packed (wire
// type 2) or not.
func repeatedVarint(wt int, v uint64, b []byte) ([]uint64, error) {
	if wt == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
