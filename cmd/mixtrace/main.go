// Command mixtrace records, inspects, and replays memory-reference traces
// — the workflow of the paper's Pin-based methodology (Sec 6.2), with the
// synthetic workload generators standing in for instrumented binaries.
//
//	mixtrace record -workload mcf -footprint-mb 512 -refs 1000000 -o mcf.trace
//	mixtrace info mcf.trace
//	mixtrace run -design mix -trace mcf.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
	"mixtlb/internal/trace"
	"mixtlb/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mixtrace: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "run":
		run(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mixtrace record|info|run [flags]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("workload", "mcf", "workload name (see internal/workload)")
	footMB := fs.Uint64("footprint-mb", 512, "footprint in MiB")
	refs := fs.Uint64("refs", 1_000_000, "references to record")
	seed := fs.Uint64("seed", 42, "workload seed")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		log.Fatal("record: -o is required")
	}
	spec, err := workload.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	stream := spec.Build(0x10000000000, *footMB<<20, simrand.New(*seed))
	if err := trace.Record(f, stream, *refs); err != nil {
		log.Fatal(err)
	}
	st, _ := f.Stat()
	fmt.Printf("recorded %d refs of %s (%d MiB footprint) to %s (%.2f bytes/ref)\n",
		*refs, *name, *footMB, *out, float64(st.Size())/float64(*refs))
}

func info(args []string) {
	if len(args) != 1 {
		log.Fatal("info: expected one trace file")
	}
	f, err := os.Open(args[0])
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}
	var n, writes uint64
	var lo, hi addr.V
	pages := make(map[uint64]struct{})
	pcs := make(map[uint64]struct{})
	for {
		ref, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			log.Fatalf("at ref %d: %v", n, err)
		}
		if n == 0 || ref.VA < lo {
			lo = ref.VA
		}
		if ref.VA > hi {
			hi = ref.VA
		}
		if ref.Write {
			writes++
		}
		pages[ref.VA.VPN4K()] = struct{}{}
		pcs[ref.PC] = struct{}{}
		n++
	}
	fmt.Printf("refs:            %d\n", n)
	fmt.Printf("writes:          %d (%.1f%%)\n", writes, 100*float64(writes)/float64(max64(n, 1)))
	fmt.Printf("VA range:        %v .. %v\n", lo, hi)
	fmt.Printf("distinct 4K pgs: %d (%.1f MiB touched)\n", len(pages), float64(len(pages))*4/1024)
	fmt.Printf("distinct PCs:    %d\n", len(pcs))
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	designName := fs.String("design", "mix", "TLB design from the registry (split|mix|mix+colt|split+pwc|mix-as-l2|...; see mixtlb -list)")
	tracePath := fs.String("trace", "", "trace file (required)")
	memGB := fs.Uint64("mem-gb", 4, "simulated physical memory (GiB)")
	policy := fs.String("policy", "THS", "page-size policy (4KB|2MB|1GB|THS)")
	refs := fs.Uint64("refs", 0, "references to simulate (0 = one pass over the trace)")
	fs.Parse(args)
	if *tracePath == "" {
		log.Fatal("run: -trace is required")
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}
	// Decode the whole trace up front: the simulator needs the VA span to
	// reproduce the traced process's memory layout before replay starts
	// (a real process allocated its heap before Pin traced it; faulting
	// it in trace order would randomize the OS's physical placement).
	refsBuf, err := trace.ReadAll(r)
	if err != nil {
		log.Fatalf("decoding trace: %v", err) // *DecodeError names the record
	}
	if len(refsBuf) == 0 {
		log.Fatal("empty trace")
	}
	var lo, hi addr.V
	for i, ref := range refsBuf {
		if i == 0 || ref.VA < lo {
			lo = ref.VA
		}
		if ref.VA > hi {
			hi = ref.VA
		}
	}

	phys := physmem.NewBuddy(*memGB << 30)
	as, err := osmm.New(phys, osmm.Config{Policy: parsePolicy(*policy)})
	if err != nil {
		log.Fatal(err)
	}
	// Reproduce the traced layout: one VMA over the span, faulted in
	// ascending order (first-touch initialization).
	span := addr.AlignedUp(uint64(hi)-addr.AlignedDown(uint64(lo), addr.Size1G)+addr.Size4K, addr.Size2M)
	vmaBase, err := as.Mmap(span)
	if err != nil {
		log.Fatal(err)
	}
	shift := addr.V(addr.AlignedDown(uint64(lo), addr.Size1G)) - vmaBase
	if _, err := as.Populate(vmaBase, span); err != nil {
		log.Fatal(err)
	}
	m, err := mmu.DefaultRegistry().Build(*designName, as.PageTable(), as.PageTable(),
		cachesim.DefaultHierarchy(), as.HandleFault)
	if err != nil {
		log.Fatal(err)
	}

	pos := 0
	simulate := func(n uint64) {
		for i := uint64(0); i < n; i++ {
			ref := refsBuf[pos]
			pos = (pos + 1) % len(refsBuf)
			va := ref.VA - shift // relocate trace VAs into the VMA
			if res := m.Translate(tlb.Request{VA: va, Write: ref.Write, PC: ref.PC}); res.Faulted {
				log.Fatalf("fault at %v", va)
			}
		}
	}
	n := *refs
	if n == 0 {
		n = uint64(len(refsBuf))
	}
	simulate(n) // warm
	m.ResetStats()
	simulate(n)
	fmt.Printf("%s over %s: %s\n", *designName, *tracePath, m.Stats().String())
}

func parsePolicy(s string) osmm.Policy {
	switch s {
	case "4KB":
		return osmm.BasePages
	case "2MB":
		return osmm.Hugetlbfs2M
	case "1GB":
		return osmm.Hugetlbfs1G
	case "THS":
		return osmm.THS
	}
	log.Fatalf("unknown policy %q", s)
	return 0
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
