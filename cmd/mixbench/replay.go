package main

import (
	"time"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/mmu"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/pwc"
	"mixtlb/internal/tlb"
)

const (
	// maxCapture bounds the walked requests a traced run captures.
	maxCapture = 262144
	// replayBudget bounds the timed calls of each replay, so slow layers
	// (MIX fills) replay a prefix of the capture instead of all of it.
	replayBudget = 400 * time.Millisecond
	// replayBlock is how many captured walks a level replay looks up
	// before filling the ones that missed.
	replayBlock = 256
)

// replayTimes are host nanoseconds per call from replaying captured walks
// against fresh layer instances.
type replayTimes struct {
	walkNs     float64 // pagetable.WalkInto
	pwcNs      float64 // pwc.Skip then pwc.Fill, per walk
	accessNs   float64 // cachesim.Access, per PTE reference
	lookupNs   float64 // Lookup on the workload design's levels
	fillNs     float64 // Fill on the workload design's levels
	coreFillNs float64 // Fill on the mix design's (core.MixTLB) levels
}

// replay times each layer on the captured walked requests. The page table
// is the run's own (walks only set accessed bits, which no longer matter);
// the paging-structure cache, cache hierarchy and TLB levels are fresh.
// Level replays cascade misses down the levels and fill every level on a
// full miss, without promotion, so their hit ratios only approximate the
// run's; the time per call is the metric.
func replay(pt *pagetable.PageTable, reqs []tlb.Request, design string) (replayTimes, error) {
	var rt replayTimes
	if len(reqs) == 0 {
		return rt, nil
	}
	depth := make([]int, len(reqs))
	var ptes []addr.P
	var w pagetable.WalkResult
	for i, r := range reqs {
		pt.WalkInto(r.VA, &w)
		depth[i] = len(w.Accesses)
		ptes = append(ptes, w.Accesses...)
	}

	rt.walkNs = timed(len(reqs), func(i int) { pt.WalkInto(reqs[i].VA, &w) })

	c := pwc.NewISA(0, pt.Descriptor())
	rt.pwcNs = timed(len(reqs), func(i int) {
		if n := depth[i]; n > 1 {
			c.Skip(reqs[i].VA, n-1)
		}
		c.Fill(reqs[i].VA, depth[i])
	})

	h := cachesim.DefaultHierarchy()
	rt.accessNs = timed(len(ptes), func(i int) { h.Access(ptes[i]) })

	reg := mmu.DefaultRegistry()
	var err error
	if rt.lookupNs, rt.fillNs, err = replayLevels(reg, design, pt, reqs); err != nil {
		return rt, err
	}
	if _, rt.coreFillNs, err = replayLevels(reg, string(mmu.DesignMix), pt, reqs); err != nil {
		return rt, err
	}
	return rt, nil
}

// timed calls f(0..n-1) in blocks until n calls or replayBudget, and
// returns nanoseconds per call.
func timed(n int, f func(i int)) float64 {
	const block = 4096
	var el time.Duration
	done := 0
	for done < n && el < replayBudget {
		end := min(done+block, n)
		start := time.Now()
		for i := done; i < end; i++ {
			f(i)
		}
		el += time.Since(start)
		done = end
	}
	return float64(el.Nanoseconds()) / float64(done)
}

// replayLevels replays the requests against fresh levels of a design, in
// blocks: look every request of the block up level by level, then fill
// every level (deepest first, as the MMU does) for the ones that missed.
// It returns nanoseconds per Lookup call and per Fill call.
func replayLevels(reg *mmu.Registry, design string, pt *pagetable.PageTable, reqs []tlb.Request) (lookupNs, fillNs float64, err error) {
	cfg, err := reg.BuildConfig(design, pt)
	if err != nil {
		return 0, 0, err
	}
	var (
		walks          [replayBlock]pagetable.WalkResult
		missed         [replayBlock]bool
		lookupT, fillT time.Duration
		lookups, fills int
	)
	for b := 0; b < len(reqs) && lookupT+fillT < replayBudget; b += replayBlock {
		blk := reqs[b:min(b+replayBlock, len(reqs))]
		for j, r := range blk {
			pt.WalkInto(r.VA, &walks[j])
		}
		start := time.Now()
		for j, r := range blk {
			missed[j] = true
			for _, l := range cfg.Levels {
				lookups++
				if l.TLB.Lookup(r).Hit {
					missed[j] = false
					break
				}
			}
		}
		lookupT += time.Since(start)
		start = time.Now()
		for j, r := range blk {
			if !missed[j] {
				continue
			}
			for li := len(cfg.Levels) - 1; li >= 0; li-- {
				cfg.Levels[li].TLB.Fill(r, walks[j])
				fills++
			}
		}
		fillT += time.Since(start)
	}
	return perCall(lookupT, lookups), perCall(fillT, fills), nil
}

func perCall(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
