package main

import (
	"errors"
	"time"
)

// perLayer fills the per-layer metrics of a traced run. Span-derived
// times come from the traced instances, counts and fractions from the
// simulator's own counters, *_ns per call from the replay, and
// <layer>.self_share from the CPU profile of the traced timed phases.
func perLayer(ms map[string]metric, plain, traced []*instance, tr *tracer, prof *profiler) error {
	var rt *replayTimes
	var streams []*streamRun
	for _, in := range traced {
		if in.stream == nil {
			continue
		}
		streams = append(streams, in.stream)
		if in.stream.replay != nil {
			rt = in.stream.replay
		}
	}
	if len(streams) == 0 || rt == nil {
		return errors.New("traced run produced no stream run to derive layer metrics from")
	}
	r := streams[0] // simulated counters are identical across instances
	krefs := float64(r.refs) / 1000
	st := r.stats

	_, setups := tr.total("setup")
	perSetup := func(names ...string) float64 {
		var sum time.Duration
		for _, name := range names {
			d, _ := tr.total(name)
			sum += d
		}
		return sum.Seconds() / float64(setups)
	}
	perRef := func(f func(*streamRun) time.Duration) float64 {
		xs := make([]float64, len(streams))
		for i, s := range streams {
			xs[i] = float64(f(s).Nanoseconds()) / float64(s.refs)
		}
		return median(xs)
	}
	set := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }

	set("workload.fill_ns_per_ref", perRef(func(s *streamRun) time.Duration { return s.fillNs }), "ns/ref")
	set("workload.build_s", perSetup("workload.Spec.Build"), "s")

	set("mmu.translate_ns_per_ref", perRef(func(s *streamRun) time.Duration { return s.translateNs }), "ns/ref")
	set("mmu.cycles_per_ref", st.CyclesPerAccess(), "cycles/ref")
	set("mmu.walks_per_kref", float64(st.Walks)/krefs, "walks/kref")
	set("mmu.faults_per_kref", float64(st.Faults)/krefs, "faults/kref")

	set("tlb.l1_hit_frac", ratio(r.levels[0].Hits, st.Accesses), "fraction")
	var l2 uint64
	if len(r.levels) > 1 {
		l2 = r.levels[1].Hits
	}
	set("tlb.l2_hit_frac", ratio(l2, st.Accesses), "fraction")
	set("tlb.lookup_ns", rt.lookupNs, "ns")
	set("tlb.fill_ns", rt.fillNs, "ns")

	var mirrors, merges, bundles, members uint64
	for _, c := range r.cores {
		mirrors += c.MirrorWrites
		merges += c.CoalesceMerges
		bundles += c.BundlesFilled
		members += c.MembersPerFill
	}
	set("core.fill_ns", rt.coreFillNs, "ns")
	set("core.mirror_writes_per_fill", ratio(mirrors, bundles), "writes/fill")
	set("core.merge_frac", ratio(merges, merges+bundles), "fraction")
	set("core.members_per_bundle", ratio(members, bundles), "pages/bundle")

	set("pagetable.walk_ns", rt.walkNs, "ns")
	set("pagetable.refs_per_walk", ratio(st.WalkRefs, st.Walks), "refs/walk")
	set("pagetable.dirty_assists_per_kref", float64(st.DirtyMicroOps)/krefs, "assists/kref")

	set("pwc.hit_frac", ratio(st.PWCHits, st.PWCHits+st.PWCMisses), "fraction")
	set("pwc.skipped_refs_per_walk", ratio(st.PWCSkippedRefs, st.Walks), "refs/walk")
	set("pwc.skip_ns", rt.pwcNs, "ns")

	set("cachesim.access_ns", rt.accessNs, "ns")
	set("cachesim.accesses_per_kref", float64(r.cacheAcc)/krefs, "accesses/kref")
	set("cachesim.l1_hit_frac", ratio(r.cacheL1Hits, r.cacheAcc), "fraction")
	set("cachesim.mem_frac", ratio(r.cacheMem, r.cacheAcc), "fraction")

	set("physmem.setup_s", perSetup("physmem.NewBuddy", "physmem.Memhog.Run"), "s")
	set("osmm.populate_s", perSetup("osmm.Populate"), "s")
	set("osmm.superpage_frac", r.superFrac, "fraction")

	// The engine's cells. A stream workload's instance is its one cell,
	// run on one worker.
	var cells, maxes, busy []float64
	for _, in := range traced {
		if in.bench == nil {
			cells = append(cells, in.wallS)
			maxes = append(maxes, in.wallS)
			busy = append(busy, 1)
			continue
		}
		cs, err := cellSeconds(in.bench)
		if err != nil {
			return err
		}
		var sum float64
		for _, c := range cs {
			sum += c
		}
		cells = append(cells, cs...)
		maxes = append(maxes, cs[len(cs)-1])
		busy = append(busy, sum/(in.wallS*gridJobs))
	}
	set("experiments.cell_s_p50", median(cells), "s")
	set("experiments.cell_s_max", median(maxes), "s")
	set("experiments.pool_busy_frac", median(busy), "fraction")

	shares, err := prof.shares()
	if err != nil {
		return err
	}
	for layer, share := range shares {
		set(layer+".self_share", share, "fraction")
	}
	gcFrac := 0.0
	if prof.totCPU > 0 {
		gcFrac = prof.gcCPU / prof.totCPU
	}
	set("runtime.gc_cpu_frac", gcFrac, "fraction")
	var mallocs, refs uint64
	for _, in := range plain { // traced instances also allocate the capture
		mallocs += in.mallocs
		refs += in.refs
	}
	set("runtime.allocs_per_kref", float64(mallocs)/(float64(refs)/1000), "allocs/kref")

	// Fastest traced instance against fastest untraced one, as wall_s.
	fastest := func(insts []*instance) float64 {
		xs := make([]float64, len(insts))
		for i, in := range insts {
			xs[i] = in.wallS
		}
		return quantile(xs, 0)
	}
	set("trace.overhead_frac", fastest(traced)/fastest(plain)-1, "fraction")
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
