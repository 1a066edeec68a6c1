// Package virt models virtualized address translation (Sec 2, 7.1-7.2):
// guest virtual addresses translate to guest physical addresses through
// the guest OS's page table, and guest physical addresses translate to
// system physical addresses through the hypervisor's nested page table.
//
// The two behaviours that make virtualization interesting for TLB design
// are reproduced faithfully:
//
//   - Two-dimensional page walks: with 4-level tables in both dimensions,
//     a nested walk costs up to 24 memory references instead of 4 — each
//     guest PTE access itself requires a host walk (Bhargava et al.).
//   - Page splintering: a guest superpage is only effective if the host
//     also backs that guest-physical range with a superpage. Under memory
//     pressure and consolidation the host falls back to 4KB backing, so
//     the hardware-visible translation degrades to the smaller size.
//
// TLBs cache the *effective* gVA→sPA translations, so every TLB design
// plugs in unchanged via the mmu.TranslationSource interface.
package virt

import (
	"errors"
	"fmt"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/osmm"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
)

// Machine is a virtualized host.
type Machine struct {
	hostPhys *physmem.Buddy
	hostHog  *physmem.Memhog // host-level fragmentation + compaction
	vms      []*VM
	// Host2MBBacking lets the host back guest-physical memory with 2MB
	// pages when possible (default true). Disabling it models page
	// sharing / NUMA-migration configurations that splinter all backings
	// (Sec 7.1).
	Host2MBBacking bool
	// SplinterThreshold, when positive, makes the host back new guest
	// memory with 4KB pages once its free-memory fraction falls below the
	// threshold — the proactive large-page breaking that hypervisors do
	// under pressure to enable page sharing (Guo et al., VEE'15, which
	// the paper cites for exactly this effect). Zero disables it.
	SplinterThreshold float64
}

// NewMachine creates a host with the given physical memory.
func NewMachine(hostBytes uint64, rng *simrand.Source) *Machine {
	phys := physmem.NewBuddy(hostBytes)
	return &Machine{
		hostPhys:       phys,
		hostHog:        physmem.NewMemhog(phys, rng),
		Host2MBBacking: true,
	}
}

// HostHog exposes the host-level fragmenter/compactor.
func (m *Machine) HostHog() *physmem.Memhog { return m.hostHog }

// VM is one guest: a guest-physical address space backed on demand by the
// host, a nested page table (EPT/NPT), and a guest OS instance.
type VM struct {
	machine   *Machine
	guestPhys *physmem.Buddy
	guestHog  *physmem.Memhog      // memhog running inside the VM (Fig 10)
	hostPT    *pagetable.PageTable // gPA -> sPA
	guestAS   *osmm.AddressSpace   // gVA -> gPA

	backed2M uint64 // host backings by size (diagnostics)
	backed4K uint64
}

// AddVM consolidates a guest with the given guest-physical size onto the
// machine. guestCfg selects the *guest* OS page-size policy; the guest's
// compactor is wired to its own in-VM memhog automatically.
func (m *Machine) AddVM(guestBytes uint64, guestCfg osmm.Config, rng *simrand.Source) (*VM, error) {
	guestPhys := physmem.NewBuddy(guestBytes)
	guestHog := physmem.NewMemhog(guestPhys, rng)
	if guestCfg.Compactor == nil {
		guestCfg.Compactor = guestHog
	}
	// The nested page table's own pages live in *host* memory.
	hostPT, err := pagetable.NewISA(m.hostPhys, isa.Default())
	if err != nil {
		return nil, fmt.Errorf("virt: creating nested page table: %w", err)
	}
	guestAS, err := osmm.New(guestPhys, guestCfg)
	if err != nil {
		return nil, fmt.Errorf("virt: creating guest address space: %w", err)
	}
	vm := &VM{
		machine:   m,
		guestPhys: guestPhys,
		guestHog:  guestHog,
		hostPT:    hostPT,
		guestAS:   guestAS,
	}
	m.vms = append(m.vms, vm)
	return vm, nil
}

// GuestAS exposes the guest OS address space (for workloads and faults).
func (vm *VM) GuestAS() *osmm.AddressSpace { return vm.guestAS }

// GuestHog exposes the in-VM fragmenter.
func (vm *VM) GuestHog() *physmem.Memhog { return vm.guestHog }

// NestedPT exposes the gPA→sPA table (for contiguity scans of backings).
func (vm *VM) NestedPT() *pagetable.PageTable { return vm.hostPT }

// BackingCounts reports host backings created, by size.
func (vm *VM) BackingCounts() (twoMB, fourKB uint64) { return vm.backed2M, vm.backed4K }

// ErrHostMemory indicates host physical exhaustion while backing a guest.
var ErrHostMemory = errors.New("virt: host out of physical memory")

// ensureBacked guarantees the host maps the guest-physical page containing
// gpa, preferring 2MB backings (host THS with compaction), splintering to
// 4KB under fragmentation or configuration.
func (vm *VM) ensureBacked(gpa addr.P) error {
	if _, ok := vm.hostPT.Lookup(addr.V(gpa)); ok {
		return nil
	}
	m := vm.machine
	use2M := m.Host2MBBacking
	if m.SplinterThreshold > 0 {
		freeFrac := float64(m.hostPhys.FreeFrames()) / float64(m.hostPhys.TotalFrames())
		if freeFrac < m.SplinterThreshold {
			use2M = false
		}
	}
	if use2M {
		base := gpa.PageBase(addr.Page2M)
		if uint64(base)+addr.Size2M <= vm.guestPhys.TotalBytes() {
			spa, ok := m.hostPhys.AllocPage(addr.Page2M)
			if !ok {
				if frame, cok := m.hostHog.CompactFor(addr.Shift2M - addr.Shift4K); cok {
					spa, ok = addr.P(frame<<addr.Shift4K), true
				}
			}
			if ok {
				if err := vm.hostPT.Map(addr.V(base), spa, addr.Page2M, addr.PermRW|addr.PermUser); err == nil {
					vm.backed2M++
					return nil
				}
				m.hostPhys.FreePage(spa, addr.Page2M)
			}
		}
	}
	spa, ok := m.hostPhys.AllocPage(addr.Page4K)
	if !ok {
		return ErrHostMemory
	}
	if err := vm.hostPT.Map(addr.V(gpa.PageBase(addr.Page4K)), spa, addr.Page4K, addr.PermRW|addr.PermUser); err != nil {
		m.hostPhys.FreePage(spa, addr.Page4K)
		return err
	}
	vm.backed4K++
	return nil
}

// EnsureBacked demand-backs the guest-physical page containing gpa in the
// host (exported for experiments that model guest activity — e.g. in-VM
// memhog — whose memory the hypervisor must back).
func (vm *VM) EnsureBacked(gpa addr.P) error { return vm.ensureBacked(gpa) }

// NestedWalker implements mmu.TranslationSource for a VM, performing
// two-dimensional page walks. It owns scratch walk results for the guest
// and host dimensions, so steady-state walks and dirty assists are
// allocation-free; like the MMU it serves, a walker belongs to one
// simulation goroutine.
type NestedWalker struct {
	vm    *VM
	guest pagetable.WalkResult // guest-dimension walk scratch
	host  pagetable.WalkResult // host-dimension walk scratch
	dirty pagetable.WalkResult // SetDirtyLine's re-walk scratch
}

// Walker returns a new nested walker over the VM.
func (vm *VM) Walker() *NestedWalker { return &NestedWalker{vm: vm} }

// hostResolve translates a guest-physical address to system-physical,
// demand-backing it, and appends the host walk's accesses.
func (w *NestedWalker) hostResolve(gpa addr.P, accesses *[]addr.P) (pagetable.Translation, bool) {
	if err := w.vm.ensureBacked(gpa); err != nil {
		return pagetable.Translation{}, false
	}
	w.vm.hostPT.WalkInto(addr.V(gpa), &w.host)
	*accesses = append(*accesses, w.host.Accesses...)
	return w.host.Translation, w.host.Found
}

// Walk is WalkInto returning a fresh result, for tests and examples.
func (w *NestedWalker) Walk(va addr.V) pagetable.WalkResult {
	var res pagetable.WalkResult
	w.WalkInto(va, &res)
	return res
}

// WalkInto implements mmu.TranslationSource: a 2D walk over guest and
// host tables into a caller-owned result, reusing the capacity of
// res.Accesses and res.Line. With 4-level tables and 4KB pages in both
// dimensions this produces the canonical 24 memory references. The result
// never carries a leaf handle: an effective translation is not one PTE.
func (w *NestedWalker) WalkInto(va addr.V, res *pagetable.WalkResult) {
	res.Found = false
	res.Translation = pagetable.Translation{}
	res.Accesses = res.Accesses[:0]
	res.Line = res.Line[:0]
	res.Leaf = pagetable.LeafRef{}
	res.ContigPages = 0
	gres := &w.guest
	w.vm.guestAS.PageTable().WalkInto(va, gres)
	// Each guest PTE reference is a guest-physical access that the
	// hardware must itself translate via the host dimension.
	for _, gpa := range gres.Accesses {
		htr, ok := w.hostResolve(gpa, &res.Accesses)
		if !ok {
			return
		}
		res.Accesses = append(res.Accesses, htr.Translate(addr.V(gpa)))
	}
	if !gres.Found {
		return // guest page fault
	}
	// Resolve the final guest physical address through the host.
	gpa := gres.Translation.Translate(va)
	htr, ok := w.hostResolve(gpa, &res.Accesses)
	if !ok {
		return
	}
	eff, ok := effective(va, gres.Translation, htr)
	if !ok {
		return
	}
	res.Found = true
	res.Translation = eff
	res.Line = w.effectiveLine(res.Line, eff)
}

// effective computes the gVA→sPA translation the TLB may cache for va:
// its size is the smaller of the guest page and the host backing (page
// splintering), over which both mappings are linear.
func effective(va addr.V, guest, host pagetable.Translation) (pagetable.Translation, bool) {
	size := guest.Size
	if host.Size < size {
		size = host.Size
	}
	base := va.PageBase(size)
	gpa := guest.Translate(base)
	spa := host.Translate(addr.V(gpa))
	perm := guest.Perm & host.Perm
	return pagetable.Translation{
		VA: base, PA: spa, Size: size, Perm: perm,
		Accessed: true,
		Dirty:    guest.Dirty && host.Dirty,
	}, perm&addr.PermRead != 0
}

// effectiveLine appends to out the 8-translation PTE cache-line window
// around tr in effective terms: the adjacent effective-size pages whose
// guest and host mappings both exist, resolve to the same effective size,
// and carry the same permissions. This is what the coalescing logic can
// observe during a nested walk. (Resolutions here are architectural
// lookups, not extra memory references: the 2D walker already fetched
// these lines.)
func (w *NestedWalker) effectiveLine(out []pagetable.Translation, tr pagetable.Translation) []pagetable.Translation {
	pn := tr.VA.PageNum(tr.Size)
	lineStart := pn &^ (addr.PTEsPerCacheLine - 1)
	for i := uint64(0); i < addr.PTEsPerCacheLine; i++ {
		nva := addr.V((lineStart + i) << tr.Size.Shift())
		if nva == tr.VA {
			out = append(out, tr)
			continue
		}
		gtr, ok := w.vm.guestAS.PageTable().Lookup(nva)
		if !ok {
			continue
		}
		gpa := gtr.Translate(nva)
		htr, ok := w.vm.hostPT.Lookup(addr.V(gpa))
		if !ok {
			continue
		}
		eff, ok := effective(nva, gtr, htr)
		if !ok || eff.Size != tr.Size || eff.Perm != tr.Perm {
			continue
		}
		// Only translations with their accessed bit set may be
		// opportunistically coalesced; mirror the native walker's
		// behaviour by reporting the guest A bit.
		eff.Accessed = gtr.Accessed
		out = append(out, eff)
	}
	return out
}

// SetDirty is the dirty micro-op: it updates the guest PTE and the host
// backing's PTE, reporting whether both dimensions map va.
func (w *NestedWalker) SetDirty(va addr.V) bool {
	gtr, ok := w.vm.guestAS.PageTable().Lookup(va)
	if !ok {
		return false
	}
	w.vm.guestAS.PageTable().SetDirty(va)
	return w.vm.hostPT.SetDirty(addr.V(gtr.Translate(va)))
}

// SetDirtyLine implements mmu.TranslationSource: SetDirty, then a 2D
// re-walk (with its A-bit and demand-backing side effects) whose
// effective line is appended into buf[:0].
func (w *NestedWalker) SetDirtyLine(va addr.V, buf []pagetable.Translation) []pagetable.Translation {
	w.SetDirty(va)
	w.WalkInto(va, &w.dirty)
	return append(buf[:0], w.dirty.Line...)
}

// HandleFault adapts the guest OS fault handler to mmu.FaultHandler. The
// freshly mapped guest page is immediately backed in the host: a real
// guest's first-touch page zeroing raises the EPT violations right after
// the guest fault, so backing and guest mapping appear together.
func (vm *VM) HandleFault(va addr.V, write bool) bool {
	if !vm.guestAS.HandleFault(va, write) {
		return false
	}
	gtr, ok := vm.guestAS.PageTable().Lookup(va)
	if !ok {
		return false
	}
	step := uint64(addr.Size2M)
	if gtr.Size == addr.Page4K {
		step = addr.Size4K
	}
	for off := uint64(0); off < gtr.Size.Bytes(); off += step {
		if err := vm.ensureBacked(gtr.PA + addr.P(off)); err != nil {
			return false
		}
	}
	return true
}

// Populate faults in a guest range in ascending order (see osmm.Populate),
// backing each new guest page in the host as a real first-touch would.
func (vm *VM) Populate(start addr.V, length uint64) (uint64, error) {
	var mapped uint64
	end := uint64(start) + length
	for va := start; uint64(va) < end; {
		if !vm.HandleFault(va, false) {
			return mapped, osmm.ErrNoMemory
		}
		tr, ok := vm.guestAS.PageTable().Lookup(va)
		if !ok {
			return mapped, osmm.ErrNoMemory
		}
		step := tr.Size.Bytes() - va.Offset(tr.Size)
		mapped += step
		va += addr.V(step)
	}
	return mapped, nil
}

// EffectiveContiguity scans the guest page table and reports the
// contiguity of *effective* translations (post-splintering), which is
// what a virtualized TLB can actually exploit. It returns a report in the
// same form as osmm.ScanContiguity.
func (vm *VM) EffectiveContiguity() *osmm.ContiguityReport {
	// Build an ephemeral page table of effective translations, reusing
	// the scan machinery. Table pages come from a throwaway allocator.
	shadow, err := pagetable.NewISA(physmem.NewBuddy(1<<30), isa.Default())
	if err != nil {
		return osmm.ScanContiguity(vm.guestAS.PageTable())
	}
	vm.guestAS.PageTable().ForEach(func(gtr pagetable.Translation) bool {
		// Walk the guest page in effective-size steps.
		for off := uint64(0); off < gtr.Size.Bytes(); {
			va := gtr.VA + addr.V(off)
			gpa := gtr.Translate(va)
			htr, ok := vm.hostPT.Lookup(addr.V(gpa))
			if !ok {
				off += addr.Size4K
				continue
			}
			eff, ok := effective(va, gtr, htr)
			if !ok {
				off += addr.Size4K
				continue
			}
			_ = shadow.Map(eff.VA, eff.PA, eff.Size, eff.Perm)
			off += eff.Size.Bytes() - va.Offset(eff.Size)
		}
		return true
	})
	return osmm.ScanContiguity(shadow)
}
