package pagetable

import (
	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
)

// ISA-parameterized packed PTE codecs. EncodePTE/DecodePTE (pte.go) cover
// the default x86-64 layout; these dispatch on the descriptor's PTEFormat
// and additionally carry the leaf contiguity encodings: the SVNAPOT N bit
// and the ARM64 contiguous hint. The page table stores every
// descriptor's entries in its own packed format (pte.go) and detects
// contiguity blocks from their members; these codecs make the "one PTE
// encodes a whole block" claims rest on concrete bit layouts,
// round-tripped under test and fuzz (FuzzPTE).

// RISC-V Sv39/Sv48 PTE layout (RISC-V privileged spec):
//
//	bit 0   V    valid
//	bit 1   R    readable
//	bit 2   W    writable
//	bit 3   X    executable
//	bit 4   U    user accessible
//	bit 6   A    accessed
//	bit 7   D    dirty
//	bits 10..53  PPN
//	bit 63  N    SVNAPOT: ppn[3:0] = 0b1000 encodes a 64KB (16-page) range
//
// A PTE with R=W=X=0 is a pointer to the next level; any R/X leaf at a
// non-final level is a superpage whose low PPN bits must be zero.
const (
	svV = 1 << 0
	svR = 1 << 1
	svW = 1 << 2
	svX = 1 << 3
	svU = 1 << 4
	svA = 1 << 6
	svD = 1 << 7
	svN = 1 << 63

	svPPNShift = 10
	svPPNMask  = ((uint64(1) << 44) - 1) << svPPNShift

	// napotGranulePPN is the ppn[3:0] pattern naming the 64KB NAPOT size.
	napotGranulePPN = 0x8
	napotPages      = 16
)

// Simplified ARM64 stage-1 descriptor (4KB granule):
//
//	bit 0   valid
//	bit 1   type: table pointer at non-final levels, page at the final one
//	        (so a leaf at levels 2/3 — a block — has it clear)
//	bit 6   AP[1]  EL0 (user) accessible
//	bit 7   AP[2]  read-only
//	bit 10  AF     access flag
//	bit 51  DBM    models the dirty state
//	bit 52  contiguous hint (16 adjacent entries, one TLB entry)
//	bit 54  UXN    execute never
//	bits 12..47   output address
const (
	armValid  = 1 << 0
	armType   = 1 << 1
	armAPUser = 1 << 6
	armAPRO   = 1 << 7
	armAF     = 1 << 10
	armDirty  = 1 << 51
	armContig = 1 << 52
	armUXN    = 1 << 54

	armOAMask = ((uint64(1) << addr.PABits) - 1) &^ (addr.Size4K - 1)
)

// EncodePTEISA packs a translation into the descriptor's 8-byte leaf
// format. level is the radix level the entry lives at (1..3 for leaves).
// contig sets the contiguity encoding — the SVNAPOT N bit or the ARM64
// contiguous hint — and is only legal for 4KB leaves on descriptors whose
// ContigKind supports it (it is silently dropped elsewhere, as on real
// hardware where the bit position is reserved).
func EncodePTEISA(d *isa.Descriptor, t Translation, level int, contig bool) uint64 {
	switch d.Format {
	case isa.PTESv:
		return encodeSvPTE(d, t, level, contig)
	case isa.PTEARM64:
		return encodeArmPTE(d, t, level, contig)
	default:
		return EncodePTE(t, level)
	}
}

// DecodePTEISA unpacks a leaf PTE for the page at va and radix level.
// contig reports whether the entry carried the descriptor's contiguity
// encoding. ok is false when the entry is absent or malformed for the
// level (pointer where a leaf is required, misaligned superpage PPN,
// NAPOT at a superpage level).
func DecodePTEISA(d *isa.Descriptor, raw uint64, va addr.V, level int) (t Translation, contig, ok bool) {
	switch d.Format {
	case isa.PTESv:
		return decodeSvPTE(d, raw, va, level)
	case isa.PTEARM64:
		return decodeArmPTE(d, raw, va, level)
	default:
		t, ok = DecodePTE(raw, va, level)
		return t, false, ok
	}
}

func encodeSvPTE(d *isa.Descriptor, t Translation, level int, contig bool) uint64 {
	v := uint64(svV | svR) // every mapping in this simulator is readable
	if t.Perm&addr.PermWrite != 0 {
		v |= svW
	}
	if t.Perm&addr.PermExec != 0 {
		v |= svX
	}
	if t.Perm&addr.PermUser != 0 {
		v |= svU
	}
	if t.Accessed {
		v |= svA
	}
	if t.Dirty {
		v |= svD
	}
	ppn := uint64(t.PA) >> addr.Shift4K
	if contig && level == 1 && d.Contig == isa.ContigNAPOT && d.ContigPages == napotPages {
		v |= svN
		ppn = ppn&^uint64(napotPages-1) | napotGranulePPN
	}
	v |= (ppn << svPPNShift) & svPPNMask
	return v
}

func decodeSvPTE(d *isa.Descriptor, raw uint64, va addr.V, level int) (Translation, bool, bool) {
	if raw&svV == 0 || raw&(svR|svW|svX) == 0 {
		return Translation{}, false, false // absent, or a pointer (not a leaf)
	}
	size := sizeAtLevel(level)
	ppn := (raw & svPPNMask) >> svPPNShift
	napot := raw&svN != 0
	if napot {
		if level != 1 || d.Contig != isa.ContigNAPOT || ppn&uint64(napotPages-1) != napotGranulePPN {
			return Translation{}, false, false
		}
		// The one encoded PTE covers the whole granule; the VA's low VPN
		// bits select the member frame.
		ppn = ppn&^uint64(napotPages-1) | (uint64(va)>>addr.Shift4K)&uint64(napotPages-1)
	} else if ppn&(size.Frames()-1) != 0 {
		return Translation{}, false, false // misaligned superpage PPN
	}
	perm := addr.PermRead
	if raw&svW != 0 {
		perm |= addr.PermWrite
	}
	if raw&svX != 0 {
		perm |= addr.PermExec
	}
	if raw&svU != 0 {
		perm |= addr.PermUser
	}
	return Translation{
		VA:       va.PageBase(size),
		PA:       addr.P(ppn << addr.Shift4K).PageBase(size),
		Size:     size,
		Perm:     perm,
		Accessed: raw&svA != 0,
		Dirty:    raw&svD != 0,
	}, napot, true
}

func encodeArmPTE(d *isa.Descriptor, t Translation, level int, contig bool) uint64 {
	v := uint64(armValid)
	if level == 1 {
		v |= armType // page descriptor at the final level
	}
	if t.Perm&addr.PermWrite == 0 {
		v |= armAPRO
	}
	if t.Perm&addr.PermUser != 0 {
		v |= armAPUser
	}
	if t.Perm&addr.PermExec == 0 {
		v |= armUXN
	}
	if t.Accessed {
		v |= armAF
	}
	if t.Dirty {
		v |= armDirty
	}
	if contig && level == 1 && d.Contig == isa.ContigHint {
		v |= armContig
	}
	v |= uint64(t.PA) & armOAMask
	return v
}

func decodeArmPTE(d *isa.Descriptor, raw uint64, va addr.V, level int) (Translation, bool, bool) {
	if raw&armValid == 0 {
		return Translation{}, false, false
	}
	if level == 1 && raw&armType == 0 {
		return Translation{}, false, false // reserved at the final level
	}
	if level > 1 && raw&armType != 0 {
		return Translation{}, false, false // table pointer, not a block
	}
	size := sizeAtLevel(level)
	contig := raw&armContig != 0
	if contig && (level != 1 || d.Contig != isa.ContigHint) {
		return Translation{}, false, false
	}
	perm := addr.PermRead
	if raw&armAPRO == 0 {
		perm |= addr.PermWrite
	}
	if raw&armAPUser != 0 {
		perm |= addr.PermUser
	}
	if raw&armUXN == 0 {
		perm |= addr.PermExec
	}
	return Translation{
		VA:       va.PageBase(size),
		PA:       addr.P(raw & armOAMask).PageBase(size),
		Size:     size,
		Perm:     perm,
		Accessed: raw&armAF != 0,
		Dirty:    raw&armDirty != 0,
	}, contig, true
}
