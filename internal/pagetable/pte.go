package pagetable

import "mixtlb/internal/addr"

// Packed 8-byte PTE formats, following the x86-64 layout (Intel SDM Vol 3).
//
// The page table stores every entry packed, 512 to a 4KB table page, with
// P, A, D and PS at their x86-64 positions and the permission set kept
// verbatim in bits the hardware ignores, so every addr.Perm round-trips
// and decoding it is one shift:
//
//	bit 0        P    present
//	bit 5        A    accessed
//	bit 6        D    dirty
//	bit 7        PS   page size (leaf at levels 2/3)
//	bits 12..51  physical frame number of the page or child table
//	bits 52..55  addr.Perm
//
// EncodePTE and DecodePTE convert a Translation to and from the hardware
// format that the Victim level bundles eight to a cache line: the same P,
// A, D and PS bits, the permissions in their architectural bits and a
// 36-bit frame number:
//
//	bit 1   R/W  writable
//	bit 2   U/S  user accessible
//	bits 12..47  physical frame number
//	bit 63  XD   execute disable
const (
	pteP  = 1 << 0
	pteRW = 1 << 1
	pteUS = 1 << 2
	pteA  = 1 << 5
	pteD  = 1 << 6
	ptePS = 1 << 7
	pteXD = 1 << 63

	ptePFNMask = ((uint64(1) << addr.PABits) - 1) &^ (addr.Size4K - 1)

	// The table format's frame field (bits 12..51) and Perm field.
	pteFrameMask = ((uint64(1) << 52) - 1) &^ (addr.Size4K - 1)
	ptePermShift = 52
	pteAllPerm   = addr.PermRead | addr.PermWrite | addr.PermExec | addr.PermUser
)

// leafPTE packs a clean leaf in the table format. PA and perm must fit
// their fields (Map checks).
func leafPTE(pa addr.P, perm addr.Perm, size addr.PageSize) uint64 {
	v := pteP | uint64(pa) | uint64(perm)<<ptePermShift
	if size != addr.Page4K {
		v |= ptePS
	}
	return v
}

// pteFrame returns the physical base a table-format PTE names.
func pteFrame(raw uint64) addr.P { return addr.P(raw & pteFrameMask) }

// decode unpacks a present table-format leaf mapping the page of the
// given size at virtual base va. Bits 56..59 are clear, so the Perm
// field decodes with one shift.
func decode(raw uint64, va addr.V, size addr.PageSize) Translation {
	return Translation{
		VA:       va,
		PA:       pteFrame(raw),
		Size:     size,
		Perm:     addr.Perm(raw >> ptePermShift),
		Accessed: raw&pteA != 0,
		Dirty:    raw&pteD != 0,
	}
}

// EncodePTE packs a translation into the 8-byte hardware format. level is
// the radix level the entry lives at (1, 2 or 3 for leaves).
func EncodePTE(t Translation, level int) uint64 {
	var v uint64 = pteP
	if t.Perm&addr.PermWrite != 0 {
		v |= pteRW
	}
	if t.Perm&addr.PermUser != 0 {
		v |= pteUS
	}
	if t.Perm&addr.PermExec == 0 {
		v |= pteXD
	}
	if t.Accessed {
		v |= pteA
	}
	if t.Dirty {
		v |= pteD
	}
	if level > 1 {
		v |= ptePS
	}
	v |= uint64(t.PA) & ptePFNMask
	return v
}

// DecodePTE unpacks an 8-byte PTE for the page at va and radix level.
// ok is false when the entry is not present or is malformed for the level
// (e.g. PS set at level 1).
func DecodePTE(raw uint64, va addr.V, level int) (Translation, bool) {
	if raw&pteP == 0 {
		return Translation{}, false
	}
	if level == 1 && raw&ptePS != 0 {
		return Translation{}, false
	}
	if level > 1 && raw&ptePS == 0 {
		return Translation{}, false // points to a table, not a leaf
	}
	size := sizeAtLevel(level)
	perm := addr.PermRead
	if raw&pteRW != 0 {
		perm |= addr.PermWrite
	}
	if raw&pteUS != 0 {
		perm |= addr.PermUser
	}
	if raw&pteXD == 0 {
		perm |= addr.PermExec
	}
	return Translation{
		VA:       va.PageBase(size),
		PA:       addr.P(raw & ptePFNMask).PageBase(size),
		Size:     size,
		Perm:     perm,
		Accessed: raw&pteA != 0,
		Dirty:    raw&pteD != 0,
	}, true
}
