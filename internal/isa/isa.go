// Package isa describes translation architectures: the radix geometry a
// page-table walker traverses, the canonical virtual-address width, the
// page-size ladder the radix induces, and whether the ISA encodes physical
// contiguity in leaf PTEs (RISC-V SVNAPOT ranges, the ARM64 contiguous
// hint). The rest of the simulator is parameterized over a Descriptor, so
// the same TLB designs and OS memory manager run unchanged on x86-64
// 4-level paging, 5-level LA57, RISC-V Sv39/Sv48, and contiguity-encoding
// variants of the latter.
//
// The package deliberately imports nothing from the repository: internal/addr
// binds to a Descriptor, not the other way around, and the default
// descriptor reproduces today's x86-64 behaviour bit for bit.
package isa

import (
	"fmt"
	"sort"
)

// ContigKind classifies how an ISA's leaf PTEs encode physical contiguity
// beyond the page size itself.
type ContigKind uint8

const (
	// ContigNone: no contiguity encoding (x86-64). Hardware can still
	// coalesce speculatively (the paper's MIX/COLT machinery), but the
	// architecture promises nothing.
	ContigNone ContigKind = iota
	// ContigNAPOT: RISC-V SVNAPOT. A leaf PTE with the N bit set encodes a
	// naturally aligned power-of-two range; every PTE in the range carries
	// the same bit, so a walker learns the whole range from any member.
	ContigNAPOT
	// ContigHint: the ARM64 contiguous hint. A block of adjacent PTEs sets
	// the contiguous bit, telling the TLB it may cache the block as one
	// entry. Semantically close to NAPOT for this simulator's purposes;
	// the PTE layout differs.
	ContigHint
)

// String names the kind for diagnostics and -explain narration.
func (k ContigKind) String() string {
	switch k {
	case ContigNone:
		return "none"
	case ContigNAPOT:
		return "napot"
	case ContigHint:
		return "contig-hint"
	}
	return fmt.Sprintf("ContigKind(%d)", int(k))
}

// PTEFormat selects the packed 8-byte PTE layout an ISA uses. The page
// table stores entries in one x86-style packed format on every ISA; these
// formats exist so each ISA's entry layout claims rest on concrete
// encodings and round-trip under test.
type PTEFormat uint8

const (
	// PTEX86 is the x86-64 layout (P/RW/US/A/D/PS bits, XD at bit 63).
	PTEX86 PTEFormat = iota
	// PTESv is the RISC-V Sv39/Sv48 layout (V/R/W/X/U/A/D bits, PPN at
	// bits 10..53, the SVNAPOT N bit at 63).
	PTESv
	// PTEARM64 is a simplified ARM64 stage-1 descriptor (valid/type bits,
	// AP permissions, AF, the contiguous hint at bit 52, UXN at 54).
	PTEARM64
)

// String names the format for diagnostics.
func (f PTEFormat) String() string {
	switch f {
	case PTEX86:
		return "x86"
	case PTESv:
		return "riscv-sv"
	case PTEARM64:
		return "arm64"
	}
	return fmt.Sprintf("PTEFormat(%d)", int(f))
}

// LeafLevels is how many radix levels can terminate in a leaf page. Every
// descriptor in this repository keeps the x86 three-size ladder (4KB base
// pages plus two superpage sizes), which is what lets addr.NumPageSizes
// remain a compile-time constant across ISAs.
const LeafLevels = 3

// MaxDepth bounds the radix depth any descriptor may declare; fixed-size
// walk buffers (walker access paths, PWC level arrays) are sized by it.
const MaxDepth = 6

// Descriptor is one translation architecture. Fields are immutable after
// registration; hot paths copy what they need at construction time.
type Descriptor struct {
	// Name is the registry key ("x86-64", "sv48-napot", ...).
	Name string
	// VABits is the canonical virtual-address width. It must equal
	// PageShift plus the sum of LevelBits.
	VABits uint
	// PABits is the physical-address width used by packed PTE formats.
	PABits uint
	// PageShift is log2 of the base page size (12 for every shipped ISA).
	PageShift uint
	// LevelBits holds the per-level index widths, leaf-most level first:
	// LevelBits[0] indexes the final page-table page, LevelBits[len-1]
	// the root.
	LevelBits []uint
	// Contig is the leaf contiguity encoding, if any.
	Contig ContigKind
	// Format is the packed PTE layout (zero value: the x86-64 format).
	Format PTEFormat
	// ContigPages is the block size (in base pages) of the contiguity
	// encoding: 16 for SVNAPOT's 64KB granule and for the ARM64
	// contiguous hint at 4KB granule. Zero when Contig is ContigNone.
	ContigPages int
}

// Depth returns the number of radix levels.
func (d *Descriptor) Depth() int { return len(d.LevelBits) }

// LevelShift returns the VA bit position where level's index starts.
// Levels are numbered 1 (leaf) through Depth (root), matching the
// page-table walker's convention.
func (d *Descriptor) LevelShift(level int) uint {
	s := d.PageShift
	for i := 0; i < level-1; i++ {
		s += d.LevelBits[i]
	}
	return s
}

// IndexBits returns the index width of a level (1-based from the leaf).
func (d *Descriptor) IndexBits(level int) uint { return d.LevelBits[level-1] }

// LadderShift returns the VA shift of page-size class c (0 = base pages,
// 1 and 2 the superpage sizes): the shift at which leaves of radix level
// c+1 map pages. For every shipped descriptor this is 12/21/30.
func (d *Descriptor) LadderShift(c int) uint { return d.LevelShift(c + 1) }

// VAMask returns the mask of architecturally meaningful VA bits.
func (d *Descriptor) VAMask() uint64 {
	if d.VABits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << d.VABits) - 1
}

// Validate checks internal consistency. Descriptors built by Lookup are
// always valid; fuzzers construct arbitrary ones and must call this first.
func (d *Descriptor) Validate() error {
	if d.PageShift < 9 || d.PageShift > 16 {
		return fmt.Errorf("isa %q: page shift %d out of range [9,16]", d.Name, d.PageShift)
	}
	if len(d.LevelBits) < LeafLevels || len(d.LevelBits) > MaxDepth {
		return fmt.Errorf("isa %q: depth %d out of range [%d,%d]", d.Name, len(d.LevelBits), LeafLevels, MaxDepth)
	}
	sum := d.PageShift
	for i, b := range d.LevelBits {
		if b < 1 || b > 16 {
			return fmt.Errorf("isa %q: level %d index width %d out of range [1,16]", d.Name, i+1, b)
		}
		sum += b
	}
	if d.VABits != sum {
		return fmt.Errorf("isa %q: VA width %d != page shift + level bits = %d", d.Name, d.VABits, sum)
	}
	if d.VABits > 64 {
		return fmt.Errorf("isa %q: VA width %d exceeds 64", d.Name, d.VABits)
	}
	if d.PABits < d.PageShift || d.PABits > 64 {
		return fmt.Errorf("isa %q: PA width %d out of range [%d,64]", d.Name, d.PABits, d.PageShift)
	}
	if d.Contig == ContigNone {
		if d.ContigPages != 0 {
			return fmt.Errorf("isa %q: contig pages %d with no contiguity encoding", d.Name, d.ContigPages)
		}
		return nil
	}
	if d.ContigPages < 2 || d.ContigPages&(d.ContigPages-1) != 0 {
		return fmt.Errorf("isa %q: contig block %d pages must be a power of two >= 2", d.Name, d.ContigPages)
	}
	if d.ContigPages > 1<<d.LevelBits[0] {
		return fmt.Errorf("isa %q: contig block %d pages exceeds leaf table size %d", d.Name, d.ContigPages, 1<<d.LevelBits[0])
	}
	return nil
}

// DefaultName is the descriptor the whole repository assumed before ISAs
// were parameterized. Leaving every ISA knob unset selects it, which is
// what keeps the pre-existing golden tables byte-identical.
const DefaultName = "x86-64"

// UnknownISAError is returned when a name does not match a registered
// descriptor. Valid lists the registered names, sorted.
type UnknownISAError struct {
	Name  string
	Valid []string
}

func (e *UnknownISAError) Error() string {
	return fmt.Sprintf("unknown ISA %q (valid: %v)", e.Name, e.Valid)
}

// registry holds the shipped descriptors. All use 4KB base pages, 9-bit
// radix levels, and the 4KB/2MB/1GB ladder; what varies is depth, VA
// width, and the contiguity encoding. PABits is pinned to 48 across the
// set (LA57 hardware allows 52; the simulator's physical memories are
// far smaller, and a shared width keeps packed-PTE frame masks uniform).
var registry = map[string]*Descriptor{
	"x86-64": {
		Name: "x86-64", VABits: 48, PABits: 48, PageShift: 12,
		LevelBits: []uint{9, 9, 9, 9},
	},
	"x86-64-la57": {
		Name: "x86-64-la57", VABits: 57, PABits: 48, PageShift: 12,
		LevelBits: []uint{9, 9, 9, 9, 9},
	},
	"sv39": {
		Name: "sv39", VABits: 39, PABits: 48, PageShift: 12,
		LevelBits: []uint{9, 9, 9}, Format: PTESv,
	},
	"sv48": {
		Name: "sv48", VABits: 48, PABits: 48, PageShift: 12,
		LevelBits: []uint{9, 9, 9, 9}, Format: PTESv,
	},
	"sv48-napot": {
		Name: "sv48-napot", VABits: 48, PABits: 48, PageShift: 12,
		LevelBits: []uint{9, 9, 9, 9}, Format: PTESv,
		Contig: ContigNAPOT, ContigPages: 16, // the 64KB NAPOT granule
	},
	"arm64-contig": {
		Name: "arm64-contig", VABits: 48, PABits: 48, PageShift: 12,
		LevelBits: []uint{9, 9, 9, 9}, Format: PTEARM64,
		Contig: ContigHint, ContigPages: 16, // 16 adjacent 4KB PTEs
	},
}

// Default returns the x86-64 descriptor.
func Default() *Descriptor { return registry[DefaultName] }

// Lookup resolves a descriptor by name. The empty string selects the
// default, so ISA fields left unset everywhere mean "x86-64 as before".
func Lookup(name string) (*Descriptor, error) {
	if name == "" {
		name = DefaultName
	}
	d, ok := registry[name]
	if !ok {
		return nil, &UnknownISAError{Name: name, Valid: Names()}
	}
	return d, nil
}

// Names returns the registered descriptor names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
