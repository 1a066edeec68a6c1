package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"mixtlb/internal/simrand"
)

// TestCatalogStreamDigest pins every reference of every catalog workload,
// bit for bit: a SHA-256 over (VA, Write, PC) of the first 64 Ki refs of
// each spec, drawn through FillBatch in 512-ref chunks, at three
// footprints. 256 MiB takes the chase to its 4 Mi-node cap; 768 MiB + 4 KiB
// is not a power of two, so uniform draws take Uint64n's division path;
// 2 KiB gives mcf's chase 32 nodes, fewer than one shuffle block. Any
// change to how streams are built or generated must leave these digests
// as they are.
func TestCatalogStreamDigest(t *testing.T) {
	for _, fp := range []struct {
		name string
		size uint64
		want string
	}{
		{"256MiB", 256 << 20, "b023b04bdab3006118a426b4c6ed867a42b167272003a46c27d0ec3e895f4950"},
		{"768MiB+4KiB", 768<<20 + 4<<10, "f46de53374e802d43a5277c8d1c5c98e311983eaa464d229729d028843e5eeb1"},
		{"2KiB", 2 << 10, "bcaa905f65a365f1a27d018466da4f0f2493e0d3eb2ad0e0df6ae53505ef288f"},
	} {
		if got := catalogDigest(fp.size); got != fp.want {
			t.Errorf("%s: digest %s, want %s", fp.name, got, fp.want)
		}
	}
}

// catalogDigest hashes the first 64 Ki refs of every catalog spec built
// over footprint bytes, in catalog order, each spec's refs preceded by its
// name.
func catalogDigest(footprint uint64) string {
	const refs, chunk = 64 << 10, 512
	h := sha256.New()
	buf := make([]Ref, chunk)
	var rec [17]byte
	for _, spec := range Catalog() {
		h.Write([]byte(spec.Name))
		s := spec.Build(0x10000000000, footprint, simrand.New(42))
		for n := 0; n < refs; n += chunk {
			FillBatch(s, buf)
			for _, r := range buf {
				binary.LittleEndian.PutUint64(rec[0:], uint64(r.VA))
				rec[8] = 0
				if r.Write {
					rec[8] = 1
				}
				binary.LittleEndian.PutUint64(rec[9:], r.PC)
				h.Write(rec[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
