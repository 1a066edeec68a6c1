package gpu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"mixtlb/internal/workload"
)

// TestKernelStreamDigest pins every reference of every GPU kernel's
// per-core streams, bit for bit: a SHA-256 over (VA, Write, PC) of the
// first 16 Ki refs of each core's stream at 8 cores, drawn through
// FillBatch in 512-ref chunks, at two footprints. 768 MiB + 4 KiB is not a
// power of two, so uniform draws take Uint64n's division path. Any change
// to how kernel streams are built or generated must leave these digests
// as they are.
func TestKernelStreamDigest(t *testing.T) {
	for _, fp := range []struct {
		name string
		size uint64
		want string
	}{
		{"256MiB", 256 << 20, "4b67d499c1fd7aa190eba27d6b3cf423bacd463c89942d211ed63321aca4e4ed"},
		{"768MiB+4KiB", 768<<20 + 4<<10, "df629851770021dcabbb1be612988357ea52a8f89fd59d30935f29af7c1ae83e"},
	} {
		if got := kernelDigest(fp.size); got != fp.want {
			t.Errorf("%s: digest %s, want %s", fp.name, got, fp.want)
		}
	}
}

// kernelDigest hashes the first 16 Ki refs of every core's stream of
// every kernel at 8 cores over footprint bytes, in kernel then core
// order, each kernel's refs preceded by its name.
func kernelDigest(footprint uint64) string {
	const cores, refs, chunk = 8, 16 << 10, 512
	h := sha256.New()
	buf := make([]workload.Ref, chunk)
	var rec [17]byte
	for _, k := range Kernels() {
		h.Write([]byte(k.Name))
		for _, s := range k.Streams(cores, 0x10000000000, footprint, 42) {
			for n := 0; n < refs; n += chunk {
				workload.FillBatch(s, buf)
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
	}
	return hex.EncodeToString(h.Sum(nil))
}
