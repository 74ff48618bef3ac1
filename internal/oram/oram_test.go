package oram

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
	"shef/internal/shield"
)

func newORAM(t *testing.T, blocks, blockSize int) (*ORAM, *recorder) {
	t.Helper()
	dram := mem.NewDRAM(FootprintBytes(blocks, blockSize)+1<<16, perf.Default())
	rec := &recorder{inner: dram}
	o, err := New(rec, 0, blocks, blockSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	rec.reset() // drop initialisation traffic
	return o, rec
}

// recorder logs every backend access for obliviousness checks.
type span struct {
	addr uint64
	n    int
}

type recorder struct {
	inner  *mem.DRAM
	reads  []span
	writes []span
}

func (r *recorder) ReadBurst(addr uint64, buf []byte) (uint64, error) {
	r.reads = append(r.reads, span{addr, len(buf)})
	return r.inner.ReadBurst(addr, buf)
}

func (r *recorder) WriteBurst(addr uint64, data []byte) (uint64, error) {
	r.writes = append(r.writes, span{addr, len(data)})
	return r.inner.WriteBurst(addr, data)
}

func (r *recorder) reset() { r.reads, r.writes = nil, nil }

// buckets decomposes recorded spans into the bucket indices they cover,
// given the controller's stride.
func bucketsOf(spans []span, stride int, t *testing.T) []int {
	t.Helper()
	set := map[int]bool{}
	for _, s := range spans {
		if s.addr%uint64(stride) != 0 {
			t.Fatalf("span at %#x not bucket-aligned (stride %d)", s.addr, stride)
		}
		first := int(s.addr / uint64(stride))
		n := (s.n + stride - 1) / stride
		for j := 0; j < n; j++ {
			set[first+j] = true
		}
	}
	out := make([]int, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

func TestORAMMatchesFlatMemory(t *testing.T) {
	const blocks, bs = 64, 64
	o, _ := newORAM(t, blocks, bs)
	ref := make(map[int][]byte)
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 2000; op++ {
		b := rng.Intn(blocks)
		if rng.Intn(2) == 0 {
			data := make([]byte, bs)
			rng.Read(data)
			if err := o.Write(b, data); err != nil {
				t.Fatal(err)
			}
			ref[b] = data
		} else {
			got, err := o.Read(b)
			if err != nil {
				t.Fatal(err)
			}
			want := ref[b]
			if want == nil {
				want = make([]byte, bs)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: block %d mismatch", op, b)
			}
		}
	}
}

// TestORAMAccessPatternIsPathShaped: every access touches exactly one
// root-to-leaf path of backend traffic — levels+1 buckets, read and
// written in full, regardless of which logical block is requested. This is
// Path ORAM's obliviousness invariant at the structural level, and it must
// hold on the batched path too: runs merge transactions, but the bucket
// set they cover is still exactly the path.
func TestORAMAccessPatternIsPathShaped(t *testing.T) {
	const blocks, bs = 32, 64
	o, rec := newORAM(t, blocks, bs)
	want := o.levels + 1
	for i := 0; i < 200; i++ {
		rec.reset()
		if _, err := o.Read(i % blocks); err != nil {
			t.Fatal(err)
		}
		reads := bucketsOf(rec.reads, o.stride, t)
		writes := bucketsOf(rec.writes, o.stride, t)
		if len(reads) != want || len(writes) != want {
			t.Fatalf("access %d: %d buckets read / %d written, want %d each",
				i, len(reads), len(writes), want)
		}
		for j := range reads {
			if reads[j] != writes[j] {
				t.Fatalf("access %d: read/write bucket sets differ", i)
			}
		}
		// The buckets form one valid root-to-leaf path: ascending heap
		// indices chained by the parent relation.
		if reads[0] != 0 {
			t.Fatalf("access %d: path does not start at the root", i)
		}
		for j := 1; j < len(reads); j++ {
			if (reads[j]-1)/2 != reads[j-1] {
				t.Fatalf("access %d: bucket %d is not a child of %d", i, reads[j], reads[j-1])
			}
		}
	}
}

// TestORAMAddressDistributionUniform: repeated accesses to the SAME block
// touch leaves spread across the tree (the remap hides temporal locality).
func TestORAMAddressDistributionUniform(t *testing.T) {
	const blocks, bs = 64, 64
	o, rec := newORAM(t, blocks, bs)
	leafCount := map[int]int{}
	const trials = 600
	for i := 0; i < trials; i++ {
		rec.reset()
		if _, err := o.Read(5); err != nil { // always the same block
			t.Fatal(err)
		}
		bks := bucketsOf(rec.reads, o.stride, t)
		leafCount[bks[len(bks)-1]]++
	}
	leaves := 1 << o.levels
	if len(leafCount) < leaves/2 {
		t.Fatalf("only %d of %d leaves touched across %d same-block accesses", len(leafCount), leaves, trials)
	}
	for leaf, n := range leafCount {
		if n > trials/4 {
			t.Fatalf("leaf bucket %d hit %d/%d times: distribution far from uniform", leaf, n, trials)
		}
	}
}

// TestORAMStashBounded: the stash high-water mark stays small across a
// long random workload (Path ORAM's key empirical property with Z=4).
func TestORAMStashBounded(t *testing.T) {
	const blocks, bs = 256, 32
	o, _ := newORAM(t, blocks, bs)
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, bs)
	for op := 0; op < 5000; op++ {
		b := rng.Intn(blocks)
		if rng.Intn(2) == 0 {
			o.Write(b, data)
		} else {
			o.Read(b)
		}
	}
	_, _, maxStash := o.Stats()
	if maxStash > 60 {
		t.Fatalf("stash high-water mark %d too large for Z=4", maxStash)
	}
}

func TestORAMAmplification(t *testing.T) {
	const blocks, bs = 64, 64
	o, _ := newORAM(t, blocks, bs)
	for i := 0; i < 100; i++ {
		o.Read(i % blocks)
	}
	amp := o.Amplification()
	// 2 * (levels+1) buckets * Z slots of (header+block): tens of x.
	expected := float64(2 * (o.levels + 1) * BucketSlots * (slotHeaderBytes + bs) / bs)
	if amp < expected*0.9 || amp > expected*1.1 {
		t.Fatalf("amplification %.1fx, want ≈%.1fx", amp, expected)
	}
}

func TestORAMParameterValidation(t *testing.T) {
	dram := mem.NewDRAM(1<<20, perf.Default())
	if _, err := New(dram, 0, 1, 64, 1); err == nil {
		t.Fatal("single-block ORAM accepted")
	}
	if _, err := New(dram, 0, 8, 60, 1); err == nil {
		t.Fatal("unaligned block size accepted")
	}
	o, err := New(dram, 0, 8, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Read(-1); err == nil {
		t.Fatal("negative block read accepted")
	}
	if _, err := o.Read(8); err == nil {
		t.Fatal("out-of-range block read accepted")
	}
	if err := o.Write(0, make([]byte, 32)); err == nil {
		t.Fatal("short write accepted")
	}
}

// TestORAMOverShield stacks ORAM on a provisioned Shield region: contents
// are encrypted+authenticated by the Shield, addresses hidden by ORAM —
// the full §5.2.2 composition.
func TestORAMOverShield(t *testing.T) {
	const blocks, bs = 32, 64
	foot := FootprintBytes(blocks, bs)
	regionSize := (foot + 511) / 512 * 512
	cfg := shield.Config{Regions: []shield.RegionConfig{{
		Name: "oram", Base: 0, Size: regionSize, ChunkSize: 512,
		AESEngines: 2, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		MAC: shield.HMAC, BufferBytes: 4096, Freshness: true,
	}}}
	dram := mem.NewDRAM(regionSize*2+1<<16, perf.Default())
	ocm := mem.NewOCM(1 << 30)
	priv, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	sh, err := shield.New(cfg, priv, dram, ocm, perf.Default())
	if err != nil {
		t.Fatal(err)
	}
	dek := bytes.Repeat([]byte{6}, 32)
	lk, _ := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err := sh.ProvisionLoadKey(lk); err != nil {
		t.Fatal(err)
	}
	o, err := New(sh, 0, blocks, bs, 11)
	if err != nil {
		t.Fatal(err)
	}
	secret := bytes.Repeat([]byte("ORAM+SHIELD!"), bs/12+1)[:bs]
	if err := o.Write(3, secret); err != nil {
		t.Fatal(err)
	}
	got, err := o.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("round trip through ORAM-over-Shield failed")
	}
	// Contents are invisible off-chip even though ORAM wrote them.
	sh.Flush()
	dump, _ := dram.RawRead(0, int(regionSize))
	if bytes.Contains(dump, []byte("ORAM+SHIELD!")) {
		t.Fatal("plaintext leaked beneath the ORAM layer")
	}
}

// TestErrorText: an oram.Error names its operation and block and wraps
// its cause.
func TestErrorText(t *testing.T) {
	cause := errors.New("tag mismatch")
	err := &Error{Op: "access", Block: 17, Err: cause}
	if got, want := err.Error(), "oram: access block 17: tag mismatch"; got != want {
		t.Errorf("Error text %q, want %q", got, want)
	}
	if !errors.Is(err, cause) {
		t.Error("Error does not unwrap to its cause")
	}
}
