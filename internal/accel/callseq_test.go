package accel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"testing"

	"shef/internal/axi"
	"shef/internal/mem"
	"shef/internal/perf"
	"shef/internal/shield"
)

// callRecorder stands between a kernel and its bare ports and hashes
// every call it makes as one "kind addr len cycles" line. It forwards the
// streaming and gather interfaces, so axi.ReadAuto/WriteAuto and the
// gather helpers take the same path they take on the unwrapped port. Compute only adds to ctx's counter, so it is
// recorded as the datapath cycles accumulated since the previous port
// call: that total is all the cycle model reads of it.
type callRecorder struct {
	mem   *shield.Shield
	regs  axi.RegisterPort
	ctx   *Ctx
	seen  uint64 // ctx.computeCycles at the last recorded line
	sum   hash.Hash
	calls int
}

// compute records the datapath cycles accumulated since the last line.
func (r *callRecorder) compute() {
	if c := r.ctx.computeCycles; c != r.seen {
		fmt.Fprintf(r.sum, "compute 0 0 %d\n", c-r.seen)
		r.seen = c
		r.calls++
	}
}

func (r *callRecorder) record(kind string, addr uint64, n int, cycles uint64) {
	r.compute()
	fmt.Fprintf(r.sum, "%s %#x %d %d\n", kind, addr, n, cycles)
	r.calls++
}

func (r *callRecorder) ReadBurst(addr uint64, buf []byte) (uint64, error) {
	c, err := r.mem.ReadBurst(addr, buf)
	r.record("read_burst", addr, len(buf), c)
	return c, err
}

func (r *callRecorder) WriteBurst(addr uint64, data []byte) (uint64, error) {
	c, err := r.mem.WriteBurst(addr, data)
	r.record("write_burst", addr, len(data), c)
	return c, err
}

func (r *callRecorder) ReadStream(addr uint64, buf []byte) (uint64, error) {
	c, err := r.mem.ReadStream(addr, buf)
	r.record("read_stream", addr, len(buf), c)
	return c, err
}

func (r *callRecorder) WriteStream(addr uint64, data []byte) (uint64, error) {
	c, err := r.mem.WriteStream(addr, data)
	r.record("write_stream", addr, len(data), c)
	return c, err
}

// A gather is one line whose kind names its runs.
func (r *callRecorder) ReadGather(runs []axi.Burst, buf []byte) (uint64, error) {
	c, err := r.mem.ReadGather(runs, buf)
	r.record(fmt.Sprint("read_gather", runs), 0, len(buf), c)
	return c, err
}

func (r *callRecorder) WriteGather(runs []axi.Burst, data []byte) (uint64, error) {
	c, err := r.mem.WriteGather(runs, data)
	r.record(fmt.Sprint("write_gather", runs), 0, len(data), c)
	return c, err
}

func (r *callRecorder) ReadReg(i int) (uint64, uint64, error) {
	v, c, err := r.regs.ReadReg(i)
	r.record("read_reg", uint64(i), 8, c)
	return v, c, err
}

func (r *callRecorder) WriteReg(i int, v uint64) (uint64, error) {
	c, err := r.regs.WriteReg(i, v)
	r.record("write_reg", uint64(i), 8, c)
	return c, err
}

// callSequence runs w as RunBare does, but through a callRecorder, and
// returns the SHA-256 of the calls it made and their number.
func callSequence(t *testing.T, w Workload, seed int64) (string, int) {
	t.Helper()
	params := perf.Default()
	cfg := w.ShieldConfig(V128x16)
	dram := mem.NewDRAM(dramSizeFor(cfg), params)
	for name, img := range w.Inputs(rand.New(rand.NewSource(seed))) {
		if _, err := dram.WriteBurst(regionByName(cfg, name).Base, img); err != nil {
			t.Fatal(err)
		}
	}
	dram.ResetStats()
	port, err := shield.NewBare(cfg, dram, params)
	if err != nil {
		t.Fatal(err)
	}
	rec := &callRecorder{mem: port, regs: &bareRegs{regs: make([]uint64, 32)}, sum: sha256.New()}
	ctx := &Ctx{Mem: rec, Regs: rec}
	rec.ctx = ctx
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	rec.compute()
	return hex.EncodeToString(rec.sum.Sum(nil)), rec.calls
}

// TestKernelCallSequence pins, for every TestRunBareGolden row, the exact
// sequence of port, register and Compute calls the kernel makes. The
// simulated cycles are a function of that sequence alone, so a kernel may
// compute its outputs however it likes between calls, but not reorder,
// split or merge them; and the sequence must not depend on the number of
// Ps the host arithmetic runs on.
func TestKernelCallSequence(t *testing.T) {
	want := map[string]string{
		"affine map[] seed 1":                                 "4219af9d484046b5665312c94042062c8d9897d92bc702da5aae7410d95e099e",
		"bitcoin map[] seed 1":                                "a4794010fe178d4f59504fe38bd9a3ed104cde324d105beddcaa28c6147ed19d",
		"conv map[] seed 1":                                   "aee8784673d437f7f8a08c9b8972e49f3d434cc17e063381c2e16206c10ab05b",
		"digitrec map[] seed 1":                               "f4e296b00ec82ee315cf4583343268f296bca9864caaef8abf0137df601a7426",
		"dnnweaver map[] seed 1":                              "4c5050c095f864c9f9b64b1dca1e5c1be718495a4e1fcfce5feb2724df0a69ac",
		"matmul map[] seed 1":                                 "4abba5dc0c4786b7e673050ee2354703b732e69e5d9a8a44e27e7673429df42e",
		"vecadd map[] seed 1":                                 "06a5f76efc2f30562676ad6b83ae586f5e9622daa26fe4ddb7094c0a1a6d8823",
		"conv map[batch:1 cin:32 cout:96 lanes:1024] seed 21": "a703900471891362b5b47ba8f12c3193cf7d363c49edd36a88a4bb845c1710ad",
		"digitrec map[tests:64 train:8192] seed 21":           "7adf2e2147669447871dba2c36e1213092ce11b27182bbb274da901b5ef773c5",
		"affine map[dim:256] seed 21":                         "4219af9d484046b5665312c94042062c8d9897d92bc702da5aae7410d95e099e",
		"dnnweaver map[batch:24] seed 21":                     "9964614ab8d34d0ff046340620989fabed69db8595349b170f4e6776802b29c7",
		"bitcoin map[difficulty:15] seed 21":                  "111757cf2925688983cc4fc1f4094f232197caf734e9ad621b8acf1a2948ccc4",
		"matmul map[n:256] seed 12":                           "b1a80df28eb0621b49d343503e6b9598287d11ac0f1ae62c3623fa1765107e83",
		"vecadd map[bytes:8192] seed 11":                      "6d28a63f04b39d12fb02ba1f01e64df8a794583d0113113cf2503c87502ed44a",
		"vecadd map[bytes:81920] seed 11":                     "95fe47285be5f39539ba80a0abfe337eea21e8126d139470b06d8c6852ce8d3c",
		"vecadd map[bytes:819200] seed 11":                    "772608528c4c1e84b94908469d9365f8a854289631053a8560b3407d7c62bd5d",
	}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, r := range bareGoldenRows(t) {
				w, err := New(r.design, r.params)
				if err != nil {
					t.Fatal(err)
				}
				got, n := callSequence(t, w, r.seed)
				if got != want[r.String()] {
					t.Errorf("GOMAXPROCS=%d %v: %d calls, sequence digest %s, want %s", procs, r, n, got, want[r.String()])
				}
			}
		}()
	}
}
