package accel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"shef/internal/perf"
)

// bareGoldenRow is one pinned unsecured-baseline run: a design at some
// parameters and input seed, with its exact cycle counts.
type bareGoldenRow struct {
	design           string
	params           map[string]string
	seed             int64
	cycles, memCycle uint64
}

func (r bareGoldenRow) String() string {
	return fmt.Sprintf("%s %v seed %d", r.design, r.params, r.seed)
}

// bareGoldenRows lists every registered design at its default parameters
// (seed 1), then the paper-scale points Figures 5-6 and §6.2.2 run.
func bareGoldenRows(t *testing.T) []bareGoldenRow {
	t.Helper()
	defaults := map[string][2]uint64{
		"affine":    {323464, 103464},
		"bitcoin":   {16629148, 0},
		"conv":      {257928, 37928},
		"digitrec":  {293432, 73432},
		"dnnweaver": {575068, 355068},
		"matmul":    {305248, 85248},
		"vecadd":    {424288, 204288},
	}
	var rows []bareGoldenRow
	names := Designs()
	sort.Strings(names)
	for _, name := range names {
		want, ok := defaults[name]
		if !ok {
			t.Errorf("design %q has no golden baseline row", name)
			continue
		}
		rows = append(rows, bareGoldenRow{name, nil, 1, want[0], want[1]})
	}
	return append(rows,
		// Figure 6 at the full-scale parameters (seed 21).
		bareGoldenRow{"conv", map[string]string{"cin": "32", "cout": "96", "batch": "1", "lanes": "1024"}, 21, 277928, 57928},
		bareGoldenRow{"digitrec", map[string]string{"train": "8192", "tests": "64"}, 21, 292288, 72288},
		bareGoldenRow{"affine", map[string]string{"dim": "256"}, 21, 323464, 103464},
		bareGoldenRow{"dnnweaver", map[string]string{"batch": "24"}, 21, 575068, 355068},
		bareGoldenRow{"bitcoin", map[string]string{"difficulty": "15"}, 21, 3500116, 0},
		// The §6.2.2 matrix multiply (seed 12).
		bareGoldenRow{"matmul", map[string]string{"n": "256"}, 12, 855904, 635904},
		// Figure 5's vecadd sizes (seed 11).
		bareGoldenRow{"vecadd", map[string]string{"bytes": "8192"}, 11, 221776, 1776},
		bareGoldenRow{"vecadd", map[string]string{"bytes": "81920"}, 11, 236080, 16080},
		bareGoldenRow{"vecadd", map[string]string{"bytes": "819200"}, 11, 379600, 159600},
	)
}

// TestRunBareGolden pins the exact cycle counts of the unsecured baseline
// that Figures 5-6 divide by. The baseline's memory path is a model, not a
// measurement, so any change to it moves every reported overhead; a
// refactor of that path must leave this table untouched.
func TestRunBareGolden(t *testing.T) {
	for _, r := range bareGoldenRows(t) {
		w, err := New(r.design, r.params)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunBare(w, perf.Default(), r.seed)
		if err != nil {
			t.Fatalf("%s %v: %v", r.design, r.params, err)
		}
		if res.Cycles != r.cycles || res.MemCycles != r.memCycle {
			t.Errorf("%s %v: bare Cycles/MemCycles = %d/%d, want %d/%d",
				r.design, r.params, res.Cycles, res.MemCycles, r.cycles, r.memCycle)
		}
	}
}

// outputRecorder wraps a workload to keep the input and output images its
// harness hands to Check.
type outputRecorder struct {
	Workload
	inputs, outputs map[string][]byte
}

func (r *outputRecorder) Check(inputs, outputs map[string][]byte) error {
	r.inputs, r.outputs = inputs, outputs
	return r.Workload.Check(inputs, outputs)
}

// TestRunBareOutputDigests pins the SHA-256 of every output region of
// every TestRunBareGolden run. Each design's Check only samples its
// output, so a kernel rewrite that is wrong at an unsampled position
// would pass Check; this table catches it.
func TestRunBareOutputDigests(t *testing.T) {
	want := map[string][]string{
		// bitcoin has no output region: its result is a register.
		"affine map[] seed 1": {
			"out0 57a1018da21680fe31c059263ad8b6fd6a8dbed1c0ed2dcf0db330eb63648d13",
			"out1 c2b967f1bb55efa177fc491b90ae51eb2fbb987fa12757a21458ba35335a8537",
			"out2 0407995a21af565468372a5da59a6f55428085443195d5da4c81537fe9549047",
			"out3 81234e66fc1373b805300faf47a31fd7ebee9ed44b08edc3c89b8b7638777064",
		},
		"conv map[] seed 1": {
			"out0 5ae3e3ace4d74c2db991f1f85f4f9327db5bd36c37a01a2385ad37da493d267c",
			"out1 7151fbd6b13924f2eb386eb818619c46cc7ac4606e6f2b75b4de4addff6776ac",
			"out2 5c2ba3599157975e970c9d3605d70695aff76cb778723f3bf93184c3e396ca00",
			"out3 a6dfed9eb3bf720d9aded094da38e9a1029013ebe51f97034fa03bfbb06c48e1",
		},
		"digitrec map[] seed 1": {
			"out 1cafd92ad1d32f3172bdeb5c14e3a5fd704dd558ae3e033a961d0df8d2af84b1",
		},
		"dnnweaver map[] seed 1": {
			"out 87632ccdf65c306fcd6edf9e47ff47c1c976e78d21ee1f94a7e6be3f93871463",
		},
		"matmul map[] seed 1": {
			"o 0e788f0bb65ac9ddcda5663194f9dd4e5f416faf974e1d3445715d9649bdade7",
		},
		"vecadd map[] seed 1": {
			"o0 1dce1a072a3217d4a4d36ee04b00462a96a7347f659356056e8d02b8c4e1bafe",
			"o1 1d02058c09fd184d1a8506aac3356889fa5973272e8626d39a1f1b96175e51dd",
			"o2 df0de15a1e86b57edd9e3ec6a4259c9ab89cc7e24708fe38899821ead67b9a6c",
			"o3 a3ae58f27869d8e311243d13d6011f8a178d29c0b89a6961a62d78c52fbf095c",
		},
		"conv map[batch:1 cin:32 cout:96 lanes:1024] seed 21": {
			"out0 e67131c03bb9ba327a3c8b7eee895d9bd7649e2fde6fa96515f98a5c54eece83",
			"out1 9b13596e0b7a62e339df8862c201f0b0d9eb30a019f0a780aee47be126ca8e51",
			"out2 4a2307090503aa4d6658bb7019543ffb2dbf6b92688e26140b42f669783a911a",
			"out3 e0e12f0dbbf63ce8a309be454fc51fd243bbd2a27202dc058bc961b885e7671f",
		},
		"digitrec map[tests:64 train:8192] seed 21": {
			"out fbfb4fc26de578b475240debbe8d94c9c5e4c03036df9ca17454246799e59a21",
		},
		"affine map[dim:256] seed 21": {
			"out0 7493150e4931e01748a2a1a73939db26fdcacbe75a110871844721de4b1f3913",
			"out1 c05d03c5a90d50238f89818b6b851ef8788a7224acde3dab56884fd3be33b370",
			"out2 84c3d4a56a68e26cba09b3389c0353f195619c2d2d2c59736f8eba474c238b8d",
			"out3 48d15b0d4fb33e50a1da659c0128e6f69e7b66eeabe63bf512093e35aaba8308",
		},
		"dnnweaver map[batch:24] seed 21": {
			"out 043e6b035513ebb0b4214d0fc470c7439b184b9029358dd851f05a5b437be17b",
		},
		"matmul map[n:256] seed 12": {
			"o 06b4614545c0e41e0861925bde5cc24ff5581ce6d8ac1e5196ee138c2920080d",
		},
		"vecadd map[bytes:8192] seed 11": {
			"o0 77f00e6e003624bd37f9df1e741a974de96337f9681271e837746500479a9e27",
			"o1 1d2df68bb8ef6469f37d4648135f5ef2fdc6b92b5890fdf1358732328522e45d",
			"o2 f00c0f8e6755d1bad72f3e5447dc3719e1a26a2c2c71255edf1583f0e284e6d2",
			"o3 5308916a6cc98a7087b0526b81e540b3bee0648996e1e06dd0a580dd5db463ba",
		},
		"vecadd map[bytes:81920] seed 11": {
			"o0 accf7707a9651d281d7d564ac3656862f5f6d83a3e7e5830f899a4c2dc0bbdfd",
			"o1 29cee3a64cbb7f0cf3cc1a0ec2882da38eba006ed8c6359e4049cc16f1fade87",
			"o2 86ba5b8febc3ded19ab6959f39163b2a6a16c4ab3717561d22d4b65f318b2d10",
			"o3 47bb5a3d1dfd05768f39cab75a96a84222cf476852f924613d2dc25b72457173",
		},
		"vecadd map[bytes:819200] seed 11": {
			"o0 e41c66b5af2d47e7b58af1f6a40590225d3ae10ece5399de216a151248db24eb",
			"o1 630a18ee912989b24b6e383c7b38aa16352aefbed62f3083ce1dda4be3dae31f",
			"o2 ae13b3dadc0436a8c1999feb93322bc90279900bebcf20e5d1a7eb520633f79a",
			"o3 5b75dee7a0c1d914e997ee0e6b468616b407ebb45703955ec8e4b95f5f9d0fc5",
		},
	}
	for _, r := range bareGoldenRows(t) {
		w, err := New(r.design, r.params)
		if err != nil {
			t.Fatal(err)
		}
		rec := &outputRecorder{Workload: w}
		if _, err := RunBare(rec, perf.Default(), r.seed); err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		var got []string
		for _, name := range w.OutputRegions() {
			sum := sha256.Sum256(rec.outputs[name])
			got = append(got, name+" "+hex.EncodeToString(sum[:]))
		}
		if fmt.Sprint(got) != fmt.Sprint(want[r.String()]) {
			t.Errorf("%v: output digests\n%q\nwant\n%q", r, got, want[r.String()])
		}
	}
}
