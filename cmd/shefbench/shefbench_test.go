package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shef/internal/accel"
	"shef/internal/perf"
	"shef/internal/shield"
)

const specPath = "../../BENCHMARK.json"

func smokeConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 7, trace: trace, smoke: true, spans: filepath.Join(t.TempDir(), "spans.csv")}
}

// TestSmokeWorkloads runs every workload untraced and traced through the
// command's own entry point and checks the result line: the oracles
// pass, nothing fails, and the metrics are exactly the ones
// BENCHMARK.json lists for that kind of run.
func TestSmokeWorkloads(t *testing.T) {
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				code := mainErr([]string{"-workload", w.name, "-seed", "3", "-scale", "smoke", "-trace", trace,
					"-spec", specPath, "-spans", filepath.Join(t.TempDir(), "spans.csv")}, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t failed=%d attempted=%d:\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := s.list(trace == "1")
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestSimCyclesRepeat: the simulated counters of a smoke run are a
// function of the seed alone.
func TestSimCyclesRepeat(t *testing.T) {
	for _, fn := range []func(runConfig) (*run, error){runStream, runAccel} {
		var got []float64
		for i := 0; i < 2; i++ {
			r, err := fn(smokeConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, r.metrics["sim_cycles_per_op"].Value)
		}
		if got[0] == 0 || got[0] != got[1] {
			t.Errorf("sim_cycles_per_op %v, want two equal nonzero counts", got)
		}
	}
}

// TestShieldedMatchesRunShielded: the accel workload's own Shield
// lifecycle simulates exactly what accel.RunShielded does.
func TestShieldedMatchesRunShielded(t *testing.T) {
	r, err := newAccelRig(true)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range accelDesigns {
		w, err := accel.New(d.name, d.smoke)
		if err != nil {
			t.Fatal(err)
		}
		want, err := accel.RunShielded(w, accel.V128x16, perf.Default(), accelDataSeed)
		if err != nil {
			t.Fatal(err)
		}
		if r.ref[i].Cycles != want.Cycles {
			t.Errorf("%s: %d simulated cycles, RunShielded %d", d.name, r.ref[i].Cycles, want.Cycles)
		}
	}
}

// TestTracedKVMatchesClientGet: the traced decomposition of a Get returns
// the bytes Client.Get returns.
func TestTracedKVMatchesClientGet(t *testing.T) {
	r, err := newKVRig(5, kvGeometry(true))
	if err != nil {
		t.Fatal(err)
	}
	cl, tr := r.clients[1], newTracer(time.Now(), 0)
	for k, f := range r.files {
		if k%3 == 0 {
			buf := make([]byte, r.g.payload)
			r.fill(buf, k, k%kvBodies, f.invoked.Add(1))
			if err := r.putTraced(tr, cl, f.name, buf); err != nil {
				t.Fatal(err)
			}
		}
		want, err := cl.Get(kvUser, f.name, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.getTraced(tr, cl, f.name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: traced Get differs from Client.Get", f.name)
		}
	}
	if n := len(tr.layers["sdp.node_get"].durs); n != len(r.files) {
		t.Errorf("%d node_get spans, want %d", n, len(r.files))
	}
}

// TestTamperIsCountedFailure: a byte flipped in the stream region's DRAM
// is refused by the Shield, and the harness counts it as a failed
// operation (not as wrong data) that wraps *shield.IntegrityError.
func TestTamperIsCountedFailure(t *testing.T) {
	g := streamGeometry(true)
	s, err := newStreamRig(9, g)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(g.op + 100)
	b, err := s.dram.RawRead(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.dram.RawWrite(addr, []byte{b[0] ^ 0x40}); err != nil {
		t.Fatal(err)
	}
	res := newRun()
	s.phase(rand.New(rand.NewSource(1)), budget{ops: 4}, nil, nil, res)
	s.verify(res)
	var ie *shield.IntegrityError
	if res.failed == 0 || !errors.As(res.firstErr, &ie) {
		t.Fatalf("failed=%d first=%v, want a counted *shield.IntegrityError", res.failed, res.firstErr)
	}
	if len(res.wrong) != 0 {
		t.Errorf("tampered data reached the oracle: %v", res.wrong)
	}
}

// TestQuartiles matches Python's statistics.quantiles(range(1, 11), n=4).
func TestQuartiles(t *testing.T) {
	med, q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if med != 5.5 || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 5.5 2.75 8.25", med, q1, q3)
	}
}
