package faultinject

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// TestDisabledPathZeroAlloc pins the contract the hot paths rely on: with
// no plan active, an Enabled()-gated site costs one atomic load and no
// allocation.
func TestDisabledPathZeroAlloc(t *testing.T) {
	Deactivate()
	allocs := testing.AllocsPerRun(1000, func() {
		if Enabled() {
			_ = Check("sdp.put", 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f/op, want 0", allocs)
	}
}

// TestDeterminism replays the same plan twice and requires identical
// decisions at every op — the property the seeded chaos suite stands on.
func TestDeterminism(t *testing.T) {
	run := func() []bool {
		p := &Plan{Seed: 42, Rules: []Rule{
			{Target: "sdp.get", Shard: AnyShard, Kind: KindError, Prob: 0.3},
		}}
		Activate(p)
		defer Deactivate()
		out := make([]bool, 200)
		for i := range out {
			out[i] = Check("sdp.get", i%4).Err != nil
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: run1=%v run2=%v", i, a[i], b[i])
		}
		if a[i] {
			fired++
		}
	}
	// Prob 0.3 over 200 draws: some must fire, some must not.
	if fired == 0 || fired == len(a) {
		t.Fatalf("degenerate draw: %d/%d fired", fired, len(a))
	}
}

// TestRuleWindow checks FromOp/ToOp gating: the rule is live only for
// ops in [FromOp, ToOp).
func TestRuleWindow(t *testing.T) {
	p := &Plan{Seed: 1, Rules: []Rule{
		{Target: "sdp.put", Shard: 2, Kind: KindCrash, Prob: 1, FromOp: 3, ToOp: 6},
	}}
	Activate(p)
	defer Deactivate()
	for op := 0; op < 10; op++ {
		err := Check("sdp.put", 2).Err
		want := op >= 3 && op < 6
		if (err != nil) != want {
			t.Fatalf("op %d: err=%v, want fired=%v", op, err, want)
		}
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("op %d: error %v does not unwrap to ErrInjected", op, err)
			}
			var f *Fault
			if !errors.As(err, &f) || f.Kind != KindCrash || f.Shard != 2 {
				t.Fatalf("op %d: fault metadata wrong: %+v", op, f)
			}
		}
	}
	// Other shards never match.
	if err := Check("sdp.put", 0).Err; err != nil {
		t.Fatalf("shard 0 matched shard-2 rule: %v", err)
	}
}

// TestTargetFilter checks that rules only hit their named site, and an
// empty target hits every site.
func TestTargetFilter(t *testing.T) {
	p := &Plan{Seed: 9, Rules: []Rule{
		{Target: "sdp.get", Shard: AnyShard, Kind: KindError, Prob: 1},
	}}
	Activate(p)
	defer Deactivate()
	if err := Check("sdp.get", 1).Err; err == nil {
		t.Fatal("targeted site did not fire")
	}
	if err := Check("sdp.put", 1).Err; err != nil {
		t.Fatalf("untargeted site fired: %v", err)
	}

	Activate(&Plan{Seed: 9, Rules: []Rule{{Shard: AnyShard, Kind: KindError, Prob: 1}}})
	if err := Check("anything", 7).Err; err == nil {
		t.Fatal("wildcard-target rule did not fire")
	}
}

// TestLatencyRule checks that a latency rule stalls the op for exactly
// its Latency without failing it. The stall is observed through the sleep
// hook, so the test neither sleeps nor reads a clock.
func TestLatencyRule(t *testing.T) {
	var stalls []time.Duration
	defer func(orig func(time.Duration)) { sleep = orig }(sleep)
	sleep = func(d time.Duration) { stalls = append(stalls, d) }
	p := &Plan{Seed: 3, Rules: []Rule{
		{Target: "sdp.get", Shard: AnyShard, Kind: KindLatency, Prob: 1, Latency: 5 * time.Millisecond},
	}}
	Activate(p)
	defer Deactivate()
	res := Check("sdp.get", 0)
	if res.Err != nil {
		t.Fatalf("latency rule returned error: %v", res.Err)
	}
	if len(stalls) != 1 || stalls[0] != 5*time.Millisecond {
		t.Fatalf("latency rule stalled %v, want one stall of 5ms", stalls)
	}
	if Check("sdp.put", 0); len(stalls) != 1 {
		t.Fatalf("untargeted site stalled: %v", stalls)
	}
}

// TestCorruptBytes checks corruption always changes the buffer and is
// deterministic in the seed.
func TestCorruptBytes(t *testing.T) {
	for _, n := range []int{1, 16, 300, 4096} {
		orig := make([]byte, n)
		for i := range orig {
			orig[i] = byte(i)
		}
		a := append([]byte(nil), orig...)
		b := append([]byte(nil), orig...)
		CorruptBytes(a, 77)
		CorruptBytes(b, 77)
		if bytes.Equal(a, orig) {
			t.Fatalf("n=%d: corruption was a no-op", n)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("n=%d: corruption not deterministic", n)
		}
	}
}

// TestWrapRW exercises the transport wrapper: read-side corruption mangles
// bytes deterministically, error rules fail the call, and with no plan
// active the wrapper is transparent.
func TestWrapRW(t *testing.T) {
	Deactivate()
	var buf bytes.Buffer
	rw := WrapRW(&buf, "attest.conn", 0)
	if _, err := rw.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if _, err := io.ReadFull(rw, got); err != nil || string(got) != "hello" {
		t.Fatalf("transparent path: %q, %v", got, err)
	}

	Activate(&Plan{Seed: 5, Rules: []Rule{
		{Target: "attest.conn.read", Shard: AnyShard, Kind: KindCorrupt, Prob: 1},
	}})
	defer Deactivate()
	buf.Reset()
	buf.WriteString("payload-payload-payload")
	got = make([]byte, buf.Len())
	if _, err := io.ReadFull(rw, got); err != nil {
		t.Fatal(err)
	}
	if string(got) == "payload-payload-payload" {
		t.Fatal("read-side corruption rule did not mangle bytes")
	}

	Activate(&Plan{Seed: 5, Rules: []Rule{
		{Target: "attest.conn.write", Shard: AnyShard, Kind: KindError, Prob: 1},
	}})
	if _, err := rw.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write error rule: got %v, want ErrInjected", err)
	}
}

// TestWriteCorruptionCopies pins the io.Writer contract: the caller's
// buffer must not be mutated by write-side corruption.
func TestWriteCorruptionCopies(t *testing.T) {
	Activate(&Plan{Seed: 8, Rules: []Rule{
		{Target: "t.write", Shard: AnyShard, Kind: KindCorrupt, Prob: 1},
	}})
	defer Deactivate()
	var buf bytes.Buffer
	rw := WrapRW(&buf, "t", 0)
	p := []byte("immutable-caller-buffer")
	want := append([]byte(nil), p...)
	if _, err := rw.Write(p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, want) {
		t.Fatal("write-side corruption mutated the caller's buffer")
	}
	if bytes.Equal(buf.Bytes(), want) {
		t.Fatal("write-side corruption did not mangle the stream")
	}
}

// TestSchedule checks the derived chaos schedule: deterministic, ordered,
// non-overlapping, every failure healed before totalOps.
func TestSchedule(t *testing.T) {
	a := Schedule(42, 4, 1000, 3)
	b := Schedule(42, 4, 1000, 3)
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("want 6 events, got %d/%d", len(a), len(b))
	}
	down := -1
	for i, ev := range a {
		if ev != b[i] {
			t.Fatalf("schedule not deterministic at %d: %+v vs %+v", i, ev, b[i])
		}
		if i > 0 && ev.AtOp < a[i-1].AtOp {
			t.Fatalf("events out of order at %d", i)
		}
		if ev.AtOp >= 1000 {
			t.Fatalf("event %d beyond totalOps: %+v", i, ev)
		}
		switch ev.Action {
		case ActCrash, ActPartition:
			if down != -1 {
				t.Fatalf("overlapping failures: shard %d still down at %+v", down, ev)
			}
			down = ev.Shard
		case ActRestart, ActHeal:
			if down != ev.Shard {
				t.Fatalf("heal for shard %d but %d is down", ev.Shard, down)
			}
			down = -1
		}
	}
	if down != -1 {
		t.Fatalf("shard %d left down at end of schedule", down)
	}
	if Schedule(1, 0, 100, 2) != nil || Schedule(1, 4, 0, 2) != nil {
		t.Fatal("degenerate inputs should yield nil schedule")
	}
}

// TestKindActionFaultText names each fault class and schedule action,
// and values outside them, and a Fault's error text names its site.
func TestKindActionFaultText(t *testing.T) {
	for k, want := range map[Kind]string{
		KindError: "error", KindLatency: "latency", KindCorrupt: "corrupt",
		KindCrash: "crash", KindPartition: "partition", KindPartition + 1: "kind(5)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d) = %q, want %q", int(k), got, want)
		}
	}
	for a, want := range map[Action]string{
		ActCrash: "crash", ActRestart: "restart", ActPartition: "partition", ActHeal: "heal", ActHeal + 1: "action(?)",
	} {
		if got := a.String(); got != want {
			t.Errorf("Action(%d) = %q, want %q", int(a), got, want)
		}
	}
	f := &Fault{Kind: KindCrash, Target: "sdp.get", Shard: 3, Op: 12}
	if got, want := f.Error(), "faultinject: injected crash at sdp.get shard 3 op 12"; got != want {
		t.Errorf("Fault text %q, want %q", got, want)
	}
}
