package profiling

// The merged on/off-CPU attribution table: where the process spent its
// CPU time and where its goroutines spent their time blocked, in one
// report. The idea follows the blocked-samples observation that on-CPU
// profiles and off-CPU (block/mutex) profiles answer different halves of
// "why is throughput flat" — a serving tier can look idle to a CPU
// profile while every worker queues on one lock.

import (
	"fmt"
	"sort"
	"strings"
)

// AttrRow is one function's share of a time dimension.
type AttrRow struct {
	Function string
	Nanos    int64
	Percent  float64
}

// LabelRow is one pprof label's share of CPU time — the per-shard /
// per-session breakdown.
type LabelRow struct {
	Label   string // "key=value"
	Nanos   int64
	Percent float64
}

// Table is the merged attribution report.
type Table struct {
	TopN int
	// OnCPU ranks functions by CPU self time; OffCPU by blocked time
	// (block profile delay + mutex profile delay).
	OnCPU  []AttrRow
	OffCPU []AttrRow
	// CPUByLabel breaks total CPU time down by label pair. Only the CPU
	// profile carries labels (the runtime does not label block/mutex
	// samples), so the off-CPU side has no per-label view.
	CPUByLabel []LabelRow
	// CPUTotal and OffTotal are the dimensions' grand totals in
	// nanoseconds (off-CPU totals are sampled; see Config.BlockRate).
	CPUTotal int64
	OffTotal int64
}

// selfFrame picks the frame a sample's time is attributed to. For off-CPU
// samples the literal leaf is always the runtime's parking internals
// (sync.(*Mutex).Lock, runtime.chanrecv, ...), so attribution walks up to
// the first frame outside the runtime/sync machinery — the function that
// decided to block — and falls back to the leaf when the whole stack is
// runtime-internal.
func selfFrame(stack []string, skipRuntime bool) string {
	if len(stack) == 0 {
		return "(unknown)"
	}
	if !skipRuntime {
		return stack[0]
	}
	for _, fr := range stack {
		if !strings.HasPrefix(fr, "runtime.") && !strings.HasPrefix(fr, "sync.") &&
			!strings.HasPrefix(fr, "runtime/") && !strings.HasPrefix(fr, "internal/") {
			return fr
		}
	}
	// A stack that never leaves the runtime is scheduler/profiler
	// housekeeping (trace readers, GC workers); tag it so readers can
	// discount it against workload blocking.
	return "(runtime) " + stack[0]
}

// accumulate sums a profile's nanosecond dimension per self frame.
func accumulate(into map[string]int64, p *Profile, skipRuntime bool) int64 {
	idx := p.ValueIndex("nanoseconds")
	if idx < 0 {
		return 0
	}
	var total int64
	for _, s := range p.Samples {
		if idx >= len(s.Values) {
			continue
		}
		v := s.Values[idx]
		into[selfFrame(s.Stack, skipRuntime)] += v
		total += v
	}
	return total
}

func topRows(m map[string]int64, total int64, n int) []AttrRow {
	rows := make([]AttrRow, 0, len(m))
	for fn, ns := range m {
		rows = append(rows, AttrRow{Function: fn, Nanos: ns})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nanos != rows[j].Nanos {
			return rows[i].Nanos > rows[j].Nanos
		}
		return rows[i].Function < rows[j].Function
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	for i := range rows {
		if total > 0 {
			rows[i].Percent = 100 * float64(rows[i].Nanos) / float64(total)
		}
	}
	return rows
}

// Attribution builds the merged table from a CPU profile and the two
// off-CPU profiles. Any profile may be empty (e.g. no contention events
// sampled); nil profiles are treated as empty.
func Attribution(cpu, block, mutex *Profile, topN int) *Table {
	if topN <= 0 {
		topN = 10
	}
	t := &Table{TopN: topN}

	onCPU := map[string]int64{}
	if cpu != nil {
		t.CPUTotal = accumulate(onCPU, cpu, false)
	}
	t.OnCPU = topRows(onCPU, t.CPUTotal, topN)

	offCPU := map[string]int64{}
	for _, p := range []*Profile{block, mutex} {
		if p != nil {
			t.OffTotal += accumulate(offCPU, p, true)
		}
	}
	t.OffCPU = topRows(offCPU, t.OffTotal, topN)

	if cpu != nil {
		if idx := cpu.ValueIndex("nanoseconds"); idx >= 0 {
			byLabel := map[string]int64{}
			for _, s := range cpu.Samples {
				if idx >= len(s.Values) {
					continue
				}
				for k, v := range s.Labels {
					byLabel[k+"="+v] += s.Values[idx]
				}
			}
			rows := make([]LabelRow, 0, len(byLabel))
			for l, ns := range byLabel {
				pct := 0.0
				if t.CPUTotal > 0 {
					pct = 100 * float64(ns) / float64(t.CPUTotal)
				}
				rows = append(rows, LabelRow{Label: l, Nanos: ns, Percent: pct})
			}
			sort.Slice(rows, func(i, j int) bool {
				if rows[i].Nanos != rows[j].Nanos {
					return rows[i].Nanos > rows[j].Nanos
				}
				return rows[i].Label < rows[j].Label
			})
			t.CPUByLabel = rows
		}
	}
	return t
}

func fmtMs(ns int64) string { return fmt.Sprintf("%8.1fms", float64(ns)/1e6) }

// String renders the table for terminals and CI logs.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== on-CPU: top %d functions by CPU self time (total %s) ==\n", t.TopN, strings.TrimSpace(fmtMs(t.CPUTotal)))
	for _, r := range t.OnCPU {
		fmt.Fprintf(&b, "  %s %5.1f%%  %s\n", fmtMs(r.Nanos), r.Percent, r.Function)
	}
	if len(t.OnCPU) == 0 {
		b.WriteString("  (no CPU samples)\n")
	}
	fmt.Fprintf(&b, "== off-CPU: top %d functions by blocked time (block+mutex, sampled total %s) ==\n",
		t.TopN, strings.TrimSpace(fmtMs(t.OffTotal)))
	for _, r := range t.OffCPU {
		fmt.Fprintf(&b, "  %s %5.1f%%  %s\n", fmtMs(r.Nanos), r.Percent, r.Function)
	}
	if len(t.OffCPU) == 0 {
		b.WriteString("  (no blocked samples — nothing waited long enough to be sampled)\n")
	}
	if len(t.CPUByLabel) > 0 {
		b.WriteString("== CPU time by label ==\n")
		for _, r := range t.CPUByLabel {
			fmt.Fprintf(&b, "  %s %5.1f%%  %s\n", fmtMs(r.Nanos), r.Percent, r.Label)
		}
	}
	return b.String()
}
