package shield

import (
	"fmt"
	"testing"

	"shef/internal/perf"
)

// BenchmarkRegionLookupScaling is the virtual-region layer's headline
// gate: a steady-state workload over one hot zone while a thousand idle
// tenant zones populate the region table. The TLB-style lookup cache
// must keep per-access resolution O(1) — the simulated lookup charge
// stays under 5% of the data-path cycles (sim-region-lookup-overhead-pct,
// ceiling-gated in benchtab -check) and the cache hit rate stays high
// (sim-region-lookup-hit-pct). Both metrics come from the deterministic
// cycle model, so they are immune to CI host noise.
func BenchmarkRegionLookupScaling(b *testing.B) {
	const (
		zones    = 1024
		zoneSize = 1 << 13
		accesses = 4096
	)
	params := perf.Default()
	arena := uint64(zones * zoneSize)
	rig := tenantRig(b, Config{Registers: 4, ArenaEnd: arena}, arena+(4<<20), params)
	sh := rig.shield
	for i := 0; i < zones; i++ {
		if err := sh.CreateRegion(fmt.Sprintf("tenant-%04d", i), zoneConfig(uint64(i)*zoneSize, zoneSize)); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.ResetStats()
		for a := 0; a < accesses; a++ {
			addr := uint64(a%(zoneSize/512)) * 512
			if _, err := sh.WriteBurst(addr, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	rep := sh.Report()
	lk := rep.Lookup
	total := rep.TotalCycles()
	overheadPct := float64(lk.Cycles) / float64(total-lk.Cycles) * 100
	hitPct := float64(lk.Hits) / float64(lk.Hits+lk.Misses) * 100
	b.ReportMetric(overheadPct, "sim-region-lookup-overhead-pct")
	b.ReportMetric(hitPct, "sim-region-lookup-hit-pct")
	b.Logf("%d zones: %d hits / %d misses (%.2f%% hit), lookup %d of %d cycles → %.3f%% overhead",
		zones, lk.Hits, lk.Misses, hitPct, lk.Cycles, total, overheadPct)
}
