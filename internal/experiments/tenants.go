package experiments

import (
	"bytes"
	"fmt"
	"time"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
	"shef/internal/shield"
)

// TenantRow is one point of the tenant-scaling sweep: a fixed workload
// over one hot zone while Zones-1 idle tenant zones populate the region
// table. OverheadPct is the simulated region-resolution charge relative
// to the rest of the data path — the number the sim-region-lookup-
// overhead-pct ceiling gates at 5% — and HitPct is the lookup cache's
// hit rate. NsPerOp is the host wall-clock per access, for trend-
// watching only.
type TenantRow struct {
	Zones        int
	NsPerOp      float64
	HitPct       float64
	OverheadPct  float64
	LookupCycles uint64
}

// tenantZoneSize keeps each swept zone small: the sweep measures table
// scaling, not data-path bandwidth.
const tenantZoneSize = 1 << 13

// TenantSweep measures region-lookup behaviour as the tenant count
// grows. The flat-table failure mode this exists to catch: per-access
// resolution cost growing with the number of resident zones.
func TenantSweep() ([]TenantRow, error) {
	counts := []int{1, 16, 256, 1024}
	const accesses = 8192
	params := perf.Default()
	out := make([]TenantRow, 0, len(counts))
	for _, zones := range counts {
		arena := uint64(zones) * tenantZoneSize
		dram := mem.NewDRAM(arena+(4<<20), params)
		ocm := mem.NewOCM(256 * 1000 * 1000)
		priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
		if err != nil {
			return nil, err
		}
		sh, err := shield.New(shield.Config{Registers: 4, ArenaEnd: arena}, priv, dram, ocm, params)
		if err != nil {
			return nil, err
		}
		dek := bytes.Repeat([]byte{0x5A}, 32)
		lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
		if err != nil {
			return nil, err
		}
		if err := sh.ProvisionLoadKey(lk); err != nil {
			return nil, err
		}
		for z := 0; z < zones; z++ {
			rc := shield.RegionConfig{
				Name: "zone", Base: uint64(z) * tenantZoneSize, Size: tenantZoneSize, ChunkSize: 512,
				AESEngines: 1, SBox: aesx.SBox16x, KeySize: aesx.AES128,
				MAC: shield.HMAC, BufferBytes: 2 * 512,
			}
			if err := sh.CreateRegion(fmt.Sprintf("tenant-%04d", z), rc); err != nil {
				return nil, err
			}
		}
		buf := make([]byte, 512)
		sh.ResetStats()
		start := time.Now()
		for a := 0; a < accesses; a++ {
			addr := uint64(a%(tenantZoneSize/512)) * 512
			if _, err := sh.WriteBurst(addr, buf); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		rep := sh.Report()
		lk2 := rep.Lookup
		total := rep.TotalCycles()
		out = append(out, TenantRow{
			Zones:        zones,
			NsPerOp:      float64(elapsed.Nanoseconds()) / float64(accesses),
			HitPct:       float64(lk2.Hits) / float64(lk2.Hits+lk2.Misses) * 100,
			OverheadPct:  float64(lk2.Cycles) / float64(total-lk2.Cycles) * 100,
			LookupCycles: lk2.Cycles,
		})
	}
	return out, nil
}
