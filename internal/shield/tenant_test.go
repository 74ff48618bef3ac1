package shield

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
)

// tenantRig provisions a Shield with no static regions and an arena left
// open for runtime-created zones.
func tenantRig(t testing.TB, cfg Config, dramBytes uint64, params perf.Params) *testRig {
	t.Helper()
	dram := mem.NewDRAM(dramBytes, params)
	ocm := mem.NewOCM(256 * 1000 * 1000)
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(cfg, priv, dram, ocm, params)
	if err != nil {
		t.Fatal(err)
	}
	dek := bytes.Repeat([]byte{0x5A}, 32)
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		t.Fatal(err)
	}
	return &testRig{shield: sh, dram: dram, dek: dek}
}

// zoneConfig is a small tenant zone at base.
func zoneConfig(base, size uint64) RegionConfig {
	return RegionConfig{
		Name: "zone", Base: base, Size: size, ChunkSize: 512,
		AESEngines: 1, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		MAC: HMAC, BufferBytes: 2 * 512,
	}
}

func TestCreateDestroyRegion(t *testing.T) {
	rig := tenantRig(t, Config{Registers: 4, ArenaEnd: 1 << 20}, 1<<22, perf.Default())
	sh := rig.shield
	if err := sh.CreateRegion("alice", zoneConfig(0, 1<<14)); err != nil {
		t.Fatal(err)
	}
	msg := []byte("alice's secret")
	if _, err := sh.WriteBurst(0x100, msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := sh.ReadBurst(0x100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("read back %q, want %q", buf, msg)
	}
	if err := sh.FlushTenantRegion("alice", "zone"); err != nil {
		t.Fatal(err)
	}
	if err := sh.DestroyRegion("alice", "zone"); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ReadBurst(0x100, buf); err == nil {
		t.Fatal("destroyed zone still served a read")
	}
	// The address range and tag shadow are reusable by another tenant,
	// and the destroyed data must not resurface.
	if err := sh.CreateRegion("bob", zoneConfig(0, 1<<14)); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ReadBurst(0x100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, len(msg))) {
		t.Fatal("bob's fresh zone leaked alice's plaintext")
	}
}

// TestRetireRegionKeepsStats: a retired region keeps its RegionStats row
// in Report until its next set takes the stats over and counts on from
// them; ResetStats zeroes the kept row, and DestroyRegion drops it.
func TestRetireRegionKeepsStats(t *testing.T) {
	rig := newRig(t, simpleConfig())
	sh := rig.shield
	row := func(name string) (RegionStats, bool) {
		for _, rs := range sh.Report().Regions {
			if rs.Name == name {
				return rs, true
			}
		}
		return RegionStats{}, false
	}
	if _, err := sh.WriteBurst(0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	before, _ := row("data")
	if err := sh.RetireRegion("data"); err != nil {
		t.Fatal(err)
	}
	if kept, ok := row("data"); !ok || kept != before {
		t.Fatalf("retired region's row %+v (listed %t), want %+v", kept, ok, before)
	}
	if regions := sh.Report().Regions; len(regions) != 2 || regions[0].Name != "data" {
		t.Fatalf("rows %+v, want data then stream", regions)
	}
	if _, err := sh.ReadBurst(0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if after, _ := row("data"); after.BusyCycles <= before.BusyCycles || after.Misses <= before.Misses {
		t.Fatalf("rebuilt set's row %+v does not count on from %+v", after, before)
	}

	if err := sh.RetireRegion("data"); err != nil {
		t.Fatal(err)
	}
	sh.ResetStats()
	if kept, ok := row("data"); !ok || kept != (RegionStats{Name: "data"}) {
		t.Fatalf("kept row after ResetStats: %+v (listed %t), want zeroed", kept, ok)
	}
	if err := sh.DestroyRegion("", "data"); err != nil {
		t.Fatal(err)
	}
	if rs, ok := row("data"); ok {
		t.Fatalf("destroyed region still reported: %+v", rs)
	}
}

func TestTenantErrorTextAttributable(t *testing.T) {
	rig := newRig(t, simpleConfig())
	err := rig.shield.FlushRegion("nope")
	if err == nil || !strings.Contains(err.Error(), `tenant "default"`) {
		t.Fatalf("default-session error not attributable: %v", err)
	}
	err = rig.shield.FlushTenantRegion("acme", "nope")
	if err == nil || !strings.Contains(err.Error(), `tenant "acme"`) ||
		!strings.Contains(err.Error(), `unknown region "nope"`) {
		t.Fatalf("tenant error not attributable: %v", err)
	}
}

func TestLazyMaterialization(t *testing.T) {
	rig := tenantRig(t, Config{Registers: 4, ArenaEnd: 1 << 20}, 1<<22, perf.Default())
	sh := rig.shield
	ocmBefore := sh.ocm.UsedBits()
	if err := sh.CreateRegion("idle", zoneConfig(0, 1<<14)); err != nil {
		t.Fatal(err)
	}
	if got := sh.ocm.UsedBits(); got != ocmBefore {
		t.Fatalf("idle zone pinned on-chip memory: %d -> %d bits", ocmBefore, got)
	}
	if z := sh.Zones(); len(z) != 1 || z[0].Live {
		t.Fatalf("idle zone reported live: %+v", z)
	}
	if _, err := sh.WriteBurst(0, []byte("first touch")); err != nil {
		t.Fatal(err)
	}
	if z := sh.Zones(); !z[0].Live {
		t.Fatal("touched zone not materialised")
	}
	if sh.ocm.UsedBits() == ocmBefore {
		t.Fatal("materialised zone holds no on-chip memory")
	}
}

func TestRegionLookupCacheCounts(t *testing.T) {
	params := perf.Default()
	rig := tenantRig(t, Config{Registers: 4, ArenaEnd: 1 << 20}, 1<<22, params)
	sh := rig.shield
	if err := sh.CreateRegion("hot", zoneConfig(0, 1<<14)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	const accesses = 64
	for i := 0; i < accesses; i++ {
		if _, err := sh.ReadBurst(uint64(i*32), buf); err != nil {
			t.Fatal(err)
		}
	}
	rep := sh.Report()
	lk := rep.Lookup
	if lk.Hits+lk.Misses != accesses {
		t.Fatalf("lookup counted %d+%d resolutions, want %d", lk.Hits, lk.Misses, accesses)
	}
	// The zone spans 4 pages of the default 4 KiB geometry: at most one
	// compulsory miss per page, everything else O(1) hits.
	if lk.Misses > 4 {
		t.Fatalf("%d lookup misses for a 4-page zone", lk.Misses)
	}
	if want := params.RegionLookupCycles(lk.Hits, lk.Misses); lk.Cycles != want {
		t.Fatalf("lookup cycles %d, want %d", lk.Cycles, want)
	}
	if rep.TotalCycles() <= rep.MemoryCycles()+rep.RegisterCycles+rep.InitCycles {
		t.Fatal("TotalCycles does not charge region resolution")
	}
	// Destroying any zone is a shootdown: the next access misses again.
	if err := sh.CreateRegion("other", zoneConfig(1<<15, 1<<14)); err != nil {
		t.Fatal(err)
	}
	if err := sh.DestroyRegion("other", "zone"); err != nil {
		t.Fatal(err)
	}
	sh.ResetStats()
	if _, err := sh.ReadBurst(0, buf); err != nil {
		t.Fatal(err)
	}
	if lk := sh.Report().Lookup; lk.Misses != 1 {
		t.Fatalf("post-shootdown access recorded %d misses, want 1", lk.Misses)
	}
}

// TestTenantChurn1k is the multi-tenant scaling gauntlet: 1k+ tenants
// create, use, and destroy protection zones concurrently (run under
// -race in CI).
func TestTenantChurn1k(t *testing.T) {
	const (
		workers          = 64
		tenantsPerWorker = 16 // 1024 tenants total
		zoneSize         = 1 << 13
	)
	arena := uint64(workers * tenantsPerWorker * zoneSize)
	rig := tenantRig(t, Config{Registers: 4, ArenaEnd: arena}, arena+(4<<20), perf.Default())
	sh := rig.shield
	ocmBefore := sh.ocm.UsedBits()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < tenantsPerWorker; i++ {
				tenant := fmt.Sprintf("tenant-%d-%d", w, i)
				base := uint64(w*tenantsPerWorker+i) * zoneSize
				if err := sh.CreateRegion(tenant, zoneConfig(base, zoneSize)); err != nil {
					errs[w] = err
					return
				}
				want := []byte(tenant)
				if _, err := sh.WriteBurst(base+64, want); err != nil {
					errs[w] = err
					return
				}
				if _, err := sh.ReadBurst(base+64, buf[:len(want)]); err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(buf[:len(want)], want) {
					errs[w] = fmt.Errorf("tenant %s read back %q", tenant, buf[:len(want)])
					return
				}
				if i%2 == 0 {
					if err := sh.DestroyRegion(tenant, "zone"); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Half the zones survive, all live; the destroyed half returned every
	// on-chip byte, so the device holds exactly the survivors' buffers
	// and valid bits.
	zones := sh.Zones()
	if want := workers * tenantsPerWorker / 2; len(zones) != want {
		t.Fatalf("%d zones survive churn, want %d", len(zones), want)
	}
	rc := zoneConfig(0, zoneSize)
	perZone := uint64(rc.bufferLines()*rc.ChunkSize + (rc.Chunks()+7)/8)
	if got, want := sh.ocm.UsedBits()-ocmBefore, uint64(len(zones))*perZone*8; got != want {
		t.Fatalf("churn left %d bits on-chip, want %d for %d live zones", got, want, len(zones))
	}
	// Every tag-shadow span carved is held by a survivor or free for reuse.
	span := uint64(rc.Chunks() * TagSize)
	carved := (sh.table.tagCursor - sh.tagBase) / span
	if free := uint64(len(sh.table.tagFree[span])); carved != uint64(len(zones))+free {
		t.Fatalf("%d tag spans carved, want %d live + %d free", carved, len(zones), free)
	}
	// A zone created at a destroyed zone's base reuses its tag span.
	victim := sh.table.named("tenant-0-1", "zone")
	if err := sh.DestroyRegion("tenant-0-1", "zone"); err != nil {
		t.Fatal(err)
	}
	cursor := sh.table.tagCursor
	if err := sh.CreateRegion("newcomer", zoneConfig(victim.cfg.Base, zoneSize)); err != nil {
		t.Fatal(err)
	}
	if off := sh.table.named("newcomer", "zone").tagOff; off != victim.tagOff || sh.table.tagCursor != cursor {
		t.Fatalf("new zone took tag span %#x (cursor %#x -> %#x), want the destroyed zone's %#x",
			off, cursor, sh.table.tagCursor, victim.tagOff)
	}
}
