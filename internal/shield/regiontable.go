package shield

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"shef/internal/axi"
	"shef/internal/mem"
	"shef/internal/perf"
)

// This file is the virtual region layer: the Shield's regions are no
// longer a fixed array stamped out at provisioning time but rows in a
// RegionTable that tenants create and destroy at runtime. Two pieces
// make thousands of zones affordable on one device:
//
//   - a direct-mapped lookup cache on the burst-decode path (the TLB of
//     this address space), so per-access resolution is O(1) no matter how
//     many zones exist;
//   - lazy engine sets: a zone holds no buffer lines, staging window, or
//     seal scratch until its first access materialises them, so idle
//     tenants cost only a descriptor. The set then lives until the zone
//     is destroyed or the session re-provisioned, so its freshness
//     counters never leave it.
//
// The static Config.Regions path is a thin shim over this layer: a
// provisioning resets the table and inserts each configured region as an
// eagerly-materialised zone of the default session "", preserving the
// region IDs, tag layout, and DRAM-share accounting of the fixed-array
// design bit for bit.

// vRegion is one protection zone: the descriptor half lives in the table
// for the lifetime of the zone, the engine-set half comes and goes with
// materialisation.
type vRegion struct {
	// tenant owns the zone: lifecycle operations (flush, destroy) are
	// keyed by the (tenant, name) pair. Static regions belong to the
	// default session "".
	tenant string
	cfg    RegionConfig
	id     uint32
	tagOff uint64
	// set is the lazily-materialised engine set (nil while idle).
	set atomic.Pointer[engineSet]
	// kept is the accounting of a set RetireRegion discarded, until the
	// next set takes it over (nil otherwise). Report lists it meanwhile.
	kept atomic.Pointer[RegionStats]
	// share is the channel's materialised-set counter; the engine set
	// reads it on every charge so DRAM contention follows who is actually
	// live on the channel, not who merely holds a descriptor.
	share *atomic.Int64
}

func (r *vRegion) key() string { return r.tenant + "\x00" + r.cfg.Name }

// end returns the first address past the zone.
func (r *vRegion) end() uint64 { return r.cfg.Base + r.cfg.Size }

// lookupEntry is one lookup-cache slot payload: the resolved zone and the
// epoch it was installed under. Entries are immutable once published.
type lookupEntry struct {
	base, end uint64
	epoch     uint64
	r         *vRegion
}

// lookupCache is the burst decoder's region TLB: direct-mapped, indexed
// by page number, invalidated wholesale by bumping the epoch (the
// shootdown a DestroyRegion performs). Slots are atomic.Pointers so the
// hit path is lock-free and allocation-free.
type lookupCache struct {
	slots []atomic.Pointer[lookupEntry]
	mask  uint64
	shift uint
}

// lookupEntries is the slot count of the region-lookup cache: direct-mapped
// entries resolving an accelerator address to its protection zone in O(1)
// regardless of how many tenant zones exist. lookupPageBytes is the
// coverage granule of one entry: addresses hash to a slot by page number,
// so zones smaller than a page share slots and streaming access within a
// zone reuses one entry. Both are powers of two, so the slot index is a
// shift and a mask.
const (
	lookupEntries   = 1024
	lookupPageBytes = 4096
)

func newLookupCache() *lookupCache {
	return &lookupCache{
		slots: make([]atomic.Pointer[lookupEntry], lookupEntries),
		mask:  lookupEntries - 1,
		shift: uint(bits.TrailingZeros(lookupPageBytes)),
	}
}

func (c *lookupCache) slot(addr uint64) *atomic.Pointer[lookupEntry] {
	return &c.slots[(addr>>c.shift)&c.mask]
}

// RegionTable owns the session's protection zones. All structural
// mutation (create/destroy/reset) happens under mu; the data path reads
// through the lookup cache and only falls back to mu.RLock on a miss.
type RegionTable struct {
	mu sync.RWMutex
	// byKey indexes zones by (tenant, name); sorted holds the same zones
	// ordered by base address for the binary-search slow path and for
	// deterministic iteration.
	byKey  map[string]*vRegion
	sorted []*vRegion
	// channels counts materialised engine sets per off-chip channel;
	// vRegion.share points into this map.
	channels map[int]*atomic.Int64
	nextID   uint32
	// Tag-shadow allocator: static regions occupy the shadow from its
	// base (the Shield's tagBase) to tagCursor exactly as the fixed-array
	// design laid them out; dynamic zones carve from the cursor with an
	// exact-fit free list so create/destroy churn does not leak tag space.
	tagCursor uint64
	tagFree   map[uint64][]uint64 // span size -> free offsets

	cache *lookupCache
	// epoch versions the lookup cache: destroy/reset bump it, instantly
	// invalidating every installed entry.
	epoch atomic.Uint64
	// hits/misses are the deterministic resolution counters the sim cost
	// model charges (perf.Params.RegionLookupCycles).
	hits, misses atomic.Uint64
}

func newRegionTable(tagBase uint64) *RegionTable {
	return &RegionTable{
		byKey:     make(map[string]*vRegion),
		channels:  make(map[int]*atomic.Int64),
		tagCursor: tagBase,
		tagFree:   make(map[uint64][]uint64),
		cache:     newLookupCache(),
	}
}

// channelCounter returns (creating if needed) the materialised-set
// counter for an off-chip channel. Callers hold t.mu.
func (t *RegionTable) channelCounter(ch int) *atomic.Int64 {
	c, ok := t.channels[ch]
	if !ok {
		c = new(atomic.Int64)
		t.channels[ch] = c
	}
	return c
}

// lookup resolves an address to its zone, counting a cache hit or miss.
// The hit path is lock-free and does not allocate.
func (t *RegionTable) lookup(addr uint64) *vRegion {
	slot := t.cache.slot(addr)
	epoch := t.epoch.Load()
	if e := slot.Load(); e != nil && e.epoch == epoch && addr >= e.base && addr < e.end {
		t.hits.Add(1)
		return e.r
	}
	t.misses.Add(1)
	t.mu.RLock()
	r := t.findLocked(addr)
	t.mu.RUnlock()
	if r == nil {
		return nil
	}
	slot.Store(&lookupEntry{base: r.cfg.Base, end: r.end(), epoch: epoch, r: r})
	return r
}

// findLocked binary-searches the base-sorted zones. Callers hold t.mu.
func (t *RegionTable) findLocked(addr uint64) *vRegion {
	i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i].cfg.Base > addr })
	if i == 0 {
		return nil
	}
	if r := t.sorted[i-1]; addr < r.end() {
		return r
	}
	return nil
}

// named resolves a (tenant, name) pair to its zone.
func (t *RegionTable) named(tenant, name string) *vRegion {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.byKey[tenant+"\x00"+name]
}

// snapshot returns the zones in base order. t.sorted is copy-on-write
// (insert and remove publish a fresh slice), so the returned slice is
// immutable and handing it out allocation-free is safe — the data path
// (Flush, InvalidateClean) walks it per call. Callers must not mutate.
func (t *RegionTable) snapshot() []*vRegion {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sorted
}

// lookupStats reads the resolution counters.
func (t *RegionTable) lookupStats() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}

func (t *RegionTable) resetLookupStats() {
	t.hits.Store(0)
	t.misses.Store(0)
}

// tagAlloc carves a tag-shadow span, reusing an exact-fit freed span
// when one exists.
func (t *RegionTable) tagAlloc(size uint64) uint64 {
	if free := t.tagFree[size]; len(free) > 0 {
		off := free[len(free)-1]
		t.tagFree[size] = free[:len(free)-1]
		return off
	}
	off := t.tagCursor
	t.tagCursor += size
	return off
}

func (t *RegionTable) tagRelease(off, size uint64) {
	if size == 0 {
		return
	}
	t.tagFree[size] = append(t.tagFree[size], off)
}

// insertLocked validates rc against the live table and adds it as an idle
// zone of tenant. Callers hold t.mu.
func (t *RegionTable) insertLocked(tenant string, rc RegionConfig, arenaEnd uint64) (*vRegion, error) {
	if rc.Name == "" {
		return nil, fmt.Errorf("shield: tenant %q: region needs a name", tenant)
	}
	if err := rc.validate(); err != nil {
		return nil, err
	}
	key := tenant + "\x00" + rc.Name
	if _, dup := t.byKey[key]; dup {
		return nil, fmt.Errorf("shield: tenant %q: region %q already exists", tenant, rc.Name)
	}
	if end := rc.Base + rc.Size; end > arenaEnd {
		return nil, fmt.Errorf("shield: tenant %q: region %q [%#x,+%d) exceeds the region arena (ends %#x)",
			tenant, rc.Name, rc.Base, rc.Size, arenaEnd)
	}
	// Overlap check against the base-sorted neighbours only.
	i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i].cfg.Base > rc.Base })
	if i > 0 {
		if prev := t.sorted[i-1]; prev.end() > rc.Base {
			return nil, fmt.Errorf("shield: tenant %q: region %q overlaps %q (tenant %q)",
				tenant, rc.Name, prev.cfg.Name, prev.tenant)
		}
	}
	if i < len(t.sorted) {
		if next := t.sorted[i]; rc.Base+rc.Size > next.cfg.Base {
			return nil, fmt.Errorf("shield: tenant %q: region %q overlaps %q (tenant %q)",
				tenant, rc.Name, next.cfg.Name, next.tenant)
		}
	}
	t.nextID++
	r := &vRegion{
		tenant: tenant,
		cfg:    rc,
		id:     t.nextID,
		tagOff: t.tagAlloc(uint64(rc.Chunks() * TagSize)),
		share:  t.channelCounter(rc.Channel),
	}
	t.byKey[key] = r
	// Copy-on-write: publish a fresh sorted slice so snapshot() can hand
	// out the old one without copying.
	ns := make([]*vRegion, len(t.sorted)+1)
	copy(ns, t.sorted[:i])
	ns[i] = r
	copy(ns[i+1:], t.sorted[i:])
	t.sorted = ns
	return r, nil
}

// create validates and inserts a new idle zone of tenant.
func (t *RegionTable) create(tenant string, rc RegionConfig, arenaEnd uint64) (*vRegion, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(tenant, rc, arenaEnd)
}

// destroy tears down a zone: the engine set is retired with dirty lines
// discarded (destruction is erasure), the descriptor and tag-shadow span
// are unlinked, and the lookup cache is shot down. Callers must have
// quiesced the data path (Shield.mu write side).
func (t *RegionTable) destroy(tenant, name string, ocm *mem.OCM) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.byKey[tenant+"\x00"+name]
	if r == nil {
		return fmt.Errorf("shield: tenant %q: unknown region %q", tenantLabel(tenant), name)
	}
	retireLocked(r, ocm)
	t.removeLocked(r)
	return nil
}

// retire discards a zone's engine set as destroy does but keeps the
// descriptor, so the zone's ID, key and tag span stay and its next access
// materialises a fresh set. The set's accounting stays too: the next set
// counts on from it. Callers must have quiesced the data path.
func (t *RegionTable) retire(tenant, name string, ocm *mem.OCM) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.byKey[tenant+"\x00"+name]
	if r == nil {
		return fmt.Errorf("shield: tenant %q: unknown region %q", tenantLabel(tenant), name)
	}
	if set := r.set.Load(); set != nil {
		st := set.stats()
		r.kept.Store(&st)
	}
	retireLocked(r, ocm)
	return nil
}

// releaseAll retires every zone without flushing — the session handover
// of a re-provisioning — returning all on-chip memory.
func (t *RegionTable) releaseAll(ocm *mem.OCM) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.sorted {
		retireLocked(r, ocm)
	}
	t.byKey = make(map[string]*vRegion)
	t.sorted = nil
	t.epoch.Add(1)
}

// materialize builds the zone's engine set on first use, taking over the
// accounting a retired set kept. Callers do NOT hold t.mu.
func (t *RegionTable) materialize(r *vRegion, dek []byte, port axi.MemoryPort,
	ocm *mem.OCM, params perf.Params) (*engineSet, error) {

	t.mu.Lock()
	defer t.mu.Unlock()
	if set := r.set.Load(); set != nil { // lost the race: someone built it
		return set, nil
	}
	set, err := newEngineSet(r.cfg, r.id, dek, r.tagOff, port, ocm, params)
	if err != nil {
		return nil, fmt.Errorf("shield: tenant %q: region %q: %w", r.tenant, r.cfg.Name, err)
	}
	if kept := r.kept.Load(); kept != nil {
		set.acct = *kept
	}
	set.share = r.share
	r.share.Add(1)
	r.set.Store(set)
	r.kept.Store(nil)
	return set, nil
}

// retireLocked discards a zone's engine set — dirty lines, freshness
// counters and valid bits alike — and returns its on-chip memory to the
// device pool. Callers hold t.mu and must have quiesced the data path.
func retireLocked(r *vRegion, ocm *mem.OCM) {
	set := r.set.Load()
	if set == nil {
		return
	}
	r.set.Store(nil)
	r.share.Add(-1)
	set.releaseOCM(ocm)
}

// removeLocked unlinks a zone and frees its tag-shadow span. Callers
// hold t.mu and have already retired the engine set.
func (t *RegionTable) removeLocked(r *vRegion) {
	delete(t.byKey, r.key())
	for i, s := range t.sorted {
		if s == r {
			// Copy-on-write, as in insertLocked.
			ns := make([]*vRegion, 0, len(t.sorted)-1)
			ns = append(ns, t.sorted[:i]...)
			t.sorted = append(ns, t.sorted[i+1:]...)
			break
		}
	}
	t.tagRelease(r.tagOff, uint64(r.cfg.Chunks()*TagSize))
	t.epoch.Add(1) // shootdown: every cached translation is now stale
}

// TenantZoneStats is one zone's row in a tenant report.
type TenantZoneStats struct {
	Tenant string
	Name   string
	Base   uint64
	Size   uint64
	// Live reports whether the zone currently holds a materialised
	// engine set (idle zones hold only a descriptor).
	Live bool
}

// zoneStats lists all zones in base order.
func (t *RegionTable) zoneStats() []TenantZoneStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]TenantZoneStats, 0, len(t.sorted))
	for _, r := range t.sorted {
		out = append(out, TenantZoneStats{
			Tenant: r.tenant,
			Name:   r.cfg.Name,
			Base:   r.cfg.Base,
			Size:   r.cfg.Size,
			Live:   r.set.Load() != nil,
		})
	}
	return out
}
