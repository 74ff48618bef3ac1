// Package sdp implements the paper's end-to-end case study (§6.2.3):
// SDP-style GDPR-compliant storage built from smart Storage Nodes (SNs)
// with FPGA TEEs and a centralised Controller Node (CN).
//
// Each Storage Node is a key-value store engine over the Shield. Two
// identical engine sets secure its traffic — one facing the storage
// device, one facing the application's TLS session — so every file byte
// crosses the Shield twice: decrypted from storage, re-encrypted for the
// application. The Controller Node attests each SN before provisioning
// the user-key database into it.
package sdp

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/kdf"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/oram"
	"shef/internal/perf"
	"shef/internal/shield"
)

// NodeConfig sizes a Storage Node and selects its Shield engine
// configuration — the dimension swept by the paper's Table 2.
type NodeConfig struct {
	// Slots is the number of fixed-size file slots.
	Slots int
	// SlotBytes is the file slot size (1 MB in the paper's measurement).
	SlotBytes int
	// AuthBlock is the authentication block size (4 KB in the paper).
	AuthBlock int
	// Engines is the AES engine count per engine set.
	Engines int
	// SBox is the per-engine S-box parallelism.
	SBox aesx.SBoxParallelism
	// MAC selects HMAC or PMAC engines.
	MAC shield.MACKind
	// BufferBytes is the per-set buffer (16 KB in the paper).
	BufferBytes int
	// Oblivious fronts the store region with a Path ORAM (§5.2.2): file
	// blocks are placed by oblivious path accesses, so a cloud operator
	// watching the storage device's address bus cannot tell which file —
	// and therefore which user — a request serves. The Shield still hides
	// contents; the ORAM hides the access pattern, at a measured bandwidth
	// amplification.
	Oblivious bool
	// WriteBack is the serving-tier buffer policy: Put leaves the store
	// region's lines dirty on-chip instead of flushing after every
	// operation, so a working set that fits the buffer is served without
	// re-sealing — evictions and Sync write dirty lines back. The
	// durability barrier moves to Sync; the default (write-through)
	// policy keeps every Put sealed to DRAM before returning, which is
	// what the paper's Table 2 measurement models. Oblivious nodes
	// always write through (the ORAM's visibility schedule is part of
	// its obliviousness argument).
	WriteBack bool
	// TenantZones places each user's files in their own runtime-created
	// protection zone instead of one shared static store region: the
	// store arena is carved into per-user zones (TenantSlots slots each),
	// created lazily on a user's first Put via the Shield's virtual
	// region layer and destroyed by EraseTenant, which makes GDPR
	// erasure structural. Every zone is named "store", and a zone's keys
	// derive from (DEK, region name), so tenants share keys; what
	// separates them, and a destroyed zone from the next one at its
	// address, is the region ID that every chunk's IV and MAC bind.
	// Destruction discards the zone's region ID, freshness counters and
	// valid bits. The tls region stays static (it is the node's own
	// network endpoint, not tenant data). Incompatible with Oblivious
	// (the ORAM fronts one flat store region).
	TenantZones bool
	// TenantSlots is how many file slots each per-user zone holds
	// (TenantZones mode; default 1). Slots must divide evenly into
	// per-user zones.
	TenantSlots int
	// ResponseCacheBytes sizes the sealed-response cache: the most
	// recently served tls images (ciphertext + tags), kept in the node's
	// on-chip budget next to the network port so a repeat Get of an
	// unmodified file is answered at line rate without another pass
	// through either engine set. Safe because the tls region seals
	// deterministically within a session (no freshness counters on that
	// region) — a cached image is bit-identical to a re-sealed one — and
	// Put invalidates the file's entry. 0 disables the cache, which is
	// the Table 2 configuration (the paper measures the raw data path).
	ResponseCacheBytes int
}

// Table2Configs are the five Shield configurations of the paper's Table 2,
// in order: (engines, S-box, MAC) = (4,4x,HMAC), (4,16x,HMAC),
// (4,16x,PMAC), (8,16x,PMAC), (16,16x,PMAC).
func Table2Configs() []NodeConfig {
	base := NodeConfig{Slots: 4, SlotBytes: 1 << 20, AuthBlock: 4096, BufferBytes: 16 << 10}
	mk := func(eng int, sbox aesx.SBoxParallelism, mac shield.MACKind) NodeConfig {
		c := base
		c.Engines, c.SBox, c.MAC = eng, sbox, mac
		return c
	}
	return []NodeConfig{
		mk(4, aesx.SBox4x, shield.HMAC),
		mk(4, aesx.SBox16x, shield.HMAC),
		mk(4, aesx.SBox16x, shield.PMAC),
		mk(8, aesx.SBox16x, shield.PMAC),
		mk(16, aesx.SBox16x, shield.PMAC),
	}
}

// LineRateParams models the Storage Node's data fabric: a line-rate
// storage/network interface (≈1 GB/s at the 250 MHz Shield clock) rather
// than the F1 DRAM channel.
func LineRateParams() perf.Params {
	p := perf.Default()
	p.DRAMBytesPerCycle = 4
	return p
}

// Region layout of the node's device memory.
const (
	storeBase = 0x0000_0000
	tlsBase   = 0x4000_0000
)

// Node is one SDP Storage Node: a KV engine over a Shield. File metadata
// (directory, sizes) lives in node-internal (on-chip) state; file contents
// live encrypted in the store region; application traffic stages through
// the tls region.
//
// A Node is safe for concurrent use and pipelines requests the way the
// hardware does: its tls engine set (the network endpoint) and its store
// engine set are separate pipelines, so one request's store stage
// overlaps another's tls stage. A request passes through:
//   - the tls stage, one request at a time (tlsMu), because the tls
//     region is the node's single staging area in device memory: a Put's
//     DMA in and tls read, a Get's tls write and DMA out;
//   - the store stage: the per-user CTR layer on the request's own
//     scratch, then the store engine set or ORAM and the store flush,
//     serialised only by the engine set's and the ORAM's own locks;
//   - short sections under mu for the directory, slots, user keys,
//     staging scratch and the response cache.
//
// Per-file order comes from a stripe of fileLocks: a Put holds its
// file's stripe for its whole body, and a Get holds it shared from the
// directory lookup until its bytes are out of the store, so a size and
// its bytes always come from the same Put. Cluster spreads load over
// many nodes.
type Node struct {
	cfg    NodeConfig
	sh     *shield.Shield
	dram   *mem.DRAM
	params perf.Params
	dek    []byte
	oram   *oram.ORAM // non-nil in oblivious mode; fronts the store region

	tlsLayout shield.RegionLayout

	// sessMu serialises Put and Get, which seal and open on tls, the node's
	// own Data Owner endpoint (the same TLSSession a Client holds).
	sessMu sync.Mutex
	tls    *TLSSession

	fileLocks [nodeStripes]sync.RWMutex
	tlsMu     sync.Mutex

	mu        sync.Mutex
	userKeys  map[string][]byte
	directory map[string]fileEntry
	slots     slotAlloc

	// Tenant-zone state (TenantZones mode): live per-user zones and the
	// free-list of zone base addresses in the store arena.
	zones     map[string]*tenantZone
	freeZones []uint64

	// gen numbers cache-relevant events: each Put's start stamps its file
	// entry with a new gen, and clearing the response cache records one in
	// clearedGen. A Get notes gen when it reads the directory and caches
	// its response only if neither happened since (respInsert).
	gen, clearedGen uint64

	// stages is the free list of request scratch. Each in-flight request
	// holds its own, grown to the largest payload seen, so the
	// steady-state serving loop allocates only the bytes it returns.
	stages      []*stage
	userCiphers map[string]*userCipher

	// Sealed-response cache (nil unless cfg.ResponseCacheBytes > 0),
	// LRU-evicted to stay within its on-chip byte budget. respCycles is
	// the simulated cost of cache-served responses (an on-chip copy),
	// accounted separately because cached hits bypass both engine sets.
	respCache          map[string]*respEntry
	respBytes          int
	respClock          uint64
	respHits, respMiss uint64
	respCycles         uint64
}

// nodeStripes is the number of per-file lock stripes in a Node. It is
// prime, so a node's stripe is independent of the shard a file routes to
// (fnv1a % shards).
const nodeStripes = 31

// respEntry is one cached sealed response: the file's tls image as the
// Data Owner receives it, plus an LRU stamp.
type respEntry struct {
	size     int
	ct, tags []byte
	last     uint64
}

// stage is one in-flight request's scratch: the plaintext staging buffer
// and the CTR scratch of the per-user layer.
type stage struct {
	buf []byte
	ctr aesx.CTRStream
}

// userCipher is the cached per-(user, file) GDPR layer state: the AES
// block under the derived file key, plus the file IV.
// Deriving these per operation was pure hot-path waste — the key is a
// function of (user key, file name) only — and the cache is invalidated
// wholesale whenever user keys are (re)provisioned.
type userCipher struct {
	block cipher.Block
	iv    [aesx.IVSize]byte
}

// maxUserCiphers bounds the cipher cache; on overflow the cache resets
// (a full sweep is simpler than LRU and provisioning-rare).
const maxUserCiphers = 4096

type fileEntry struct {
	slot int
	size int
	user string
	gen  uint64 // the gen of the newest Put begun on the file
}

// slotAlloc hands out file slots in ascending order from next up to
// limit. A Put claims its slot when it reserves and releases it if it
// fails, so a failed Put never leaves a slot claimed, even while other
// Puts hold later slots: releasing the top slot lowers next, and any
// other goes on free for the next claim.
type slotAlloc struct {
	next, limit int
	free        []int
}

func (a *slotAlloc) claim() (int, bool) {
	if k := len(a.free); k > 0 {
		s := a.free[k-1]
		a.free = a.free[:k-1]
		return s, true
	}
	if a.next >= a.limit {
		return 0, false
	}
	a.next++
	return a.next - 1, true
}

func (a *slotAlloc) release(s int) {
	if s == a.next-1 {
		a.next--
		return
	}
	a.free = append(a.free, s)
}

// tenantZone is one user's protection zone in the store arena. Its slots
// are global slot indices inside the zone.
type tenantZone struct {
	base  uint64
	slots slotAlloc
}

// oramConfig shapes the store-region ORAM: one ORAM block per auth block,
// buckets padded to the chunk size so bucket stores stream as full-chunk
// writes, position map recursing once the table outgrows 4K entries.
func (c NodeConfig) oramConfig(seed int64) oram.Config {
	return oram.Config{
		Base:            storeBase,
		Blocks:          c.Slots * c.SlotBytes / c.AuthBlock,
		BlockSize:       c.AuthBlock,
		Seed:            seed,
		ChunkAlign:      c.AuthBlock,
		PosMapThreshold: 4096,
	}
}

func (c NodeConfig) storeSize() uint64 {
	if !c.Oblivious {
		return uint64(c.Slots * c.SlotBytes)
	}
	// The ORAM tree (plus recursive position maps) replaces the flat slot
	// array; the region must cover its footprint in whole chunks.
	f := c.oramConfig(0).FootprintBytes()
	a := uint64(c.AuthBlock)
	return (f + a - 1) / a * a
}

func (c NodeConfig) tlsSize() uint64 { return uint64(c.SlotBytes) }

// ShieldConfig builds the two identical engine sets of §6.2.3. In
// TenantZones mode only the tls region is static; the store arena is
// left to runtime-created per-user zones (ArenaEnd bounds it).
func (c NodeConfig) ShieldConfig() shield.Config {
	mk := func(name string, base uint64, size uint64) shield.RegionConfig {
		return shield.RegionConfig{
			Name: name, Base: base, Size: size, ChunkSize: c.AuthBlock,
			AESEngines: c.Engines, SBox: c.SBox, KeySize: aesx.AES128,
			MAC: c.MAC, BufferBytes: c.BufferBytes,
		}
	}
	tls := mk("tls", tlsBase, c.tlsSize())
	tls.Channel = 1 // the TLS/network port is a separate physical interface
	if c.TenantZones {
		return shield.Config{
			Regions:   []shield.RegionConfig{tls},
			Registers: 16,
			ArenaEnd:  storeBase + uint64(c.Slots*c.SlotBytes),
		}
	}
	store := mk("store", storeBase, c.storeSize())
	// Files are overwritten in place, so the store region carries replay
	// counters: a cloud operator must not be able to roll a record back
	// to a pre-erasure version (the GDPR deletion guarantee).
	store.Freshness = true
	return shield.Config{
		Regions:   []shield.RegionConfig{store, tls},
		Registers: 16,
	}
}

// storeZoneConfig is one user's protection zone: a store-shaped region,
// created under the user's tenant identity and replay-protected like the
// static store (rollback across erasure is the attack GDPR deletion
// forbids).
func (c NodeConfig) storeZoneConfig(base uint64) shield.RegionConfig {
	return shield.RegionConfig{
		Name: "store", Base: base,
		Size: uint64(c.TenantSlots * c.SlotBytes), ChunkSize: c.AuthBlock,
		AESEngines: c.Engines, SBox: c.SBox, KeySize: aesx.AES128,
		MAC: c.MAC, BufferBytes: c.BufferBytes,
		Freshness: true,
	}
}

// NewNode boots a Storage Node: Shield construction plus Load Key
// provisioning with the session DEK (which the CN established during
// attestation).
func NewNode(cfg NodeConfig, dek []byte, params perf.Params) (*Node, error) {
	if cfg.Slots <= 0 || cfg.SlotBytes <= 0 {
		return nil, fmt.Errorf("sdp: node needs at least one slot: %w", ErrConfig)
	}
	if cfg.AuthBlock <= 0 {
		return nil, fmt.Errorf("sdp: auth block %d must be positive: %w", cfg.AuthBlock, ErrConfig)
	}
	if cfg.SlotBytes%cfg.AuthBlock != 0 {
		return nil, fmt.Errorf("sdp: slot size must be a multiple of the auth block: %w", ErrConfig)
	}
	if cfg.TenantZones {
		if cfg.Oblivious {
			return nil, fmt.Errorf("sdp: tenant zones and the oblivious store are mutually exclusive: %w", ErrConfig)
		}
		if cfg.TenantSlots <= 0 {
			cfg.TenantSlots = 1
		}
		if cfg.Slots%cfg.TenantSlots != 0 {
			return nil, fmt.Errorf("sdp: %d slots do not divide into zones of %d: %w",
				cfg.Slots, cfg.TenantSlots, ErrConfig)
		}
	}
	if cfg.Oblivious {
		if cfg.Slots*cfg.SlotBytes/cfg.AuthBlock < 2 {
			return nil, fmt.Errorf("sdp: oblivious node needs at least two auth blocks of store: %w", ErrConfig)
		}
		if len(dek) < 8 {
			return nil, fmt.Errorf("sdp: oblivious node needs a session DEK of at least 8 bytes: %w", ErrConfig)
		}
	}
	scfg := cfg.ShieldConfig()
	if err := scfg.Validate(); err != nil {
		return nil, err
	}
	var tagBytes uint64
	for _, r := range scfg.Regions {
		tagBytes += uint64(r.Chunks() * shield.TagSize)
	}
	if cfg.TenantZones {
		// Runtime zones claim tag shadow from the same pool the static
		// regions would have: budget for the whole store arena.
		tagBytes += uint64(cfg.Slots * cfg.SlotBytes / cfg.AuthBlock * shield.TagSize)
	}
	dram := mem.NewDRAM(uint64(tlsBase)+cfg.tlsSize()+tagBytes+1<<20, params)
	ocm := mem.NewOCM(1 << 32)
	// The attestation group is kept small for simulation speed; a real
	// deployment would use modp.Group14.
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		return nil, err
	}
	sh, err := shield.New(scfg, priv, dram, ocm, params)
	if err != nil {
		return nil, err
	}
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		return nil, err
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		sh:        sh,
		dram:      dram,
		params:    params,
		dek:       append([]byte(nil), dek...),
		userKeys:  make(map[string][]byte),
		directory: make(map[string]fileEntry),
		slots:     slotAlloc{limit: cfg.Slots},
	}
	n.tlsLayout, _ = sh.Layout("tls")
	n.tls, err = newTLSSession(cfg, n.dek)
	if err != nil {
		return nil, err
	}
	n.userCiphers = make(map[string]*userCipher)
	if cfg.ResponseCacheBytes > 0 {
		n.respCache = make(map[string]*respEntry)
	}
	if cfg.TenantZones {
		n.zones = make(map[string]*tenantZone)
		zoneBytes := uint64(cfg.TenantSlots * cfg.SlotBytes)
		// Pushed high-to-low so zones hand out in ascending address order.
		for base := storeBase + uint64(cfg.Slots*cfg.SlotBytes) - zoneBytes; ; base -= zoneBytes {
			n.freeZones = append(n.freeZones, base)
			if base == storeBase {
				break
			}
		}
	}
	if cfg.Oblivious {
		// The leaf-draw seed derives from the session DEK: deterministic
		// per session, invisible to the host.
		seed := int64(binary.LittleEndian.Uint64(dek[:8]))
		n.oram, err = oram.NewWithConfig(sh, cfg.oramConfig(seed))
		if err != nil {
			return nil, fmt.Errorf("sdp: oblivious store: %w", err)
		}
	}
	return n, nil
}

// ProvisionUserKeys installs the CN's user-key database (paper: "The CN
// securely provisions a database of user keys into the TEE").
func (n *Node) ProvisionUserKeys(keys map[string][]byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for u, k := range keys {
		n.userKeys[u] = append([]byte(nil), k...)
	}
	// A (re)provisioned key invalidates any cached per-file cipher
	// derived from the old key; provisioning is rare, so drop them all,
	// along with any sealed responses whose GDPR layer they produced.
	// The clear is recorded, so no Get already in flight refills the
	// cache with an image the old key produced.
	clear(n.userCiphers)
	clear(n.respCache)
	n.respBytes = 0
	n.gen++
	n.clearedGen = n.gen
}

// respInvalidate drops a file's cached sealed response (its content is
// about to change) and returns the dropped entry, or nil. Caller holds
// mu.
func (n *Node) respInvalidate(name string) *respEntry {
	r, ok := n.respCache[name]
	if !ok {
		return nil
	}
	n.respBytes -= len(r.ct) + len(r.tags)
	delete(n.respCache, name)
	return r
}

// respInsert caches a file's sealed response, evicting least-recently
// served entries until the image fits the on-chip budget. Entries larger
// than the whole budget are not cached. seen is the gen the Get noted
// when it read the directory: if a Put of the file has begun since, or
// the cache was cleared, the response may be older than what the next
// Get must see, so it is not cached. The image is copied into the
// buffers of an entry it displaces, so a full cache churns without
// allocating. Caller holds mu.
func (n *Node) respInsert(name string, seen uint64, size int, ct, tags []byte) {
	need := len(ct) + len(tags)
	if n.respCache == nil || need > n.cfg.ResponseCacheBytes {
		return
	}
	if e, ok := n.directory[name]; !ok || e.gen > seen || n.clearedGen > seen {
		return
	}
	r := n.respInvalidate(name)
	for n.respBytes+need > n.cfg.ResponseCacheBytes {
		victim, oldest := "", ^uint64(0)
		// Every entry's LRU stamp is distinct, so the minimum is the same
		// in any walk order.
		for k, e := range n.respCache {
			if e.last < oldest {
				victim, oldest = k, e.last
			}
		}
		if v := n.respInvalidate(victim); r == nil {
			r = v
		}
	}
	if r == nil {
		r = new(respEntry)
	}
	n.respClock++
	r.size, r.last = size, n.respClock
	r.ct = append(r.ct[:0], ct...)
	r.tags = append(r.tags[:0], tags...)
	n.respCache[name] = r
	n.respBytes += need
}

// respServe answers a Get from the sealed-response cache if the file's
// image is resident, copying it into the caller's buffers. The simulated
// cost is one on-chip copy (the cache sits next to the network port; no
// engine set runs). Caller holds mu, has already authorised the user,
// and has checked that ct/tags hold the file's aligned extent.
func (n *Node) respServe(name string, ct, tags []byte) (int, bool) {
	r, ok := n.respCache[name]
	if !ok {
		return 0, false
	}
	copy(ct, r.ct)
	copy(tags, r.tags)
	n.respClock++
	r.last = n.respClock
	n.respHits++
	n.respCycles += uint64(len(r.ct)+len(r.tags))/64 + n.params.ChunkIssueCycles
	return r.size, true
}

// RespCacheStats reports the sealed-response cache's activity: hits,
// misses (Gets that ran the full data path on a cache-enabled node), and
// the simulated cycles of cache-served responses.
func (n *Node) RespCacheStats() (hits, misses, cycles uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.respHits, n.respMiss, n.respCycles
}

// takeStage checks out request scratch whose buffer holds an aligned
// payload of nBytes. Caller holds mu.
func (n *Node) takeStage(nBytes int) *stage {
	var st *stage
	if k := len(n.stages); k > 0 {
		st, n.stages = n.stages[k-1], n.stages[:k-1]
	} else {
		st = new(stage)
	}
	if cap(st.buf) < nBytes {
		st.buf = make([]byte, nBytes)
	}
	st.buf = st.buf[:nBytes]
	return st
}

// giveStage returns request scratch to the free list. Caller holds mu.
func (n *Node) giveStage(st *stage) { n.stages = append(n.stages, st) }

// dmaTLSIn lands a sealed payload extent in the tls region: the host DMA
// plus the valid-bit update. Only the extent's chunks are written and
// marked — the rest of the (large) staging region keeps whatever it held,
// and crucially the *store* region's buffer residency is untouched (the
// old path invalidated every clean line in both engine sets per Put,
// which is exactly the aggregate on-chip cache a fleet of shards needs).
// Caller holds tlsMu.
func (n *Node) dmaTLSIn(ct, tags []byte) error {
	// Defensive drain: staged traffic never leaves tls lines dirty, but a
	// clean region costs nothing to flush and a dirty one would otherwise
	// overwrite the DMA on eviction.
	if err := n.sh.FlushRegion("tls"); err != nil {
		return err
	}
	if err := n.dram.RawWrite(n.tlsLayout.DataBase, ct); err != nil {
		return err
	}
	if err := n.dram.RawWrite(n.tlsLayout.TagBase, tags); err != nil {
		return err
	}
	return n.sh.MarkPreloadedRange("tls", 0, uint64(len(ct)))
}

// dmaTLSOut flushes the tls staging set and DMAs the sealed payload
// extent out into ct/tags (exactly the aligned extent). Caller holds
// tlsMu.
func (n *Node) dmaTLSOut(ct, tags []byte) error {
	// In oblivious mode the store region carries the ORAM's deferred path
	// writes; they must land before the host observes the device (the
	// ORAM's visibility schedule is part of its obliviousness argument).
	if n.oram != nil {
		if err := n.sh.FlushRegion("store"); err != nil {
			return err
		}
	}
	if err := n.sh.FlushRegion("tls"); err != nil {
		return err
	}
	if err := n.dram.RawReadInto(n.tlsLayout.DataBase, ct); err != nil {
		return err
	}
	return n.dram.RawReadInto(n.tlsLayout.TagBase, tags)
}

// reserve validates a Put and claims the file's slot. An existing file
// keeps its slot if the user owns it. A new file claims the store's next
// free slot or, with tenant zones, the next free slot inside the user's
// own protection zone, created on first use; slots stay global indices
// (the arena's address math is unchanged), and the zone boundary is what
// the Shield's region table enforces. A Put that fails after reserve
// hands a new slot back (release), so it leaves the slot free. reserve
// also stamps an existing file with the Put's gen and drops its cached
// response. Caller holds mu and the file's stripe.
// Failures are application rejections (ErrRejected): authoritative
// verdicts the cluster's resilience layer must not retry or hold against
// the node's health.
func (n *Node) reserve(user, name string, size int) (entry fileEntry, claimed bool, err error) {
	if _, ok := n.userKeys[user]; !ok {
		return fileEntry{}, false, rejectf("sdp: user %q has no provisioned key", user)
	}
	if size < 1 {
		return fileEntry{}, false, rejectf("sdp: empty file (a file holds at least one byte)")
	}
	if size > n.cfg.SlotBytes {
		return fileEntry{}, false, rejectf("sdp: file of %d bytes exceeds slot size %d", size, n.cfg.SlotBytes)
	}
	entry, exists := n.directory[name]
	var ok bool
	switch {
	case exists && entry.user != user:
		return fileEntry{}, false, rejectf("sdp: user %q may not access %q (GDPR policy)", user, name)
	case exists:
	case !n.cfg.TenantZones:
		if entry.slot, ok = n.slots.claim(); !ok {
			return fileEntry{}, false, reject(errors.New("sdp: node full"))
		}
	default:
		z, err := n.zoneFor(user)
		if err != nil {
			return fileEntry{}, false, err
		}
		if entry.slot, ok = z.slots.claim(); !ok {
			return fileEntry{}, false, rejectf("sdp: user %q's zone is full (%d slots)", user, n.cfg.TenantSlots)
		}
	}
	n.gen++
	if exists {
		// Only the stored entry's gen changes now: its size and bytes stay
		// the old Put's until commit.
		stamped := entry
		stamped.gen = n.gen
		n.directory[name] = stamped
		n.respInvalidate(name)
	}
	entry.size = size
	entry.user = user
	entry.gen = n.gen
	return entry, !exists, nil
}

// release hands back the slot a failed Put of a new file claimed.
// Caller holds mu and the file's stripe.
func (n *Node) release(entry fileEntry) {
	if n.cfg.TenantZones {
		n.zones[entry.user].slots.release(entry.slot)
		return
	}
	n.slots.release(entry.slot)
}

// checkSealedShape rejects a sealed image whose ciphertext or tags are not
// exactly the extent of a size-byte payload: alignUp(size, authBlock)
// ciphertext bytes and one tag per auth block. It is the node's rule, and
// a replicated Client applies it before fan-out too.
func checkSealedShape(size, authBlock int, ct, tags []byte) error {
	aligned := alignUp(size, authBlock)
	if len(ct) != aligned || len(tags) != aligned/authBlock*shield.TagSize {
		return rejectf("sdp: sealed image is %d+%d bytes, want %d+%d", len(ct), len(tags),
			aligned, aligned/authBlock*shield.TagSize)
	}
	return nil
}

// zoneFor returns (lazily creating) the user's protection zone. A new
// zone is one CreateRegion call against the Shield's virtual region
// layer; its engine set materialises on the first data access, so an
// idle user costs only directory bytes. Caller holds mu.
func (n *Node) zoneFor(user string) (*tenantZone, error) {
	if z, ok := n.zones[user]; ok {
		return z, nil
	}
	if len(n.freeZones) == 0 {
		return nil, reject(errors.New("sdp: node full (no free tenant zones)"))
	}
	base := n.freeZones[len(n.freeZones)-1]
	if err := n.sh.CreateRegion(user, n.cfg.storeZoneConfig(base)); err != nil {
		return nil, fmt.Errorf("sdp: tenant zone for %q: %w", user, err)
	}
	n.freeZones = n.freeZones[:len(n.freeZones)-1]
	first := int((base - storeBase) / uint64(n.cfg.SlotBytes))
	z := &tenantZone{base: base, slots: slotAlloc{next: first, limit: first + n.cfg.TenantSlots}}
	n.zones[user] = z
	return z, nil
}

// EraseTenant is the GDPR "right to be forgotten" made structural: it
// destroys the user's protection zone, discarding its valid bits,
// freshness counters and region ID, and forgets the user's key and
// directory entries. The zone's IVs and MACs bind its region ID, which is
// not reissued within the session, so no later zone opens the ciphertext
// left in device memory; the zone's keys derive from the DEK and the name
// "store" and outlive it. The zone's address range returns to the free
// list for the next tenant.
func (n *Node) EraseTenant(user string) error {
	n.quiesce()
	defer n.unquiesce()
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.cfg.TenantZones {
		return rejectf("sdp: node has no tenant zones to erase")
	}
	if z, ok := n.zones[user]; ok {
		if err := n.sh.DestroyRegion(user, "store"); err != nil {
			return err
		}
		n.freeZones = append(n.freeZones, z.base)
		delete(n.zones, user)
	}
	for name, e := range n.directory {
		if e.user == user {
			delete(n.directory, name)
			n.respInvalidate(name)
		}
	}
	delete(n.userKeys, user)
	// The cipher cache keys on (user, file); erasure is rare, so a full
	// sweep beats tracking per-user membership.
	clear(n.userCiphers)
	return nil
}

// fileLock returns the stripe that orders operations on name.
func (n *Node) fileLock(name string) *sync.RWMutex {
	return &n.fileLocks[fnv1a(name)%nodeStripes]
}

// quiesce takes every file stripe, waiting out each Put in flight and
// each Get still in its store stage, so EraseTenant and Sync can walk and
// change the zones; unquiesce releases them.
func (n *Node) quiesce() {
	for i := range n.fileLocks {
		n.fileLocks[i].Lock()
	}
}

func (n *Node) unquiesce() {
	for i := range n.fileLocks {
		n.fileLocks[i].Unlock()
	}
}

// flushStore is Put's durability barrier: under the default
// write-through policy every operation's store lines are sealed to DRAM
// before it returns; under WriteBack they stay resident and dirty (the
// serving-tier policy), written back by eviction pressure or Sync. In
// tenant-zone mode the barrier covers only the writing user's zone.
func (n *Node) flushStore(user string) error {
	if n.cfg.WriteBack && n.oram == nil {
		return nil
	}
	if n.cfg.TenantZones {
		return n.sh.FlushTenantRegion(user, "store")
	}
	return n.sh.FlushRegion("store")
}

// Sync writes back all dirty store lines — the explicit durability
// barrier of a WriteBack node (a no-op burden under write-through). In
// tenant-zone mode it walks every live zone.
func (n *Node) Sync() error {
	n.quiesce()
	defer n.unquiesce()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.TenantZones {
		for user := range n.zones {
			if err := n.sh.FlushTenantRegion(user, "store"); err != nil {
				return err
			}
		}
		return nil
	}
	return n.sh.FlushRegion("store")
}

// Put stores a file for a user: the node's own TLS session seals the
// payload, as the Data Owner's endpoint would, then the PutSealed body
// runs. Table 2, anti-entropy repair and the examples drive a node
// through Put/Get; the serving tier seals on client-held sessions.
func (n *Node) Put(user, name string, payload []byte) error {
	n.sessMu.Lock()
	defer n.sessMu.Unlock()
	ct, tags, err := n.tls.Seal(payload)
	if err != nil {
		return err
	}
	return n.PutSealed(user, name, len(payload), ct, tags)
}

// PutSealed stores a file whose tls image the Data Owner already sealed
// (see TLSSession.Seal): ct and tags are the payload extent, padded to
// whole auth blocks. This is the serving-tier entry point — the
// Data-Owner-side cryptography happens on the client's goroutine — and
// the one node body of a Put: reserve the file's slot, run the tls stage
// (DMA the image into the tls region and pull it through the tls engine
// set, decrypt+verify), then the store stage (the per-user GDPR layer
// and the store engine set), and record the file in the directory.
func (n *Node) PutSealed(user, name string, size int, ct, tags []byte) error {
	if err := checkSealedShape(size, n.cfg.AuthBlock, ct, tags); err != nil {
		return err
	}
	fl := n.fileLock(name)
	fl.Lock()
	defer fl.Unlock()
	n.mu.Lock()
	entry, claimed, err := n.reserve(user, name, size)
	var st *stage
	var uc *userCipher
	if err == nil {
		st, uc = n.takeStage(len(ct)), n.userCipher(user, name)
	}
	n.mu.Unlock()
	if err != nil {
		return err
	}
	err = n.tlsIn(ct, tags, st.buf)
	if err == nil {
		st.ctr.XORKeyStream(uc.block, uc.iv, st.buf[:size], st.buf[:size])
		err = n.storeWrite(entry.slot, st.buf)
	}
	n.mu.Lock()
	switch {
	case err == nil:
		n.directory[name] = entry
	case claimed:
		n.release(entry)
	}
	n.giveStage(st)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	return n.flushStore(user)
}

// tlsIn is a Put's tls stage: DMA the sealed image into the tls region
// and read it through the tls engine set into buf.
func (n *Node) tlsIn(ct, tags, buf []byte) error {
	n.tlsMu.Lock()
	defer n.tlsMu.Unlock()
	if err := n.dmaTLSIn(ct, tags); err != nil {
		return err
	}
	if _, err := n.sh.ReadBurst(tlsBase, buf); err != nil {
		// A forged image latches the tls engine set's integrity fault.
		// The staging region holds nothing but this request's image, so
		// retire the set rather than refuse every later Put and Get; the
		// store region's latch is what guards data at rest.
		var ie *shield.IntegrityError
		if errors.As(err, &ie) {
			if rerr := n.sh.RetireRegion("tls"); rerr != nil {
				return errors.Join(err, rerr)
			}
		}
		return err
	}
	return nil
}

// tlsOut is a Get's tls stage: write buf through the tls engine set and
// DMA the sealed extent out into ct/tags.
func (n *Node) tlsOut(buf, ct, tags []byte) error {
	n.tlsMu.Lock()
	defer n.tlsMu.Unlock()
	if _, err := n.sh.WriteBurst(tlsBase, buf); err != nil {
		return err
	}
	return n.dmaTLSOut(ct, tags)
}

// storeWrite places a slot image (whole auth blocks) in the store region:
// directly addressed in the flat layout, or block by block through the
// ORAM in oblivious mode, where each auth block is one oblivious access.
func (n *Node) storeWrite(slot int, buf []byte) error {
	if n.oram == nil {
		addr := uint64(storeBase + slot*n.cfg.SlotBytes)
		_, err := n.sh.WriteBurst(addr, buf)
		return err
	}
	base := slot * (n.cfg.SlotBytes / n.cfg.AuthBlock)
	for i := 0; i < len(buf)/n.cfg.AuthBlock; i++ {
		if err := n.oram.Write(base+i, buf[i*n.cfg.AuthBlock:(i+1)*n.cfg.AuthBlock]); err != nil {
			return err
		}
	}
	return nil
}

// storeRead is the read side of storeWrite.
func (n *Node) storeRead(slot int, buf []byte) error {
	if n.oram == nil {
		addr := uint64(storeBase + slot*n.cfg.SlotBytes)
		_, err := n.sh.ReadBurst(addr, buf)
		return err
	}
	base := slot * (n.cfg.SlotBytes / n.cfg.AuthBlock)
	for i := 0; i < len(buf)/n.cfg.AuthBlock; i++ {
		blk, err := n.oram.Read(base + i)
		if err != nil {
			return err
		}
		copy(buf[i*n.cfg.AuthBlock:], blk)
	}
	return nil
}

// authorise is the GDPR access check every read passes before any data
// moves, the response cache included: a provisioned user, an existing
// file, and an owner match. Caller holds mu.
func (n *Node) authorise(user, name string) (fileEntry, error) {
	if _, ok := n.userKeys[user]; !ok {
		return fileEntry{}, rejectf("sdp: user %q has no provisioned key", user)
	}
	entry, ok := n.directory[name]
	if !ok {
		return fileEntry{}, rejectf("sdp: file %q not found", name)
	}
	if entry.user != user {
		return fileEntry{}, rejectf("sdp: user %q may not access %q (GDPR policy)", user, name)
	}
	return entry, nil
}

// Get retrieves a file for a user: the GetSealed body into the node's own
// TLS session, which then opens the response as the application's
// endpoint would. It returns the plaintext.
func (n *Node) Get(user, name string) ([]byte, error) {
	n.sessMu.Lock()
	defer n.sessMu.Unlock()
	ct, tags := n.tls.Buffers()
	size, err := n.GetSealed(user, name, ct, tags)
	if err != nil {
		return nil, err
	}
	return n.tls.Open(nil, ct, tags, size)
}

// GetSealed retrieves a file as its sealed tls image, DMAed into the
// caller's ct/tags buffers (each at least the region's aligned capacity;
// the returned size selects the extent — alignUp(size) ciphertext bytes
// and the matching tags). The Data Owner opens it with TLSSession.Open on
// the client's goroutine.
//
// It is the one node body of a Get: authorise, then serve the sealed
// image from the response cache or run the full path — the store stage
// (pull the file from the store engine set, strip the GDPR layer), then
// the tls stage (push the plaintext through the tls engine set and DMA
// the sealed extent out).
func (n *Node) GetSealed(user, name string, ct, tags []byte) (int, error) {
	fl := n.fileLock(name)
	fl.RLock()
	n.mu.Lock()
	entry, err := n.authorise(user, name)
	if err != nil {
		n.mu.Unlock()
		fl.RUnlock()
		return 0, err
	}
	aligned := alignUp(entry.size, n.cfg.AuthBlock)
	k := aligned / n.cfg.AuthBlock
	if len(ct) < aligned || len(tags) < k*shield.TagSize {
		n.mu.Unlock()
		fl.RUnlock()
		return 0, rejectf("sdp: sealed-image buffers hold %d+%d bytes, need %d+%d",
			len(ct), len(tags), aligned, k*shield.TagSize)
	}
	ct, tags = ct[:aligned], tags[:k*shield.TagSize]
	if n.respCache != nil {
		if size, ok := n.respServe(name, ct, tags); ok {
			n.mu.Unlock()
			fl.RUnlock()
			return size, nil
		}
		n.respMiss++
	}
	seen := n.gen
	st, uc := n.takeStage(aligned), n.userCipher(user, name)
	n.mu.Unlock()
	err = n.storeRead(entry.slot, st.buf)
	fl.RUnlock()
	if err == nil {
		// The CTR layer is an involution: the same pass strips it.
		st.ctr.XORKeyStream(uc.block, uc.iv, st.buf[:entry.size], st.buf[:entry.size])
		err = n.tlsOut(st.buf, ct, tags)
	}
	n.mu.Lock()
	if err == nil {
		n.respInsert(name, seen, entry.size, ct, tags)
	}
	n.giveStage(st)
	n.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return entry.size, nil
}

// userCipher returns the per-user GDPR encryption layer of a file: an
// AES-CTR pass under the user's key with a per-file IV, cached per
// (user, file). Caller holds mu.
func (n *Node) userCipher(user, name string) *userCipher {
	uc, ok := n.userCiphers[user+"\x00"+name]
	if !ok {
		key := kdf.Derive([]byte("sdp/user-file"), n.userKeys[user], []byte(name), 16)
		block, err := aes.NewCipher(key)
		if err != nil {
			panic("sdp: derived key invalid: " + err.Error())
		}
		uc = &userCipher{block: block}
		h := kdf.Derive([]byte("sdp/file-iv"), []byte(name), nil, aesx.IVSize)
		copy(uc.iv[:], h)
		if len(n.userCiphers) >= maxUserCiphers {
			clear(n.userCiphers)
		}
		n.userCiphers[user+"\x00"+name] = uc
	}
	return uc
}

// Report exposes the Shield's cycle accounting.
func (n *Node) Report() shield.Report { return n.sh.Report() }

// ResetStats clears the measurement window.
func (n *Node) ResetStats() {
	n.sh.ResetStats()
	n.mu.Lock()
	n.respHits, n.respMiss, n.respCycles = 0, 0, 0
	n.mu.Unlock()
}

// Shield exposes the underlying shield (controller provisioning, tests).
func (n *Node) Shield() *shield.Shield { return n.sh }

// ORAM exposes the oblivious store controller (nil unless the node was
// built with Oblivious set).
func (n *Node) ORAM() *oram.ORAM { return n.oram }

// DRAM exposes the device memory for adversarial tests.
func (n *Node) DRAM() *mem.DRAM { return n.dram }

func alignUp(n, a int) int { return (n + a - 1) / a * a }
