package shield

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"shef/internal/axi"
	"shef/internal/crypto/aesx"
	"shef/internal/crypto/hmacx"
	"shef/internal/mem"
	"shef/internal/perf"
)

// engineSet is the runtime of one configured memory region: the AES engine
// pool, the MAC engine, the on-chip buffer, and (optionally) the freshness
// counters. It is the unit of parallelism in the Shield: engine sets
// operate concurrently — in this reproduction as real goroutines — and the
// performance model takes the maximum busy time across sets (paper §5.2.2).
//
// A set without a sealer is the unsecured baseline (NewBare): the same
// buffer, LRU, write combining, prefetcher and windows, with no tags and
// no crypto stages, so Figures 5-6 isolate the cost of security.
//
// All exported-to-Shield entry points (read, write, flush, the stats and
// maintenance accessors) take mu; the lower-case helpers below them assume
// it is held. One mutex per set means accesses to *different* regions run
// genuinely in parallel, mirroring the hardware where each engine set is
// its own pipeline, while accesses within a region serialise the way a
// single buffer/port pair would.
type engineSet struct {
	mu sync.Mutex

	cfg    RegionConfig
	params perf.Params
	seal   *sealer // nil for the unsecured baseline

	// tagSize is the bytes of tag stored per chunk: TagSize, or 0 without
	// a sealer (no tag bursts, no tag bytes in the DRAM charges).
	tagSize int

	// share points at the region table's materialised-set counter for
	// this set's off-chip channel: each live set sees 1/share of the
	// channel bandwidth. The pointer is read atomically on every charge,
	// so contention tracks who is actually live — an idle tenant's
	// reclaimed zone stops costing its neighbours bandwidth.
	share *atomic.Int64

	// DRAM layout: ciphertext is identity-mapped at cfg.Base; tags live in
	// a reserved area starting at tagBase.
	tagBase uint64
	port    axi.MemoryPort

	// On-chip state (allocated from the device OCM budget). lines maps a
	// chunk index to its resident line for O(1) lookup; the lines
	// themselves are threaded on an intrusive doubly-linked list rooted at
	// lruRoot (lruRoot.next is most recent, lruRoot.prev the victim), so
	// eviction is O(1) instead of an O(capacity) map scan.
	lines    map[int]*bufLine
	lruRoot  bufLine
	capacity int

	// Sequential-stride detector driving the adaptive prefetcher: seqNext
	// is the chunk a continuing ascending miss pattern would touch next,
	// seqRun the length of the current ascending fetch-miss run, and
	// seqStreak whether the prefetch pipeline is already primed (windows
	// after the first skip the fill/drain charge).
	seqNext   int
	seqRun    int
	seqStreak bool

	// counters hold the per-chunk write counters when Freshness is on
	// (folded into IV and MAC; see sealer).
	counters []uint32

	// initialized marks chunks that carry valid ciphertext: written back
	// at least once, or preloaded by the host (MarkPreloaded). Reads of
	// never-written chunks return zeros without touching DRAM: the valid
	// bit lives on-chip, so an adversary cannot plant data in virgin
	// memory.
	initialized []bool

	// ocmBytes is the on-chip budget this set holds, returned to the pool
	// when a re-provisioning replaces the set. metaOCMBytes is the
	// durable-metadata slice of it (freshness counters and valid bits) —
	// an idle-zone reclaim keeps that slice resident so the zone's data
	// survives the engine set.
	ocmBytes     int
	metaOCMBytes int

	// linePool recycles buffer lines so the chunked hot path allocates
	// nothing in steady state.
	linePool sync.Pool

	// win is the set's single staging (ciphertext + tags for the windows
	// in flight: one window, or one batch of windows for a stream or
	// gather). Exactly one batch is ever in flight per set — every
	// windowed path runs under mu and eviction write-backs complete before
	// the staging is (re)used — so a dedicated buffer replaces the old
	// sync.Pool: unlike a pool, it cannot be drained by a GC pass
	// mid-stream, which is what makes the steady-state window loop
	// measurably zero-alloc. It also holds the split's per-worker seal
	// scratch and task slots.
	win *streamWindow

	// scratch is the set's chunk-crypto working state (dedicated, not
	// pooled, for the same GC-drain reason as win; nil without a sealer).
	// The chunked paths (load, prefetchRun, writebackChunks) seal and open
	// with it on the calling goroutine under mu, one chunk after another;
	// it is also worker 0's scratch when a stream or gather batch splits
	// its crypto across Ps. That split is real-time only: the AES engine
	// pool's parallelism is a hardware property that the cycle model
	// charges analytically (cryptoStages, poolCycles), whatever the host
	// does.
	scratch *sealScratch

	// flushScratch is the reusable dirty-chunk list of flush.
	flushScratch []int

	// Performance accounting.
	busyCycles                          uint64 // accumulated engine-set busy time (chunk pipeline)
	dramCycles                          uint64 // this set's share of DRAM bus time
	hits, misses, evictions, writebacks uint64
	batchedWritebacks                   uint64 // chunks written back via multi-chunk pipelined windows
	streamed, streamWindows             uint64 // chunks moved / windows issued by the stream path
	prefetched, prefetchHits            uint64 // chunks fetched ahead / prefetched lines later demanded

	// integrityErr latches the first authentication failure; the Shield
	// refuses further service afterwards, modelling the hardware fault
	// latch that parks the accelerator.
	integrityErr error
}

// bufLine is one cache line of decrypted, authenticated plaintext. chunk
// and the prev/next links are the intrusive LRU state; prefetched marks
// lines brought in by the sequential prefetcher that have not yet served a
// demand access.
type bufLine struct {
	data       []byte
	dirty      bool
	prefetched bool
	chunk      int
	prev, next *bufLine
}

// newEngineSet builds the Shield runtime for a region: the common set
// plus the sealer and the on-chip memory charges. Keys are derived from
// the Data Encryption Key per region so that regions are cryptographically
// isolated from one another; a nil dek (a bare Shield) gives no sealer.
func newEngineSet(cfg RegionConfig, regionID uint32, dek []byte, tagBase uint64,
	port axi.MemoryPort, ocm *mem.OCM, params perf.Params) (*engineSet, error) {

	var seal *sealer
	if dek != nil {
		var err error
		if seal, err = newSealer(cfg, regionID, dek); err != nil {
			return nil, err
		}
	}
	s := newSet(cfg, seal, tagBase, port, params)
	// Charge on-chip memory: the buffer, counters, and valid bits.
	alloc := func(n int, what string) error {
		if _, err := ocm.Alloc(n); err != nil {
			return fmt.Errorf("shield: region %q %s: %w", cfg.Name, what, err)
		}
		s.ocmBytes += n
		return nil
	}
	if err := alloc(s.capacity*cfg.ChunkSize, "buffer"); err != nil {
		s.releaseOCM(ocm)
		return nil, err
	}
	if cfg.Freshness {
		if err := alloc(cfg.Chunks()*CounterSize, "counters"); err != nil {
			s.releaseOCM(ocm)
			return nil, err
		}
		s.metaOCMBytes += cfg.Chunks() * CounterSize
	}
	if err := alloc((cfg.Chunks()+7)/8, "valid bits"); err != nil {
		s.releaseOCM(ocm)
		return nil, err
	}
	s.metaOCMBytes += (cfg.Chunks() + 7) / 8
	return s, nil
}

// newSet builds what every engine set has, with or without a sealer: the
// line buffer and its LRU, the line pool, the staging window, and the
// counters and valid bits. seal == nil gives the unsecured baseline.
func newSet(cfg RegionConfig, seal *sealer, tagBase uint64,
	port axi.MemoryPort, params perf.Params) *engineSet {

	s := &engineSet{
		cfg:         cfg,
		params:      params,
		seal:        seal,
		tagBase:     tagBase,
		port:        port,
		lines:       make(map[int]*bufLine),
		capacity:    cfg.bufferLines(),
		seqNext:     -1,
		counters:    make([]uint32, cfg.Chunks()),
		initialized: make([]bool, cfg.Chunks()),
	}
	if seal != nil {
		s.tagSize = TagSize
		s.scratch = seal.newScratch()
	}
	s.lruRoot.prev = &s.lruRoot
	s.lruRoot.next = &s.lruRoot
	s.linePool.New = func() any {
		return &bufLine{data: make([]byte, cfg.ChunkSize)}
	}
	s.win = newStreamWindow(s, streamWindowChunks)
	return s
}

// adoptMeta restores durable metadata a reclaim preserved (the zone's
// freshness counters and valid bits). Called before the set is published,
// so no lock is needed.
func (s *engineSet) adoptMeta(counters []uint32, initialized []bool) {
	if counters != nil {
		s.counters = counters
	}
	if initialized != nil {
		s.initialized = initialized
	}
}

// detachMeta retires the set but keeps its durable metadata resident:
// the buffer and window budget returns to the pool, the counters and
// valid bits (still charged on-chip) transfer to the caller for the next
// materialisation.
func (s *engineSet) detachMeta(ocm *mem.OCM) (counters []uint32, initialized []bool, metaBytes int) {
	metaBytes = s.metaOCMBytes
	if s.ocmBytes > metaBytes {
		ocm.Free(s.ocmBytes - metaBytes)
	}
	s.ocmBytes, s.metaOCMBytes = 0, 0
	return s.counters, s.initialized, metaBytes
}

// releaseOCM returns the set's on-chip budget to the pool (the partial
// reconfiguration that clears a replaced session's logic).
func (s *engineSet) releaseOCM(ocm *mem.OCM) {
	if s.ocmBytes > 0 {
		ocm.Free(s.ocmBytes)
		s.ocmBytes = 0
	}
}

// Intrusive LRU list operations. All assume s.mu is held.

// lruPush inserts ln at the most-recently-used end.
func (s *engineSet) lruPush(ln *bufLine) {
	ln.prev = &s.lruRoot
	ln.next = s.lruRoot.next
	ln.prev.next = ln
	ln.next.prev = ln
}

// lruRemove unlinks ln.
func (s *engineSet) lruRemove(ln *bufLine) {
	ln.prev.next = ln.next
	ln.next.prev = ln.prev
	ln.prev, ln.next = nil, nil
}

// lruTouch moves ln to the most-recently-used end.
//
//shef:hotpath
func (s *engineSet) lruTouch(ln *bufLine) {
	s.lruRemove(ln)
	s.lruPush(ln)
}

// lruVictim returns the least-recently-used line (nil when empty).
//
//shef:hotpath
func (s *engineSet) lruVictim() *bufLine {
	if s.lruRoot.prev == &s.lruRoot {
		return nil
	}
	return s.lruRoot.prev
}

// touchResident marks a demand access to a resident line: LRU update plus
// prefetch-hit accounting (a prefetched line proved useful; it is counted
// once, on its first demand access).
//
//shef:hotpath
func (s *engineSet) touchResident(ln *bufLine) {
	s.lruTouch(ln)
	if ln.prefetched {
		ln.prefetched = false
		s.prefetchHits++
	}
}

// dropLine evicts ln from the buffer (caller has written it back if dirty).
func (s *engineSet) dropLine(ln *bufLine) {
	s.lruRemove(ln)
	delete(s.lines, ln.chunk)
	ln.dirty, ln.prefetched = false, false
	s.linePool.Put(ln)
}

// insertLine makes ln resident for chunk at the MRU end.
func (s *engineSet) insertLine(chunk int, ln *bufLine) {
	ln.chunk = chunk
	s.lines[chunk] = ln
	s.lruPush(ln)
}

// ctrBlocksPerChunk is the number of AES-CTR keystream blocks per chunk.
func (s *engineSet) ctrBlocksPerChunk() int {
	return (s.cfg.ChunkSize + aesx.BlockSize - 1) / aesx.BlockSize
}

// pmacBlocksPerChunk is the number of PMAC block computations per chunk
// (one per data block plus the tag block), all served by the AES pool.
func (s *engineSet) pmacBlocksPerChunk() int {
	return s.ctrBlocksPerChunk() + 1
}

// poolCycles is the AES engine pool's time to serve n blocks: waves of
// AESEngines blocks each at the engine's per-block latency.
func (s *engineSet) poolCycles(blocks int) uint64 {
	waves := uint64((blocks + s.cfg.AESEngines - 1) / s.cfg.AESEngines)
	return waves * s.seal.engine.CyclesPerBlock()
}

// hmacCyclesPerChunk is the serial HMAC core's time for one chunk: ipad
// block + message blocks + outer pass, one strictly serial stream.
func (s *engineSet) hmacCyclesPerChunk() uint64 {
	return uint64(3+(s.cfg.ChunkSize+hmacx.BlockSize-1)/hmacx.BlockSize) * hmacEngineCyclesPerBlock
}

// cryptoCycles is the engine-set crypto time for one chunk transfer: the
// slower of a one-chunk window's two stages. The AES pool serves the CTR
// blocks plus, under PMAC, the MAC blocks; an HMAC engine runs serially in
// parallel with decryption ("the engine set decrypts and authenticates
// the returned ciphertext in parallel", paper §5.2.2). A set without a
// sealer has no crypto stage.
func (s *engineSet) cryptoCycles() uint64 {
	pool, hmac := s.cryptoStages(1)
	return max(pool, hmac)
}

// hmacEngineCyclesPerBlock is the Shield HMAC core's cost per 64-byte SHA
// block. The core is modestly unrolled (≈1.2 B/cycle) but strictly serial
// within a stream — which is why SDP saturates on it until PMAC replaces
// it (paper §6.2.3). Calibrated jointly with perf.Default (DESIGN.md §4).
const hmacEngineCyclesPerBlock = 54

// shareNow reads the channel's live materialised-set count for the
// bandwidth-share charge; an unwired set charges as the sole occupant.
//
//shef:hotpath
func (s *engineSet) shareNow() int {
	if s.share == nil {
		return 1
	}
	if n := s.share.Load(); n > 1 {
		return int(n)
	}
	return 1
}

// chargeHit accounts a buffer hit: on-chip access only.
//
//shef:hotpath
func (s *engineSet) chargeHit(nBytes int) {
	s.busyCycles += 1 + uint64(nBytes)/64
}

// dramAddrs returns the ciphertext and tag addresses of a chunk.
func (s *engineSet) dramAddrs(chunk int) (data, tag uint64) {
	data = s.cfg.Base + uint64(chunk*s.cfg.ChunkSize)
	tag = s.tagBase + uint64(chunk*s.tagSize)
	return
}

// batchChunks is the write-side pipeline window in chunks, bounded by the
// pooled staging buffers.
func (s *engineSet) batchChunks() int {
	n := s.params.WritebackBatchChunks
	if n < 1 {
		n = 1
	}
	if n > streamWindowChunks {
		n = streamWindowChunks
	}
	return n
}

// prefetchMinMisses is the sequential-stride detector's trigger: after
// this many consecutive ascending chunk misses in a region with
// SeqPrefetch enabled, the engine set services the run through stream
// windows transparently.
const prefetchMinMisses = 4

// prefetchDegree is how many chunks one prefetch window may move: a full
// staging window, bounded by the on-chip buffer capacity.
func (s *engineSet) prefetchDegree() int {
	return min(streamWindowChunks, s.capacity)
}

// prefetchArmed reports whether the adaptive sequential prefetcher is
// configured for this set.
func (s *engineSet) prefetchArmed() bool {
	return s.cfg.SeqPrefetch && s.capacity > 1
}

// openSlot verifies the ciphertext and tag staged in slot slot as chunk,
// at its current write epoch, and decrypts it into dst with scratch sc;
// without a sealer it copies the slot. dst may be the slot itself, and it
// is untouched if the slot fails to verify.
//
//shef:hotpath
func (s *engineSet) openSlot(sc *sealScratch, slot, chunk int, dst []byte) error {
	cs := s.cfg.ChunkSize
	ct := s.win.ct[slot*cs : (slot+1)*cs]
	if s.seal == nil {
		copy(dst, ct)
		return nil
	}
	return s.seal.openChunkWith(sc, dst, chunk, s.counters[chunk],
		ct, s.win.tags[slot*TagSize:(slot+1)*TagSize])
}

// sealSlot encrypts src as chunk at write epoch epoch into slot slot and
// writes the slot's tag, with scratch sc; without a sealer it copies src
// into the slot.
//
//shef:hotpath
func (s *engineSet) sealSlot(sc *sealScratch, slot, chunk int, epoch uint32, src []byte) {
	cs := s.cfg.ChunkSize
	ct := s.win.ct[slot*cs : (slot+1)*cs]
	if s.seal == nil {
		copy(ct, src)
		return
	}
	s.seal.sealChunkWith(sc, ct, s.win.tags[slot*TagSize:(slot+1)*TagSize], chunk, epoch, src)
}

// load makes a chunk resident, fetching/decrypting/verifying on miss.
// fill == false skips the DRAM fetch (full-chunk overwrite).
//
//shef:hotpath
func (s *engineSet) load(chunk int, fill bool) (*bufLine, error) {
	if s.integrityErr != nil {
		return nil, s.integrityErr
	}
	if ln, ok := s.lines[chunk]; ok {
		s.touchResident(ln)
		return ln, nil
	}
	if fill && !s.initialized[chunk] {
		fill = false // virgin chunk: serve zeros from on-chip valid bits
	}
	if fill {
		// Feed the sequential-stride detector: a fetch miss extends the
		// ascending run or starts a new one.
		if chunk == s.seqNext {
			s.seqRun++
		} else {
			s.seqRun, s.seqStreak = 1, false
		}
		s.seqNext = chunk + 1
		if s.prefetchArmed() && s.seqRun >= prefetchMinMisses {
			// The detector fired: service the run through a pipelined
			// stream window instead of a chunk-at-a-time fetch.
			if err := s.prefetchRun(chunk); err != nil {
				return nil, err
			}
			ln := s.lines[chunk]
			s.lruTouch(ln)
			return ln, nil
		}
	}
	if err := s.evictFor(1); err != nil {
		return nil, err
	}
	ln := s.linePool.Get().(*bufLine)
	ln.dirty, ln.prefetched = false, false
	if fill {
		dramBusy, dramBus, err := s.fetchRun(s.win, 0, chunk, 1)
		if err != nil {
			s.linePool.Put(ln)
			return nil, err
		}
		if err := s.openSlot(s.scratch, 0, chunk, ln.data); err != nil {
			s.linePool.Put(ln)
			s.integrityErr = err
			return nil, err
		}
		s.chargeRun(1, dramBusy, dramBus, false)
		s.misses++
	} else {
		// Zero-filled line: no DRAM traffic, only issue cost.
		clear(ln.data)
		s.busyCycles += s.params.ChunkIssueCycles
		s.misses++
	}
	s.insertLine(chunk, ln)
	return ln, nil
}

// prefetchRun services a detected sequential run: the demand chunk plus up
// to prefetchDegree-1 chunks ahead move through one batched fetch and a
// decrypt/verify pass straight into buffer lines, charged with the
// overlapped stream-window accounting (the first window of a streak also
// pays pipeline fill/drain). The demand chunk is resident on return.
//
//shef:hotpath
func (s *engineSet) prefetchRun(c0 int) error {
	n := 1
	for max := s.prefetchDegree(); n < max; n++ {
		c := c0 + n
		if c >= s.cfg.Chunks() || !s.initialized[c] {
			break // a virgin or out-of-range chunk ends the run
		}
		if _, resident := s.lines[c]; resident {
			break // the fetch run must stay contiguous in DRAM
		}
	}
	if err := s.evictFor(n); err != nil {
		return err
	}

	dramBusy, dramBus, err := s.fetchRun(s.win, 0, c0, n)
	if err != nil {
		return err
	}

	var lines [streamWindowChunks]*bufLine
	for i := 0; i < n; i++ {
		lines[i] = s.linePool.Get().(*bufLine)
	}
	for i := 0; i < n; i++ {
		if err := s.openSlot(s.scratch, i, c0+i, lines[i].data); err != nil {
			for j := 0; j < n; j++ {
				s.linePool.Put(lines[j])
			}
			s.integrityErr = err
			return err
		}
	}
	for i := 0; i < n; i++ {
		ln := lines[i]
		ln.dirty = false
		ln.prefetched = i > 0 // the demand chunk is a plain miss
		s.insertLine(c0+i, ln)
	}

	s.misses++
	s.prefetched += uint64(n - 1)
	s.chargeRun(n, dramBusy, dramBus, !s.seqStreak)
	if n > 1 {
		s.seqStreak = true
	}
	s.seqNext = c0 + n // a miss at the window's end continues the streak
	return nil
}

// evictFor makes room for n incoming lines, writing dirty victims back.
// Victims come off the LRU tail in strict recency order; their write-backs
// — extended with any resident dirty lines chunk-contiguous with a dirty
// victim, so one pipelined store covers the whole run (write combining) —
// go through writebackChunks in sorted chunk order.
//
//shef:deterministic
func (s *engineSet) evictFor(n int) error {
	need := len(s.lines) + n - s.capacity
	if need <= 0 {
		return nil
	}
	// Fast path: the steady-state chunked miss evicts one clean line —
	// O(1) off the list tail, no allocation (the common case the
	// intrusive LRU exists for).
	if need == 1 {
		if ln := s.lruVictim(); ln != nil && !ln.dirty {
			s.dropLine(ln)
			s.evictions++
			return nil
		}
	}
	victims := make([]*bufLine, 0, need)
	for ln := s.lruRoot.prev; ln != &s.lruRoot && len(victims) < need; ln = ln.prev {
		victims = append(victims, ln)
	}
	// Gather the dirty chunks to store: every dirty victim seeds a run
	// that write combining extends across resident dirty neighbours (the
	// neighbours stay resident, but leave clean).
	dirtySet := make(map[int]bool)
	limit := s.batchChunks()
	extend := func(from, step int) {
		for c, span := from, 1; span < limit; c, span = c+step, span+1 {
			if nb, ok := s.lines[c]; !ok || !nb.dirty || dirtySet[c] {
				return
			}
			dirtySet[c] = true
		}
	}
	for _, ln := range victims {
		if !ln.dirty {
			continue
		}
		dirtySet[ln.chunk] = true
		extend(ln.chunk-1, -1)
		extend(ln.chunk+1, +1)
	}
	if len(dirtySet) > 0 {
		dirty := make([]int, 0, len(dirtySet))
		//shef:ignore membership set collected into a slice and sorted before use
		for c := range dirtySet {
			dirty = append(dirty, c)
		}
		slices.Sort(dirty)
		// No fill/drain charge: eviction write-backs interleave with the
		// demand traffic that forced them, so the write pipeline is
		// already primed (contrast flush, which drains it).
		if err := s.writebackChunks(dirty, false); err != nil {
			return err
		}
	}
	for _, ln := range victims {
		s.dropLine(ln)
		s.evictions++
	}
	return nil
}

// writebackChunks seals and stores the given resident dirty chunks, which
// must be sorted ascending. Maximal contiguous runs move through pipelined
// windows of up to batchChunks: each chunk sealed into the set's staging
// window, then one AXI store transaction for the run's ciphertext and one
// for its tags, charged with the overlapped window accounting. Runs of a
// single chunk keep the chunked ChunkTime charge — batching cannot help
// them. Freshness counters bump exactly once per chunk before sealing,
// and valid bits are set exactly as the serial path would.
// fillDrain charges the one-time pipeline fill/drain on the first batched
// window (a flush drains the pipeline; eviction write-backs do not).
func (s *engineSet) writebackChunks(chunks []int, fillDrain bool) error {
	if s.integrityErr != nil {
		return s.integrityErr
	}
	first := fillDrain
	return axi.ForEachRunCapped(chunks, s.batchChunks(), func(c0, n int) error {
		if s.cfg.Freshness {
			for i := 0; i < n; i++ {
				s.counters[c0+i]++ // bump before sealing the new epoch
			}
		}
		for i := 0; i < n; i++ {
			s.sealSlot(s.scratch, i, c0+i, s.counters[c0+i], s.lines[c0+i].data)
		}
		dramBusy, dramBus, err := s.storeRun(s.win, 0, c0, n)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			chunk := c0 + i
			s.initialized[chunk] = true
			s.lines[chunk].dirty = false
		}
		s.writebacks += uint64(n)
		s.chargeRun(n, dramBusy, dramBus, first)
		if n > 1 {
			first = false
			s.batchedWritebacks += uint64(n)
		}
		return nil
	})
}

// cryptoStages returns the engine-pool occupancy and serial-HMAC stage
// times for a window of n chunks crossing the crypto pipeline (none
// without a sealer).
func (s *engineSet) cryptoStages(n int) (poolStage, hmacStage uint64) {
	if n <= 0 || s.seal == nil {
		return 0, 0
	}
	pool := n * s.ctrBlocksPerChunk()
	if s.cfg.MAC == PMAC {
		pool += n * s.pmacBlocksPerChunk()
	} else {
		hmacStage = uint64(n) * s.hmacCyclesPerChunk()
	}
	return s.poolCycles(pool), hmacStage
}

// chargeRun accounts one fetch or store of n chunks priced by
// fetchRun/storeRun; it is the one charge of every miss, prefetch and
// write-back. dramBusy is the burst as the set experiences it, at its
// bandwidth share; dramBus counts the bytes once at full channel rate
// (Report.MemoryCycles). A single chunk (a chunked miss or a lone
// write-back) pays the chunked charge — the burst partially overlapped
// with the crypto stage (ChunkTime), plus the per-chunk issue cost —
// because batching cannot help it. Longer runs pay the overlapped window
// charge, plus fill/drain when first.
//
//shef:hotpath
func (s *engineSet) chargeRun(n int, dramBusy, dramBus uint64, first bool) {
	if n == 1 {
		s.busyCycles += s.params.ChunkTime(dramBusy, s.cryptoCycles()) + s.params.ChunkIssueCycles
		s.dramCycles += dramBus
		return
	}
	pool, hmac := s.cryptoStages(n)
	s.chargeOverlapped(dramBusy, dramBus, pool, hmac, uint64(n*s.cfg.ChunkSize)/64, first)
}

// chargeOverlapped accounts one pipeline window under the overlapped
// model: the window is paced by its slowest stage (DRAM, the AES pool, the
// serial HMAC core, or the on-chip copy), the first window of a pipeline
// additionally pays fill/drain, and the per-window issue cost replaces the
// chunked path's per-chunk issue cost.
func (s *engineSet) chargeOverlapped(dramBusy, dramBus, poolStage, hmacStage, copyStage uint64, first bool) {
	s.busyCycles += s.params.StreamWindowTime(dramBusy, poolStage, hmacStage, copyStage) + s.params.ChunkIssueCycles
	if first {
		s.busyCycles += s.params.StreamFillDrain(dramBusy, poolStage, hmacStage, copyStage)
	}
	s.dramCycles += dramBus
}

// read copies region bytes [addr, addr+len(buf)) into buf and returns the
// engine-set busy cycles the access cost.
func (s *engineSet) read(addr uint64, buf []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.busyCycles
	off := addr - s.cfg.Base
	for done := 0; done < len(buf); {
		chunk := int((off + uint64(done)) / uint64(s.cfg.ChunkSize))
		inOff := int((off + uint64(done)) % uint64(s.cfg.ChunkSize))
		ln, err := s.load(chunk, true)
		if err != nil {
			return s.busyCycles - start, err
		}
		n := copy(buf[done:], ln.data[inOff:])
		s.chargeHit(n)
		s.hits++
		done += n
	}
	return s.busyCycles - start, nil
}

// write stores data at addr and returns the busy cycles the access cost.
func (s *engineSet) write(addr uint64, data []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.busyCycles
	off := addr - s.cfg.Base
	for done := 0; done < len(data); {
		chunk := int((off + uint64(done)) / uint64(s.cfg.ChunkSize))
		inOff := int((off + uint64(done)) % uint64(s.cfg.ChunkSize))
		n := s.cfg.ChunkSize - inOff
		if n > len(data)-done {
			n = len(data) - done
		}
		// Full-chunk overwrites never fetch. Partial writes to virgin
		// chunks zero-fill via the valid bits inside load, which subsumes
		// the paper's ZeroFillWrites optimisation while staying correct
		// for partial rewrites.
		fullOverwrite := inOff == 0 && n == s.cfg.ChunkSize
		ln, err := s.load(chunk, !fullOverwrite)
		if err != nil {
			return s.busyCycles - start, err
		}
		copy(ln.data[inOff:], data[done:done+n])
		ln.dirty = true
		s.chargeHit(n)
		s.hits++
		done += n
	}
	return s.busyCycles - start, nil
}

// flush writes back every dirty line (end of kernel / result publication)
// in ascending chunk order — deterministic DRAM write order and cycle
// accounting — with contiguous runs batched through pipelined windows.
//
//shef:deterministic
func (s *engineSet) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flushScratch == nil {
		s.flushScratch = make([]int, 0, s.capacity)
	}
	dirty := s.flushScratch[:0]
	//shef:ignore dirty indices collected then sorted; write order is the sorted slice
	for idx, ln := range s.lines {
		if ln.dirty {
			dirty = append(dirty, idx)
		}
	}
	slices.Sort(dirty)
	s.flushScratch = dirty[:0]
	return s.writebackChunks(dirty, true)
}

// invalidateClean drops clean buffer lines.
func (s *engineSet) invalidateClean() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ln := range s.lines {
		if !ln.dirty {
			s.dropLine(ln)
		}
	}
}

// stats snapshots the set's counters for Shield.Report.
func (s *engineSet) stats() RegionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RegionStats{
		Name:              s.cfg.Name,
		Channel:           s.cfg.Channel,
		Hits:              s.hits,
		Misses:            s.misses,
		Evictions:         s.evictions,
		Writebacks:        s.writebacks,
		BatchedWritebacks: s.batchedWritebacks,
		Streamed:          s.streamed,
		StreamWindows:     s.streamWindows,
		Prefetched:        s.prefetched,
		PrefetchHits:      s.prefetchHits,
		BusyCycles:        s.busyCycles,
		DRAMCycles:        s.dramCycles,
	}
}

// resetStats zeroes the set's counters.
func (s *engineSet) resetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busyCycles, s.dramCycles = 0, 0
	s.hits, s.misses, s.evictions, s.writebacks = 0, 0, 0, 0
	s.batchedWritebacks = 0
	s.streamed, s.streamWindows = 0, 0
	s.prefetched, s.prefetchHits = 0, 0
}

// markPreloaded sets every valid bit (host DMAed sealed data into DRAM).
func (s *engineSet) markPreloaded() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.initialized {
		s.initialized[i] = true
	}
}

// markPreloadedChunks sets the valid bits of chunks [from, to) only, so a
// partial DMA leaves virgin chunks serving zeros (and never trusting
// uninitialised DRAM). It also drops resident clean lines in the range:
// their plaintext predates the DMA.
func (s *engineSet) markPreloadedChunks(from, to int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := from; c < to; c++ {
		s.initialized[c] = true
		if ln, ok := s.lines[c]; ok && !ln.dirty {
			s.dropLine(ln)
		}
	}
}

// counterSnapshot copies the freshness counters out under the lock.
func (s *engineSet) counterSnapshot() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint32(nil), s.counters...)
}

// IntegrityError reports a failed MAC verification: spoofed, spliced,
// replayed, or corrupted off-chip data.
type IntegrityError struct {
	Region string
	Chunk  int
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("shield: integrity violation in region %q chunk %d (off-chip data tampered or replayed)", e.Region, e.Chunk)
}
