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
	// unmaterialised zone costs its neighbours no bandwidth.
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
	// when the set is retired.
	ocmBytes int

	// linePool recycles buffer lines so the chunked hot path allocates
	// nothing in steady state.
	linePool sync.Pool

	// win is the set's single staging: ciphertext and tags for the one
	// batch of windows in flight, whichever path moves it (a miss or
	// prefetch, a write-back, a stream or a gather). Exactly one batch is
	// ever in flight per set — every batch moves under mu, and an
	// eviction's write-back completes before the miss that forced it
	// reuses the staging — so a dedicated buffer replaces the old
	// sync.Pool: unlike a pool, it cannot be drained by a GC pass
	// mid-stream, which is what makes the steady-state window loop
	// measurably zero-alloc. It also holds the split's per-worker seal
	// scratch and task slots.
	win *streamWindow

	// scratch is the set's chunk-crypto working state (dedicated, not
	// pooled, for the same GC-drain reason as win; nil without a sealer).
	// It is worker 0's scratch in every batch, and the only one unless a
	// batch is large enough to split its crypto across Ps. That split is
	// real-time only: the AES engine pool's parallelism is a hardware
	// property that the cycle model charges analytically (cryptoStages,
	// poolCycles), whatever the host does.
	scratch *sealScratch

	// dirty is the reusable sorted dirty-chunk list of a flush or an
	// eviction's write-back. Every entry is a resident line, so it never
	// outgrows the buffer's capacity.
	dirty []int

	// acct is the set's performance accounting, named for its region.
	acct RegionStats

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
	}
	if err := alloc((cfg.Chunks()+7)/8, "valid bits"); err != nil {
		s.releaseOCM(ocm)
		return nil, err
	}
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
		acct:        RegionStats{Name: cfg.Name, Channel: cfg.Channel},
	}
	s.dirty = make([]int, 0, s.capacity)
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
func (s *engineSet) lruTouch(ln *bufLine) {
	s.lruRemove(ln)
	s.lruPush(ln)
}

// lruVictim returns the least-recently-used line (nil when empty).
func (s *engineSet) lruVictim() *bufLine {
	if s.lruRoot.prev == &s.lruRoot {
		return nil
	}
	return s.lruRoot.prev
}

// touchResident marks a demand access to a resident line: LRU update plus
// prefetch-hit accounting (a prefetched line proved useful; it is counted
// once, on its first demand access).
func (s *engineSet) touchResident(ln *bufLine) {
	s.lruTouch(ln)
	if ln.prefetched {
		ln.prefetched = false
		s.acct.PrefetchHits++
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
func (s *engineSet) chargeHit(nBytes int) {
	s.acct.BusyCycles += 1 + uint64(nBytes)/64
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
// SeqPrefetch enabled, a miss fetches a window of chunks ahead of demand.
const prefetchMinMisses = 4

// openSlot verifies the ciphertext and tag staged in slot slot as chunk,
// at its current write epoch, and decrypts it into dst with scratch sc;
// without a sealer it copies the slot. dst may be the slot itself, and it
// is untouched if the slot fails to verify.
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
func (s *engineSet) sealSlot(sc *sealScratch, slot, chunk int, epoch uint32, src []byte) {
	cs := s.cfg.ChunkSize
	ct := s.win.ct[slot*cs : (slot+1)*cs]
	if s.seal == nil {
		copy(ct, src)
		return
	}
	s.seal.sealChunkWith(sc, ct, s.win.tags[slot*TagSize:(slot+1)*TagSize], chunk, epoch, src)
}

// load makes a chunk resident. fill == false skips the DRAM fetch
// (full-chunk overwrite), as do virgin chunks, which serve zeros. A
// fetch miss moves through readBatch as one window: the demand chunk
// alone, or, once the sequential-stride detector fires, a window of the
// demand chunk and the chunks after it, charged as an overlapped window
// (the first window of a streak also pays fill/drain).
func (s *engineSet) load(chunk int, fill bool) (*bufLine, error) {
	if s.integrityErr != nil {
		return nil, s.integrityErr
	}
	if ln, ok := s.lines[chunk]; ok {
		s.touchResident(ln)
		return ln, nil
	}
	if !fill || !s.initialized[chunk] {
		// Zero-filled line: no DRAM traffic, only issue cost.
		if err := s.evictFor(1); err != nil {
			return nil, err
		}
		ln := s.linePool.Get().(*bufLine)
		ln.dirty, ln.prefetched = false, false
		clear(ln.data)
		s.acct.BusyCycles += s.params.ChunkIssueCycles
		s.acct.Misses++
		s.insertLine(chunk, ln)
		return ln, nil
	}
	// Feed the sequential-stride detector: a fetch miss extends the
	// ascending run or starts a new one.
	if chunk == s.seqNext {
		s.seqRun++
	} else {
		s.seqRun, s.seqStreak = 1, false
	}
	s.seqNext = chunk + 1
	n := 1
	if s.cfg.SeqPrefetch && s.seqRun >= prefetchMinMisses {
		// The detector fired: fetch up to a full staging window, bounded
		// by the buffer capacity.
		for max := min(streamWindowChunks, s.capacity); n < max; n++ {
			c := chunk + n
			if c >= s.cfg.Chunks() || !s.initialized[c] {
				break // a virgin or out-of-range chunk ends the run
			}
			if _, resident := s.lines[c]; resident {
				break // the fetch run must stay contiguous in DRAM
			}
		}
	}
	if err := s.evictFor(n); err != nil {
		return nil, err
	}
	chunks, _, wins := s.win.batch(n)
	for i := range chunks {
		chunks[i] = chunk + i
	}
	if _, err := s.readBatch(chunks, nil, nil, append(wins, window{end: n, first: !s.seqStreak})); err != nil {
		return nil, err
	}
	if n > 1 {
		s.seqStreak = true
	}
	s.seqNext = chunk + n // a miss at the window's end continues the streak
	ln := s.lines[chunk]
	ln.prefetched = false // the demand chunk is a plain miss
	s.lruTouch(ln)
	return ln, nil
}

// evictFor makes room for n incoming lines, writing dirty victims back.
// The victims are the lines at the LRU tail, in strict recency order.
// Every dirty victim seeds a write-back run that write combining extends
// across resident dirty neighbours, so one pipelined store covers the
// whole run; the neighbours stay resident, but leave clean. The runs go
// through writeBack in sorted chunk order, with no fill/drain charge:
// eviction write-backs interleave with the demand traffic that forced
// them, so the write pipeline is already primed (contrast flush, which
// drains it).
func (s *engineSet) evictFor(n int) error {
	need := len(s.lines) + n - s.capacity
	if need <= 0 {
		return nil
	}
	dirty, limit := s.dirty[:0], s.batchChunks()
	ln := s.lruRoot.prev
	for k := 0; k < need && ln != &s.lruRoot; k, ln = k+1, ln.prev {
		if !ln.dirty {
			continue
		}
		if !slices.Contains(dirty, ln.chunk) {
			dirty = append(dirty, ln.chunk)
		}
		dirty = s.combine(dirty, ln.chunk-1, -1, limit)
		dirty = s.combine(dirty, ln.chunk+1, +1, limit)
	}
	if len(dirty) > 0 {
		slices.Sort(dirty)
		if err := s.writeBack(dirty, false); err != nil {
			return err
		}
	}
	// The write-back leaves the LRU order as it was: the tail still holds
	// the victims.
	for k := 0; k < need; k++ {
		ln := s.lruVictim()
		if ln == nil {
			break
		}
		s.dropLine(ln)
		s.acct.Evictions++
	}
	return nil
}

// combine extends a write-back run from chunk from in direction step
// across resident dirty lines not yet in dirty, until the run would span
// limit chunks, and returns dirty with them appended.
func (s *engineSet) combine(dirty []int, from, step, limit int) []int {
	for c, span := from, 1; span < limit; c, span = c+step, span+1 {
		if nb, ok := s.lines[c]; !ok || !nb.dirty || slices.Contains(dirty, c) {
			break
		}
		dirty = append(dirty, c)
	}
	return dirty
}

// writeBack seals and stores the resident dirty chunks dirty, sorted
// ascending, through writeBatch. Each maximal contiguous run, capped at
// batchChunks, is one window; whole windows fill batches of up to
// batchSlots, so a large flush splits its seals across Ps as a stream
// does. The chunks' freshness counters bump once, their valid bits set,
// and their lines stay resident and leave clean. When first is set the
// first multi-chunk window pays pipeline fill/drain (a flush drains the
// pipeline; eviction write-backs do not). A store error ends the
// write-back at its window.
func (s *engineSet) writeBack(dirty []int, first bool) error {
	if s.integrityErr != nil {
		return s.integrityErr
	}
	limit := s.batchChunks()
	for len(dirty) > 0 {
		chunks, _, wins := s.win.batch(min(len(dirty), batchSlots(s.cfg.ChunkSize)))
		n := 0
		for n < len(chunks) {
			end := n + 1
			for end < len(dirty) && end-n < limit && dirty[end] == dirty[end-1]+1 {
				end++
			}
			if end > len(chunks) {
				break // the run opens the next batch
			}
			wins = append(wins, window{end: end, first: first})
			first = first && end-n == 1
			n = end
		}
		copy(chunks, dirty[:n])
		if _, err := s.writeBatch(chunks[:n], nil, nil, wins); err != nil {
			return err
		}
		dirty = dirty[n:]
	}
	return nil
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

// chargeWindow accounts one window of chunks chunks, fetched of which
// crossed the crypto pipeline (a read served from resident lines or
// valid bits skips it). dramBusy is the window's bursts as the set
// experiences them, at its bandwidth share; dramBus counts the bytes once
// at full channel rate (Report.MemoryCycles). It is the one charge of
// every window a batch moves.
//
// A window is paced by its slowest stage (DRAM, the AES pool, the serial
// HMAC core, or the on-chip copy), the first window of a pipeline
// additionally pays fill/drain, and the per-window issue cost replaces
// the chunked path's per-chunk issue cost. The AES pool stage bundles CTR
// keystream work with PMAC block work: for reads the keystream
// precomputes during the fetch of earlier windows, but the pool must
// still serve every block, so pool occupancy — not the per-chunk wave
// latency — is what paces a saturated stream.
//
// A lone chunk — a one-chunk window between DRAM and the buffer, that
// is, a chunked miss or a lone write-back — is the one exception: it pays
// the chunked charge, the burst partially overlapped with the crypto
// stage (ChunkTime) plus the per-chunk issue cost, because pipelining
// cannot help it.
func (s *engineSet) chargeWindow(fetched, chunks int, dramBusy, dramBus uint64, first, lone bool) {
	s.acct.DRAMCycles += dramBus
	if lone {
		s.acct.BusyCycles += s.params.ChunkTime(dramBusy, s.cryptoCycles()) + s.params.ChunkIssueCycles
		return
	}
	pool, hmac := s.cryptoStages(fetched)
	copyStage := uint64(chunks*s.cfg.ChunkSize) / 64
	s.acct.BusyCycles += s.params.StreamWindowTime(dramBusy, pool, hmac, copyStage) + s.params.ChunkIssueCycles
	if first {
		s.acct.BusyCycles += s.params.StreamFillDrain(dramBusy, pool, hmac, copyStage)
	}
}

// read copies region bytes [addr, addr+len(buf)) into buf and returns the
// engine-set busy cycles the access cost.
func (s *engineSet) read(addr uint64, buf []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.acct.BusyCycles
	off := addr - s.cfg.Base
	for done := 0; done < len(buf); {
		chunk := int((off + uint64(done)) / uint64(s.cfg.ChunkSize))
		inOff := int((off + uint64(done)) % uint64(s.cfg.ChunkSize))
		ln, err := s.load(chunk, true)
		if err != nil {
			return s.acct.BusyCycles - start, err
		}
		n := copy(buf[done:], ln.data[inOff:])
		s.chargeHit(n)
		s.acct.Hits++
		done += n
	}
	return s.acct.BusyCycles - start, nil
}

// write stores data at addr and returns the busy cycles the access cost.
func (s *engineSet) write(addr uint64, data []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.acct.BusyCycles
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
			return s.acct.BusyCycles - start, err
		}
		copy(ln.data[inOff:], data[done:done+n])
		ln.dirty = true
		s.chargeHit(n)
		s.acct.Hits++
		done += n
	}
	return s.acct.BusyCycles - start, nil
}

// flush writes back every dirty line (end of kernel / result publication)
// in ascending chunk order — deterministic DRAM write order and cycle
// accounting — with contiguous runs batched through pipelined windows.
func (s *engineSet) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dirty := s.dirty[:0]
	for idx, ln := range s.lines {
		if ln.dirty {
			dirty = append(dirty, idx)
		}
	}
	slices.Sort(dirty)
	return s.writeBack(dirty, true)
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
	return s.acct
}

// resetStats zeroes the set's counters, keeping its region's name and
// channel.
func (s *engineSet) resetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acct = RegionStats{Name: s.cfg.Name, Channel: s.cfg.Channel}
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
