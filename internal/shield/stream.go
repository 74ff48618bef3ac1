package shield

import (
	"fmt"

	"shef/internal/axi"
)

// This file is the Shield's streaming data path: ReadStream/WriteStream
// move multi-chunk bursts through a three-stage pipeline instead of the
// chunk-at-a-time load/decrypt/verify/copy loop of ReadBurst/WriteBurst.
//
//	stage 1  fetch ciphertext + tags for a window of chunks from DRAM in
//	         one batched AXI transaction per contiguous run
//	stage 2  decrypt/verify the window's chunks (the set's AESEngines
//	         pool in the cycle model; one chunk after another on the
//	         calling goroutine in this process)
//	stage 3  merge into the caller's buffer (on-chip copy)
//
// Windows overlap in the performance model (perf.StreamWindowTime /
// StreamFillDrain): while window k is being verified, window k+1's fetch
// and CTR keystream precomputation are already in flight — CTR keystream
// depends only on the IV, never on the data, so the AES pool generates it
// during the DRAM round trip. The paper claims exactly this overlap for
// the engine set pipeline (§5.2.2); the chunked path cannot exploit it
// because it holds a single outstanding burst and releases data only
// after each MAC check (perf.Params.OverlapAlpha).
//
// Locking is window-granular: the engine-set mutex is taken per window,
// not for the whole stream, so chunked accesses and other streams to the
// same region interleave between windows. Resident buffer lines stay
// authoritative — streamed reads serve them from on-chip memory, and
// streamed full-chunk writes supersede them — so streams and cached
// traffic never diverge. The per-chunk hot path allocates nothing: the
// staging window and seal scratch are dedicated per engine set, and
// buffer lines are pooled.

// streamWindowChunks is the pipeline window: how many chunks stage 1
// fetches per batched transaction and stage 2 decrypts per window.
const streamWindowChunks = 16

// streamWindow is the preallocated staging state of one pipeline window,
// dedicated per engine set so the hot path is allocation-free. chunks and
// offs hold a stream window's slots (span), idx the slots a read fetches.
type streamWindow struct {
	ct     []byte
	tags   []byte
	idx    [streamWindowChunks]int
	chunks [streamWindowChunks]int
	offs   [streamWindowChunks]int
}

// span lays out a contiguous window of n slots in the window's own slot
// arrays: slot i carries chunk c0+i at buffer offset off+i*cs.
func (w *streamWindow) span(c0, off, n, cs int) (chunks, offs []int) {
	for i := 0; i < n; i++ {
		w.chunks[i], w.offs[i] = c0+i, off+i*cs
	}
	return w.chunks[:n], w.offs[:n]
}

// fetchRun is the shared stage-1 fetch accounting: one batched AXI
// transaction for runChunks chunks starting at chunk0, ciphertext and
// tags landing in the window's staging at slot0, returning the busy-side
// and bus-side DRAM charges. Every path that moves chunks from DRAM
// (chunked load, prefetch, stream, gather) uses it so the burst and charge
// model lives in one place. A set without tags issues no tag burst.
func (s *engineSet) fetchRun(win *streamWindow, slot0, chunk0, runChunks int) (dramBusy, dramBus uint64, err error) {
	cs, ts := s.cfg.ChunkSize, s.tagSize
	dataAddr, tagAddr := s.dramAddrs(chunk0)
	if _, err := s.port.ReadBurst(dataAddr, win.ct[slot0*cs:(slot0+runChunks)*cs]); err != nil {
		return 0, 0, err
	}
	if ts > 0 {
		if _, err := s.port.ReadBurst(tagAddr, win.tags[slot0*ts:(slot0+runChunks)*ts]); err != nil {
			return 0, 0, err
		}
	}
	busy, bus := s.runCharge(runChunks)
	return busy, bus, nil
}

// storeRun is fetchRun's write-side twin: one batched store for the
// window's sealed ciphertext and tags at slot0 (write-back, stream, gather).
func (s *engineSet) storeRun(win *streamWindow, slot0, chunk0, runChunks int) (dramBusy, dramBus uint64, err error) {
	cs, ts := s.cfg.ChunkSize, s.tagSize
	dataAddr, tagAddr := s.dramAddrs(chunk0)
	if _, err := s.port.WriteBurst(dataAddr, win.ct[slot0*cs:(slot0+runChunks)*cs]); err != nil {
		return 0, 0, err
	}
	if ts > 0 {
		if _, err := s.port.WriteBurst(tagAddr, win.tags[slot0*ts:(slot0+runChunks)*ts]); err != nil {
			return 0, 0, err
		}
	}
	busy, bus := s.runCharge(runChunks)
	return busy, bus, nil
}

// runCharge prices one batched transaction of runChunks chunks plus their
// tags: requests amortise per legal AXI burst, bandwidth per byte.
func (s *engineSet) runCharge(runChunks int) (dramBusy, dramBus uint64) {
	runBytes := runChunks * (s.cfg.ChunkSize + s.tagSize)
	extraBursts := uint64(axi.BurstsFor(runBytes) - 1)
	return s.params.DRAMCyclesShared(runBytes, s.shareNow()) + extraBursts*s.params.DRAMRequestCycles,
		s.params.DRAMCycles(runBytes) + extraBursts*s.params.DRAMRequestCycles
}

// ReadStream reads like ReadBurst — same plaintext view, same region
// rules — but moves full chunks through the pipelined burst engine.
// Unaligned head and tail bytes fall back to the chunked path. The
// returned cycle count is the engine-set busy time under the overlapped
// pipeline model.
func (s *Shield) ReadStream(addr uint64, buf []byte) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.setFor(addr)
	if err != nil {
		return 0, err
	}
	if addr+uint64(len(buf)) > set.cfg.Base+set.cfg.Size {
		return 0, fmt.Errorf("shield: stream [%#x,+%d) crosses region %q boundary", addr, len(buf), set.cfg.Name)
	}
	return set.readStream(addr, buf)
}

// WriteStream writes like WriteBurst but seals and stores full chunks
// through the pipelined burst engine: each window's chunks are sealed,
// then stored in one batched AXI write. Full-chunk writes never
// fetch (the streaming write-once pattern); unaligned head and tail bytes
// fall back to the chunked read-modify-write path.
func (s *Shield) WriteStream(addr uint64, data []byte) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.setFor(addr)
	if err != nil {
		return 0, err
	}
	if addr+uint64(len(data)) > set.cfg.Base+set.cfg.Size {
		return 0, fmt.Errorf("shield: stream [%#x,+%d) crosses region %q boundary", addr, len(data), set.cfg.Name)
	}
	return set.writeStream(addr, data)
}

// readStream implements the streamed read for one engine set.
func (s *engineSet) readStream(addr uint64, buf []byte) (uint64, error) {
	return s.stream(addr, buf, s.read, s.readWindowSlots)
}

// writeStream implements the streamed write for one engine set.
func (s *engineSet) writeStream(addr uint64, data []byte) (uint64, error) {
	return s.stream(addr, data, s.write, s.writeWindowSlots)
}

// stream splits [addr, addr+len(buf)) into unaligned head and tail bytes,
// which take the chunked path, and chunk-aligned windows, each a run of
// contiguous slots handed to move (the read or write window
// implementation) under the set lock.
func (s *engineSet) stream(addr uint64, buf []byte, chunked func(uint64, []byte) (uint64, error),
	move func(chunks, offs []int, buf []byte, first bool) (uint64, error)) (uint64, error) {

	cs := s.cfg.ChunkSize
	return axi.StreamWindows(s.cfg.Base, addr, len(buf), cs, streamWindowChunks,
		func(a uint64, lo, hi int) (uint64, error) { return chunked(a, buf[lo:hi]) },
		func(a uint64, lo, hi int, first bool) (uint64, error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			chunks, offs := s.win.span(int((a-s.cfg.Base)/uint64(cs)), lo, (hi-lo)/cs, cs)
			return move(chunks, offs, buf, first)
		})
}

// ReadGather implements axi.Gatherer: the runs — disjoint ascending
// chunk-aligned whole-chunk ranges inside one region — travel as ONE
// pipelined stream. Chunks from consecutive runs pack into shared
// pipeline windows, so a scattered transfer (a Path ORAM root-to-leaf
// path) gets the same per-window amortisation as a contiguous stream and
// pays pipeline fill/drain once per gather, not once per run. Stage 1
// still issues one batched AXI transaction per contiguous chunk run.
func (s *Shield) ReadGather(runs []axi.Burst, buf []byte) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.gatherSet(runs, len(buf))
	if err != nil {
		return 0, err
	}
	return set.gather(runs, buf, set.readWindowSlots)
}

// WriteGather implements axi.Gatherer for the write side: each window's
// chunks sealed, one batched store per contiguous chunk run,
// windows overlapped, fill/drain once per gather. Runs are whole chunks,
// so stores never read-modify-write.
func (s *Shield) WriteGather(runs []axi.Burst, data []byte) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.gatherSet(runs, len(data))
	if err != nil {
		return 0, err
	}
	return set.gather(runs, data, set.writeWindowSlots)
}

// gatherSet validates a gather against the region layout: one engine set,
// chunk-aligned whole-chunk ascending disjoint runs, packed buffer.
func (s *Shield) gatherSet(runs []axi.Burst, n int) (*engineSet, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("shield: empty gather")
	}
	set, err := s.setFor(runs[0].Addr)
	if err != nil {
		return nil, err
	}
	cs := uint64(set.cfg.ChunkSize)
	total := 0
	prevEnd := uint64(0)
	for _, r := range runs {
		if r.Len <= 0 {
			return nil, fmt.Errorf("shield: gather run %v has no length", r)
		}
		if r.Addr < set.cfg.Base || r.Addr+uint64(r.Len) > set.cfg.Base+set.cfg.Size {
			return nil, fmt.Errorf("shield: gather run %v outside region %q", r, set.cfg.Name)
		}
		if (r.Addr-set.cfg.Base)%cs != 0 || uint64(r.Len)%cs != 0 {
			return nil, fmt.Errorf("shield: gather run %v not chunk-aligned (chunk %d)", r, cs)
		}
		if r.Addr < prevEnd {
			return nil, fmt.Errorf("shield: gather runs not ascending/disjoint at %v", r)
		}
		prevEnd = r.Addr + uint64(r.Len)
		total += r.Len
	}
	if total != n {
		return nil, fmt.Errorf("shield: gather buffer %d bytes, runs carry %d", n, total)
	}
	return set, nil
}

// gather walks the runs, packing chunks into pipeline windows of up to
// streamWindowChunks slots and handing each window to move (the read or
// write window implementation) under the set lock. Only the very first
// window pays fill/drain.
func (s *engineSet) gather(runs []axi.Burst,
	buf []byte, move func(chunks, offs []int, buf []byte, first bool) (uint64, error)) (uint64, error) {

	cs := s.cfg.ChunkSize
	var chunks, offs [streamWindowChunks]int
	var total uint64
	n, off := 0, 0
	first := true
	flush := func() error {
		if n == 0 {
			return nil
		}
		s.mu.Lock()
		c, err := move(chunks[:n], offs[:n], buf, first)
		s.mu.Unlock()
		total += c
		first = false
		n = 0
		return err
	}
	for _, r := range runs {
		c0 := int((r.Addr - s.cfg.Base) / uint64(cs))
		for k := 0; k < r.Len/cs; k++ {
			chunks[n] = c0 + k
			offs[n] = off
			n++
			off += cs
			if n == streamWindowChunks {
				if err := flush(); err != nil {
					return total, err
				}
			}
		}
	}
	return total, flush()
}

// readWindowSlots moves one read window — classify, batch-fetch,
// decrypt/verify, merge — for streams and gathers alike: slot i carries
// absolute chunk chunks[i], delivered at buf[offs[i]]. Fetches batch per
// contiguous chunk run among the missing slots. Callers hold s.mu.
func (s *engineSet) readWindowSlots(chunks, offs []int, buf []byte, first bool) (uint64, error) {
	if s.integrityErr != nil {
		return 0, s.integrityErr
	}
	start := s.busyCycles
	cs := s.cfg.ChunkSize
	n := len(chunks)

	win := s.win
	fetch := win.idx[:0]
	for i := 0; i < n; i++ {
		chunk := chunks[i]
		dst := buf[offs[i] : offs[i]+cs]
		if ln, ok := s.lines[chunk]; ok {
			// Resident lines (clean or dirty) are authoritative.
			s.touchResident(ln)
			copy(dst, ln.data)
			s.hits++
		} else if !s.initialized[chunk] {
			clear(dst)
		} else {
			fetch = append(fetch, i)
		}
	}

	// Stage 1: one batched fetch per contiguous run of missing chunks
	// (adjacent slots carrying adjacent chunks), tags riding along.
	var dramBusy, dramBus uint64
	for i := 0; i < len(fetch); {
		j := i
		for j+1 < len(fetch) && fetch[j+1] == fetch[j]+1 && chunks[fetch[j+1]] == chunks[fetch[j]]+1 {
			j++
		}
		i0, runChunks := fetch[i], j-i+1
		busy, bus, err := s.fetchRun(win, i0, chunks[i0], runChunks)
		if err != nil {
			return s.busyCycles - start, err
		}
		dramBusy += busy
		dramBus += bus
		i = j + 1
	}

	// Stage 2: decrypt/verify into the scattered destinations.
	for _, i := range fetch {
		if err := s.openSlot(i, chunks[i], buf[offs[i]:offs[i]+cs]); err != nil {
			s.integrityErr = err
			return s.busyCycles - start, err
		}
	}

	s.chargeWindow(len(fetch), n, n*cs, dramBusy, dramBus, first)
	return s.busyCycles - start, nil
}

// writeWindowSlots moves one write window for streams and gathers alike:
// seal every slot, then one batched store per contiguous chunk run.
// Full-chunk stores supersede resident lines and never fetch. Callers
// hold s.mu.
func (s *engineSet) writeWindowSlots(chunks, offs []int, data []byte, first bool) (uint64, error) {
	if s.integrityErr != nil {
		return 0, s.integrityErr
	}
	start := s.busyCycles
	cs := s.cfg.ChunkSize
	n := len(chunks)

	win := s.win

	// New write epoch for every chunk before sealing it.
	if s.cfg.Freshness {
		for _, chunk := range chunks {
			s.counters[chunk]++
		}
	}

	// Stage 1: seal each chunk into its window slot.
	for i := 0; i < n; i++ {
		s.sealSlot(i, chunks[i], data[offs[i]:offs[i]+cs])
	}

	// Stage 2: one batched store per contiguous chunk run.
	var dramBusy, dramBus uint64
	for i := 0; i < n; {
		j := i
		for j+1 < n && chunks[j+1] == chunks[j]+1 {
			j++
		}
		busy, bus, err := s.storeRun(win, i, chunks[i], j-i+1)
		if err != nil {
			return s.busyCycles - start, err
		}
		dramBusy += busy
		dramBus += bus
		i = j + 1
	}

	// The gather write supersedes any resident lines wholesale: DRAM now
	// holds the authoritative ciphertext at the bumped epoch.
	for _, chunk := range chunks {
		if ln, ok := s.lines[chunk]; ok {
			s.dropLine(ln)
		}
		s.initialized[chunk] = true
	}

	s.chargeWindow(n, n, n*cs, dramBusy, dramBus, first)
	return s.busyCycles - start, nil
}

// chargeWindow accounts one pipeline window under the overlapped model:
// the window is paced by its slowest stage (DRAM, the AES pool, the
// serial HMAC core, or the on-chip merge), the first window additionally
// pays pipeline fill/drain, and the per-window issue cost replaces the
// chunked path's per-chunk issue cost.
//
// The AES pool stage bundles CTR keystream work with PMAC block work: for
// reads the keystream precomputes during the fetch of earlier windows,
// but the pool must still serve every block, so pool occupancy — not the
// per-chunk wave latency — is what paces a saturated stream.
//
// fetched is the number of chunks that actually crossed the crypto
// pipeline (reads served from resident lines or valid bits skip it);
// chunks is everything the window moved, which is what Streamed reports.
func (s *engineSet) chargeWindow(fetched, chunks, bytes int, dramBusy, dramBus uint64, first bool) {
	poolStage, hmacStage := s.cryptoStages(fetched)
	s.chargeOverlapped(dramBusy, dramBus, poolStage, hmacStage, uint64(bytes)/64, first)
	s.streamed += uint64(chunks)
	s.streamWindows++
}
