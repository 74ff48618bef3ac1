package shield

import (
	"fmt"

	"shef/internal/axi"
	"shef/internal/parallel"
)

// This file is the Shield's window engine: every chunk that moves between
// DRAM and the engine set travels in a batch of pipeline windows through
// readBatch or writeBatch. ReadStream/WriteStream and the gathers move
// the caller's buffer; a chunked miss or a prefetch (load) moves one
// window into buffer lines, and a flush or an eviction (writeBack) moves
// dirty buffer lines out. The read side is a three-stage pipeline:
//
//	stage 1  fetch ciphertext + tags for a window of chunks from DRAM in
//	         one batched AXI transaction per contiguous run
//	stage 2  decrypt/verify the window's chunks (the set's AESEngines
//	         pool in the cycle model; in this process, a batch of windows
//	         split across Ps, see below); a miss decrypts straight into
//	         new buffer lines
//	stage 3  merge into the caller's buffer (on-chip copy)
//
// The write side seals the batch (stage 2), then stores and charges it
// window by window. Whoever builds a batch decides where its windows end:
// a stream or gather every streamWindowChunks slots, a write-back at each
// contiguous dirty run, a miss after its prefetch run.
//
// Windows overlap in the performance model (perf.StreamWindowTime /
// StreamFillDrain): while window k is being verified, window k+1's fetch
// and CTR keystream precomputation are already in flight — CTR keystream
// depends only on the IV, never on the data, so the AES pool generates it
// during the DRAM round trip. The paper claims exactly this overlap for
// the engine set pipeline (§5.2.2); a lone chunk cannot exploit it
// because it holds a single outstanding burst and releases data only
// after each MAC check (perf.Params.OverlapAlpha).
//
// In real time the windows move in batches of streamBatchBytes. Under the
// set mutex the caller classifies and fetches every window of a batch,
// in window order; only the chunk seals or opens are split across Ps
// (parallel.Group, one contiguous range and one seal scratch per worker);
// then the batch merges, stores and charges window by window, in order.
// A stream read opens its slots in place in the staging, and the merge
// copies out only the slots before the lowest-index failure, so the
// caller's buffer receives exactly what a window-at-a-time read would: every
// window before the failure, and in the failing window the chunks before
// it plus its resident and virgin slots. The cycle model sees the same
// fetchRun/storeRun/chargeWindow calls in the same order either way.
// A flush splits the same way once its batch of dirty lines is large
// enough; a miss window is far below the grain and never splits.
//
// Locking is batch-granular: the engine-set mutex is taken per batch,
// not for the whole stream, so chunked accesses and other streams to the
// same region interleave between batches. Resident buffer lines stay
// authoritative — streamed reads serve them from on-chip memory, and
// streamed full-chunk writes supersede them — so streams and cached
// traffic never diverge. The per-chunk hot path allocates nothing in
// steady state: the staging and seal scratch are dedicated per engine
// set, buffer lines are pooled, and a split reuses the set's task slots.

// streamWindowChunks is the pipeline window: how many chunks stage 1
// fetches per batched transaction and stage 2 decrypts per window.
const streamWindowChunks = 16

// streamBatchBytes is how many bytes of windows one batch moves under
// the set mutex, whatever the chunk size (at least one window), and
// splitGrainBytes is the least chunk crypto a worker of the split gets.
// The Data Owner's whole-image seal and open split by the same grain.
//
// Measured on a 2-vCPU Xeon VM with Go 1.24: a split costs about 1 µs to
// start and join while the other P is awake, and its second range starts
// 50–70 µs late (median, back-to-back splits) when that P's thread must
// first be woken. Opening or sealing 64 KiB of 512-byte chunks takes
// 190–260 µs there at one P. Halving w µs of crypto pays once w/2 plus
// the wake-up is less than w, from about 140 µs (40–50 KiB); a 64 KiB
// grain keeps each share at three or more times the wake-up. One 8 KiB
// window, about 30 µs, cannot pay for a wake-up, which is why the
// per-window fan-out PR 13 deleted lost. A batch is four grains, so each of four Ps still
// gets one, and it bounds the mutex hold to 256 KiB of crypto: 0.8–1 ms
// at one P and about half that at two, against about 30 µs for a window.
const (
	streamBatchBytes = 256 << 10
	splitGrainBytes  = 64 << 10
	maxSplitWorkers  = streamBatchBytes / splitGrainBytes
)

// batchSlots is how many chunkSize-byte slots make a batch: whole
// windows, at least one.
func batchSlots(chunkSize int) int {
	return max(1, streamBatchBytes/(streamWindowChunks*chunkSize)) * streamWindowChunks
}

// cryptoPass selects what a split does to its slots.
type cryptoPass int

const (
	passOpen cryptoPass = iota // verify and decrypt staged slots in place
	passSeal                   // seal the buffer into staged slots
)

// streamWindow is the preallocated staging of the set's windows in
// flight: ciphertext and tags, each slot's chunk and buffer offset, the
// fetched slots (idx), and the batch's windows. It holds one window
// until the set first moves a longer batch, then grows to fit the
// largest batch moved so far (at most batchSlots), so a set that only
// serves chunked traffic keeps one window's staging. It is also the
// split's parallel.Body: one seal scratch and failure record per worker,
// and the pass in progress.
type streamWindow struct {
	ct     []byte
	tags   []byte
	idx    []int
	chunks []int
	offs   []int
	wins   []window

	set     *engineSet
	scratch [maxSplitWorkers]*sealScratch // [0] is the set's own scratch
	bad     [maxSplitWorkers]int
	errs    [maxSplitWorkers]error
	group   parallel.Group
	pass    cryptoPass
	slots   []int      // passOpen: the fetched slots
	lines   []*bufLine // passOpen: the buffer line slot i opens into (nil: in place)
	buf     []byte     // passSeal: the caller's buffer (nil: the buffer lines), during the pass only
}

// window is one pipeline window of a batch. Whoever builds the batch sets
// where the window ends and whether it is the first of its pipeline;
// readBatch records the window's fetched slots and DRAM charges.
type window struct {
	end   int  // one past the window's last slot
	first bool // pays pipeline fill/drain

	fetchEnd          int // end of the window's fetched slots in idx
	dramBusy, dramBus uint64
}

// newStreamWindow builds a set's staging, sized for slots slots.
func newStreamWindow(s *engineSet, slots int) *streamWindow {
	w := &streamWindow{set: s}
	w.scratch[0] = s.scratch
	w.grow(slots)
	return w
}

// grow resizes the staging for slots slots, and gives every worker a
// seal scratch once a batch can split.
func (w *streamWindow) grow(slots int) {
	s := w.set
	w.ct = make([]byte, slots*s.cfg.ChunkSize)
	w.tags = make([]byte, slots*s.tagSize)
	w.idx = make([]int, 0, slots)
	w.chunks = make([]int, slots)
	w.offs = make([]int, slots)
	w.lines = make([]*bufLine, slots)
	w.wins = make([]window, 0, slots) // a write-back may cut every slot
	if s.seal != nil && slots*s.cfg.ChunkSize >= 2*splitGrainBytes {
		for k := 1; k < maxSplitWorkers; k++ {
			if w.scratch[k] == nil {
				w.scratch[k] = s.seal.newScratch()
			}
		}
	}
}

// batch returns the staging's first n slot arrays and its empty window
// list, growing it if it holds fewer than n slots.
func (w *streamWindow) batch(n int) (chunks, offs []int, wins []window) {
	if len(w.chunks) < n {
		w.grow(n)
	}
	return w.chunks[:n], w.offs[:n], w.wins[:0]
}

// split runs pass over n units (slots of slots, or every slot for
// passSeal, sealing buf or, if buf is nil, the slots' resident lines) of
// the current batch, one contiguous range per worker. A set
// without a sealer only copies, which never pays for a hand-off, so it
// stays on the caller.
func (w *streamWindow) split(pass cryptoPass, slots []int, n int, buf []byte) {
	p := 1
	if w.set.seal != nil {
		p = min(parallel.Workers(n*w.set.cfg.ChunkSize, splitGrainBytes), maxSplitWorkers)
	}
	w.pass, w.slots, w.buf = pass, slots, buf
	w.group.Run(p, n, w)
	w.slots, w.buf = nil, nil
}

// Run implements parallel.Body: worker k runs the pass over units
// [lo, hi) with its own seal scratch. An opening worker stops at its
// first failure and records it.
func (w *streamWindow) Run(k, lo, hi int) {
	s, sc, cs := w.set, w.scratch[k], w.set.cfg.ChunkSize
	switch w.pass {
	case passOpen:
		w.bad[k], w.errs[k] = hi, nil
		for j := lo; j < hi; j++ {
			i := w.slots[j]
			dst := w.ct[i*cs : (i+1)*cs]
			if ln := w.lines[i]; ln != nil {
				dst = ln.data
			}
			if err := s.openSlot(sc, i, w.chunks[i], dst); err != nil {
				w.bad[k], w.errs[k] = j, err
				return
			}
		}
	case passSeal:
		for i := lo; i < hi; i++ {
			c := w.chunks[i]
			epoch := s.counters[c]
			if s.cfg.Freshness {
				epoch++ // the epoch writeBatch bumps to before the store
			}
			var src []byte
			if w.buf == nil {
				src = s.lines[c].data
			} else {
				src = w.buf[w.offs[i] : w.offs[i]+cs]
			}
			s.sealSlot(sc, i, c, epoch, src)
		}
	}
}

// open verifies the staged slots slots and decrypts each in place or
// into its buffer line; without a sealer it only copies to the lines. It
// returns how many lead slots verified, up to the lowest-index failure,
// and that failure (nil if there was none).
func (w *streamWindow) open(slots []int) (int, error) {
	w.split(passOpen, slots, len(slots), nil)
	// Worker ranges ascend with k, so the first failure found is the
	// lowest-index one.
	ok, err := len(slots), error(nil)
	for k := range w.errs {
		if w.errs[k] != nil && err == nil {
			ok, err = w.bad[k], w.errs[k]
		}
		w.errs[k] = nil
	}
	return ok, err
}

// fetchRun is the stage-1 fetch: one batched AXI transaction for
// runChunks chunks starting at chunk0, ciphertext and tags landing in the
// window's staging at slot0, returning the busy-side and bus-side DRAM
// charges. A set without tags issues no tag burst.
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
// window's sealed ciphertext and tags at slot0.
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
	return set.stream(addr, buf, set.read, set.readBatch)
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
	return set.stream(addr, data, set.write, set.writeBatch)
}

// stream splits [addr, addr+len(buf)) into unaligned head and tail bytes,
// which take the chunked path, and the chunk-aligned middle, which moves
// as a one-run gather through move (the read or write batch
// implementation).
func (s *engineSet) stream(addr uint64, buf []byte, chunked func(uint64, []byte) (uint64, error),
	move func(chunks, offs []int, buf []byte, wins []window) (uint64, error)) (uint64, error) {

	cs, n := uint64(s.cfg.ChunkSize), uint64(len(buf))
	head := min((cs-(addr-s.cfg.Base)%cs)%cs, n)
	tail := head + (n-head)/cs*cs
	var total uint64
	if head > 0 {
		c, err := chunked(addr, buf[:head])
		total += c
		if err != nil {
			return total, err
		}
	}
	run := [1]axi.Burst{{Addr: addr + head, Len: int(tail - head)}}
	c, err := s.gather(run[:], buf[head:tail], move)
	total += c
	if err != nil {
		return total, err
	}
	if tail < n {
		c, err := chunked(addr+tail, buf[tail:])
		total += c
		return total, err
	}
	return total, nil
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
	return set.gather(runs, buf, set.readBatch)
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
	return set.gather(runs, data, set.writeBatch)
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

// gather walks the runs, packing chunks into batches of pipeline
// windows of streamWindowChunks slots and handing each batch to move (the
// read or write batch implementation) under the set lock. Only the very
// first window pays fill/drain.
func (s *engineSet) gather(runs []axi.Burst,
	buf []byte, move func(chunks, offs []int, buf []byte, wins []window) (uint64, error)) (uint64, error) {

	cs := s.cfg.ChunkSize
	batch := batchSlots(cs)
	var total uint64
	// r is the next run to open; next and left are the open run's next
	// chunk and how many of its chunks are left.
	r, next, left := 0, 0, 0
	for off, first := 0, true; off < len(buf); first = false {
		n := min(batch, (len(buf)-off)/cs)
		s.mu.Lock()
		chunks, offs, wins := s.win.batch(n)
		for i := range chunks {
			for left == 0 {
				next, left = int((runs[r].Addr-s.cfg.Base)/uint64(cs)), runs[r].Len/cs
				r++
			}
			chunks[i], offs[i] = next, off
			next, left, off = next+1, left-1, off+cs
		}
		for w0 := 0; w0 < n; w0 += streamWindowChunks {
			wins = append(wins, window{end: min(w0+streamWindowChunks, n), first: first && w0 == 0})
		}
		c, err := move(chunks, offs, buf, wins)
		s.mu.Unlock()
		total += c
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// readBatch moves one batch of read windows: slot i carries absolute
// chunk chunks[i], delivered at buf[offs[i]], or, when buf is nil, into a
// new buffer line (a miss or prefetch, whose chunks the caller has made
// room for and which must all be absent and valid). It classifies and
// fetches every window, one batched fetch per contiguous chunk run among
// its missing slots; the fetched slots are verified and decrypted in
// place, or for a miss straight into new buffer lines, in one split;
// then each window in order merges its verified slots, serves its
// resident and virgin slots and is charged. Lines a miss brings in are
// marked prefetched until a demand access touches them. The window
// holding the lowest-index integrity failure latches the set and is not
// charged, and a fetch error ends the batch at its window. Callers hold
// s.mu.
func (s *engineSet) readBatch(chunks, offs []int, buf []byte, wins []window) (uint64, error) {
	if s.integrityErr != nil {
		return 0, s.integrityErr
	}
	start := s.acct.BusyCycles
	cs := s.cfg.ChunkSize
	win := s.win

	// Stage 1, window by window: classify, then one batched fetch per
	// contiguous run of missing chunks (adjacent slots carrying adjacent
	// chunks), tags riding along. opened is how many fetched slots belong
	// to windows that fetched in full.
	fetch := win.idx[:0]
	var opened int
	var fetchErr error
	for k, w0 := 0, 0; k < len(wins) && fetchErr == nil; k++ {
		wf := &wins[k]
		f0 := len(fetch)
		for i := w0; i < wf.end; i++ {
			if _, resident := s.lines[chunks[i]]; !resident && s.initialized[chunks[i]] {
				fetch = append(fetch, i)
			}
		}
		wf.fetchEnd = len(fetch)
		for i := f0; i < len(fetch); {
			j := i
			for j+1 < len(fetch) && fetch[j+1] == fetch[j]+1 && chunks[fetch[j+1]] == chunks[fetch[j]]+1 {
				j++
			}
			busy, bus, err := s.fetchRun(win, fetch[i], chunks[fetch[i]], j-i+1)
			if err != nil {
				fetchErr, opened, wins = err, f0, wins[:k+1]
				break
			}
			wf.dramBusy += busy
			wf.dramBus += bus
			i = j + 1
		}
		w0 = wf.end
	}
	if fetchErr == nil {
		opened = len(fetch)
	}

	// Stage 2, split: verify and decrypt the slots of every window that
	// fetched in full, in place or, for a miss, straight into new buffer
	// lines, which join the buffer if they verify.
	opening := fetch[:opened]
	if buf == nil {
		for _, i := range opening {
			win.lines[i] = s.linePool.Get().(*bufLine)
		}
	}
	verified, integrityErr := win.open(opening)
	if buf == nil {
		for f, i := range opening {
			ln := win.lines[i]
			win.lines[i] = nil
			if f < verified {
				ln.prefetched = true
				s.insertLine(chunks[i], ln)
			} else {
				s.linePool.Put(ln)
			}
		}
	}

	// Stage 3, window by window: merge the verified slots into buf,
	// serve resident lines (clean or dirty, they are authoritative) and
	// virgin chunks, then charge.
	w0, f0 := 0, 0
	for k, wf := range wins {
		for i, f := w0, f0; i < wf.end; i++ {
			if f < wf.fetchEnd && fetch[f] == i {
				if f < verified && buf != nil {
					copy(buf[offs[i]:offs[i]+cs], win.ct[i*cs:(i+1)*cs])
				}
				f++
				continue
			}
			dst := buf[offs[i] : offs[i]+cs]
			if ln, ok := s.lines[chunks[i]]; ok {
				s.touchResident(ln)
				copy(dst, ln.data)
				s.acct.Hits++
			} else {
				clear(dst)
			}
		}
		if integrityErr != nil && verified < wf.fetchEnd {
			s.integrityErr = integrityErr
			return s.acct.BusyCycles - start, integrityErr
		}
		if fetchErr != nil && k == len(wins)-1 {
			return s.acct.BusyCycles - start, fetchErr
		}
		n := wf.end - w0
		s.chargeWindow(wf.fetchEnd-f0, n, wf.dramBusy, wf.dramBus, wf.first, buf == nil && n == 1)
		if buf == nil {
			s.acct.Misses++
			s.acct.Prefetched += uint64(n - 1)
		} else {
			s.acct.Streamed += uint64(n)
			s.acct.StreamWindows++
		}
		w0, f0 = wf.end, wf.fetchEnd
	}
	return s.acct.BusyCycles - start, nil
}

// writeBatch moves one batch of write windows: slot i seals chunk
// chunks[i] from data[offs[i]], or, when data is nil, from the chunk's
// resident line (a write-back). Every slot is sealed in one split, at
// the write epoch its window moves to; then each window in order bumps
// its chunks' counters to that epoch and is stored, one batched store per
// contiguous chunk run, and charged. A store error ends the batch at its
// window. A full-chunk write never fetches and supersedes the chunk's
// resident line; a write-back leaves its line resident and clean.
// Callers hold s.mu.
func (s *engineSet) writeBatch(chunks, offs []int, data []byte, wins []window) (uint64, error) {
	if s.integrityErr != nil {
		return 0, s.integrityErr
	}
	start := s.acct.BusyCycles

	s.win.split(passSeal, nil, len(chunks), data)

	w0 := 0
	for _, wf := range wins {
		// New write epoch for every chunk of the window before it is
		// stored: the epoch its slots were sealed at.
		if s.cfg.Freshness {
			for _, chunk := range chunks[w0:wf.end] {
				s.counters[chunk]++
			}
		}

		var dramBusy, dramBus uint64
		for i := w0; i < wf.end; {
			j := i
			for j+1 < wf.end && chunks[j+1] == chunks[j]+1 {
				j++
			}
			busy, bus, err := s.storeRun(s.win, i, chunks[i], j-i+1)
			if err != nil {
				return s.acct.BusyCycles - start, err
			}
			dramBusy += busy
			dramBus += bus
			i = j + 1
		}

		// DRAM now holds the authoritative ciphertext at the bumped epoch.
		for _, chunk := range chunks[w0:wf.end] {
			if ln, ok := s.lines[chunk]; ok {
				if data == nil {
					ln.dirty = false
				} else {
					s.dropLine(ln)
				}
			}
			s.initialized[chunk] = true
		}

		n := wf.end - w0
		s.chargeWindow(n, n, dramBusy, dramBus, wf.first, data == nil && n == 1)
		if data == nil {
			s.acct.Writebacks += uint64(n)
			if n > 1 {
				s.acct.BatchedWritebacks += uint64(n)
			}
		} else {
			s.acct.Streamed += uint64(n)
			s.acct.StreamWindows++
		}
		w0 = wf.end
	}
	return s.acct.BusyCycles - start, nil
}
