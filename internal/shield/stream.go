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
// window by window (stage 3). Whoever builds a batch decides where its
// windows end: a stream or gather every streamWindowChunks slots, a
// write-back at each contiguous dirty run, a miss after its prefetch run.
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
// In real time the windows move in batches of streamBatchBytes, and a
// batch runs stages 2 and 3 as a pipeline. Under the set mutex the caller
// classifies and fetches every window of the batch, in window order;
// then the chunk opens or seals are split across Ps (parallel.Group:
// workers claim ascending pieces of slots, each worker with its own seal
// scratch), and while they run, the caller commits the batch window by
// window, in order, as soon as a window's slots are done: a read window
// merges, serves its resident and virgin slots, inserts a miss's lines
// and is charged; a write window bumps its counters, is stored and is
// charged. So the merge and the stores of early windows overlap the
// crypto of later ones, and the cycle model sees the same
// fetchRun/storeRun/chargeWindow calls in the same order as a
// window-at-a-time engine. A piece that fails to open a slot records
// the failure before it is marked done, so the commit meets the
// lowest-index failure by walking in order: the caller's buffer receives
// exactly what a window-at-a-time read would, every window before the
// failure, and in the failing window the chunks before it plus its
// resident and virgin slots. A store error stops the commit at its
// window, so later windows stay as they were; the workers only ever
// write the staging. A flush splits the same way once its batch of dirty
// lines is large enough; a miss window is far below the grain and never
// splits. A batch holds up to 1 MiB, so a 1 MiB op pays one split.
//
// Locking is batch-granular: the engine-set mutex is taken per batch,
// not for the whole stream, so chunked accesses and other streams to the
// same region interleave between batches. Resident buffer lines stay
// authoritative — streamed reads serve them from on-chip memory, and
// streamed full-chunk writes supersede them — so streams and cached
// traffic never diverge. The per-chunk hot path allocates nothing in
// steady state: the staging and seal scratch are dedicated per engine
// set, buffer lines are pooled, and a split reuses the set's task slots
// and piece flags.

// streamWindowChunks is the pipeline window: how many chunks stage 1
// fetches per batched transaction and stage 2 decrypts per window.
const streamWindowChunks = 16

// streamBatchBytes is how many bytes of windows one batch moves under
// the set mutex, whatever the chunk size (at least one window),
// splitGrainBytes is the least chunk crypto a worker of the split gets,
// and maxSplitWorkers caps the workers of one split, and so the seal
// scratches a set keeps. The Data Owner's seal and open of a design's
// regions (SealRegions, OpenRegions) split all their chunks together by
// the same grain.
//
// Measured on a 2-vCPU Xeon VM with Go 1.24: a split costs about 1 µs to
// start and join while the other P is awake. The caller hands its P to
// its first new worker and resumes once the other P's thread has been
// woken, as it usually must between ops: 60–75 µs later (medians over
// 300 back-to-back 1 MiB ops at two Ps). The new worker claims pieces
// meanwhile, so the late start only leaves the caller fewer pieces (7–8
// of 16 at two Ps) instead of idling the other worker at the end of the
// split. Opening or sealing 64 KiB of 512-byte chunks takes 190–260 µs
// there at one P. The grain was sized when each worker had one fixed
// range: halving w µs of crypto paid once w/2 plus the wake-up was less
// than w, from about 140 µs (40–50 KiB), and a 64 KiB grain kept each
// share at three or more times the wake-up. One 8 KiB window, 30 µs or
// less, cannot pay for a wake-up, which is why a per-window fan-out
// lost.
//
// Every split pays the wake-up once, so a batch is sized to make a 1 MiB
// stream, gather or flush one split, and each of four Ps then gets at
// least 256 KiB. Against 256 KiB batches, four splits per MiB, that took
// a 1 MiB HMAC ReadStream at two Ps from 2.11 to 1.99 ms and a
// WriteStream from 2.13 to 1.87 ms on that host (medians of six
// alternating runs). Committing windows while the workers run then moved
// stage 3 off the end of the split: run after the join at two Ps, it
// took 170–190 µs for a 1 MiB read and 270–280 µs for a write (48–52 and
// 60–63 µs at one P, where no other core holds the opened slots), and
// overlapped it takes 70–96 µs of the caller's time. The cost of a batch
// is the mutex hold, up to one 1 MiB batch: 2.0–2.3 ms at one P and
// 1.1–1.5 ms at two there, against 16–18 µs for one window. A chunked
// access to the same region queues behind it; no workload queues one
// there (kv's sets see 8 KiB bursts, and an accelerator drives its
// Shield from one goroutine).
const (
	streamBatchBytes = 1 << 20
	splitGrainBytes  = 64 << 10
	maxSplitWorkers  = 4
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
// flight: ciphertext and tags, each slot's chunk and buffer offset (the
// arrays batch hands out, which readBatch and writeBatch get back), the
// fetched slots (idx), the batch's windows, and for each slot the buffer
// line it opens into or seals from and each fetched slot's open failure.
// It holds one window until the set first moves a longer batch, then
// grows to fit the largest batch moved so far (at most batchSlots), so a
// set that only serves chunked traffic keeps one window's staging. It is
// also the split's parallel.Committer: one seal scratch per worker, the
// batch in flight and how far its in-order commit has got.
type streamWindow struct {
	ct     []byte
	tags   []byte
	idx    []int
	chunks []int
	offs   []int
	wins   []window
	lines  []*bufLine // the buffer line slot i opens into or seals from (nil: none)
	errs   []error    // passOpen: why fetched slot j failed to open, set before its piece is done

	set     *engineSet
	scratch [maxSplitWorkers]*sealScratch // [0] is the set's own scratch
	group   parallel.Group

	// The batch in flight, during its split (its windows and a read's
	// fetched slots are wins and idx): the pass and the caller's buffer
	// (nil: buffer lines); then the commit's progress, which the caller
	// alone touches: the next window to commit, where it starts (slot
	// w0, fetched slot f0), and the failure that ended the commit.
	pass   cryptoPass
	buf    []byte
	next   int
	w0, f0 int
	err    error
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
	w.errs = make([]error, slots)
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

// split runs pass over the batch's n units (for passOpen the first n
// fetched slots in idx, for passSeal its n slots) in pieces claimed by the
// workers, and commits the batch's windows in order on the caller as
// their units finish (Commit). buf is the caller's buffer, nil for the
// slots' buffer lines; the caller clears it once the batch is done. It
// returns the failure that ended the commit, if any, and leaves the
// commit's progress for readBatch to finish a fetch-failed window. A
// set without a sealer only copies, which never pays for a hand-off, so
// it stays on the caller.
func (w *streamWindow) split(pass cryptoPass, n int, buf []byte, wins []window) error {
	p := 1
	if w.set.seal != nil {
		p = min(parallel.Workers(n*w.set.cfg.ChunkSize, splitGrainBytes), maxSplitWorkers)
	}
	w.pass, w.buf, w.wins = pass, buf, wins
	w.next, w.w0, w.f0, w.err = 0, 0, 0, nil
	w.group.Run(p, n, w)
	return w.err
}

// Run implements parallel.Body: worker k runs the pass over units
// [lo, hi), one piece, with its own seal scratch. An opening piece stops
// at its first failure and records it.
func (w *streamWindow) Run(k, lo, hi int) {
	s, sc, cs := w.set, w.scratch[k], w.set.cfg.ChunkSize
	switch w.pass {
	case passOpen:
		for j := lo; j < hi; j++ {
			i := w.idx[j]
			dst := w.ct[i*cs : (i+1)*cs]
			if ln := w.lines[i]; ln != nil {
				dst = ln.data
			}
			if err := s.openSlot(sc, i, w.chunks[i], dst); err != nil {
				w.errs[j] = err
				return
			}
		}
	case passSeal:
		for i := lo; i < hi; i++ {
			c := w.chunks[i]
			epoch := s.counters[c]
			if s.cfg.Freshness {
				epoch++ // the epoch the commit bumps to before the store
			}
			var src []byte
			if w.buf == nil {
				src = w.lines[i].data
			} else {
				src = w.buf[w.offs[i] : w.offs[i]+cs]
			}
			s.sealSlot(sc, i, c, epoch, src)
		}
	}
}

// Commit implements parallel.Committer: it commits, in window order,
// every window of the batch whose units lie in the finished prefix
// [0, done): a read window once all its fetched slots are opened, a
// write window once all its slots are sealed. It stops for good at the
// first window that fails. A read window whose fetch failed has no
// opened units and waits for readBatch.
func (w *streamWindow) Commit(done int) {
	s := w.set
	for w.err == nil && w.next < len(w.wins) {
		wf := &w.wins[w.next]
		switch {
		case w.pass == passOpen && wf.fetchEnd <= done:
			w.err = s.commitRead(wf, w.w0, w.f0, nil)
		case w.pass == passSeal && wf.end <= done:
			w.err = s.commitWrite(wf, w.w0)
		default:
			return
		}
		if w.err == nil {
			w.next, w.w0, w.f0 = w.next+1, wf.end, wf.fetchEnd
		}
	}
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
// its missing slots; then the fetched slots are verified and decrypted
// in place, or for a miss straight into new buffer lines, in one split,
// while the caller commits each window in order as soon as its fetched
// slots are open (commitRead). Lines a miss brings in are marked
// prefetched until a demand access touches them. The window holding the
// lowest-index integrity failure latches the set and is not charged, and
// a fetch error ends the batch at its window. Callers hold s.mu.
func (s *engineSet) readBatch(chunks, offs []int, buf []byte, wins []window) (uint64, error) {
	if s.integrityErr != nil {
		return 0, s.integrityErr
	}
	start := s.acct.BusyCycles
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

	// Stages 2 and 3: the split verifies and decrypts the slots of every
	// window that fetched in full, in place or, for a miss, straight into
	// new buffer lines, while the caller commits the windows in order.
	// A fetch-failed window is committed last, with none of its fetched
	// slots.
	if buf == nil {
		for _, i := range fetch[:opened] {
			win.lines[i] = s.linePool.Get().(*bufLine)
		}
	}
	win.idx = fetch
	err := win.split(passOpen, opened, buf, wins)
	if err == nil && fetchErr != nil {
		err = s.commitRead(&wins[len(wins)-1], win.w0, win.f0, fetchErr)
	}
	if err != nil {
		clear(win.errs[:opened])
		if buf == nil {
			for _, i := range fetch[:opened] {
				if ln := win.lines[i]; ln != nil {
					win.lines[i] = nil
					s.linePool.Put(ln)
				}
			}
		}
	}
	win.buf = nil
	return s.acct.BusyCycles - start, err
}

// commitRead is stage 3 of read window wf, which starts at slot w0 and
// fetched slot f0: it merges the window's opened slots into the caller's
// buffer, or makes a miss's new lines resident, serves its resident
// (clean or dirty, they are authoritative) and virgin slots, and charges
// it. At the lowest fetched slot that failed to open, the merge skips the
// rest of the window's fetched slots, and the window latches the failure
// and is not charged. A window whose fetch failed (fetchErr) had none of
// its fetched slots opened; it returns fetchErr uncharged.
func (s *engineSet) commitRead(wf *window, w0, f0 int, fetchErr error) error {
	win, cs := s.win, s.cfg.ChunkSize
	chunks, offs, buf := win.chunks, win.offs, win.buf
	bad, err := wf.fetchEnd, fetchErr
	if err != nil {
		bad = f0
	} else {
		for f := f0; f < wf.fetchEnd; f++ {
			if win.errs[f] != nil {
				bad, err = f, win.errs[f]
				break
			}
		}
	}
	for i, f := w0, f0; i < wf.end; i++ {
		if f < wf.fetchEnd && win.idx[f] == i {
			if f < bad {
				if buf != nil {
					copy(buf[offs[i]:offs[i]+cs], win.ct[i*cs:(i+1)*cs])
				} else {
					ln := win.lines[i]
					win.lines[i] = nil
					ln.prefetched = true
					s.insertLine(chunks[i], ln)
				}
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
	if err != nil {
		if fetchErr == nil {
			s.integrityErr = err
		}
		return err
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
	return nil
}

// writeBatch moves one batch of write windows: slot i seals chunk
// chunks[i] from data[offs[i]], or, when data is nil, from the chunk's
// resident line (a write-back). The slots are sealed in one split, each
// at the write epoch its window moves to, while the caller commits each
// window in order as soon as its slots are sealed (commitWrite). A store
// error ends the batch at its window. A full-chunk write never fetches
// and supersedes the chunk's resident line; a write-back leaves its line
// resident and clean. Callers hold s.mu.
func (s *engineSet) writeBatch(chunks, offs []int, data []byte, wins []window) (uint64, error) {
	if s.integrityErr != nil {
		return 0, s.integrityErr
	}
	start := s.acct.BusyCycles
	win := s.win
	// The workers seal a write-back from these line pointers: the
	// buffer's map is the commit's alone while they run.
	if data == nil {
		for i, c := range chunks {
			win.lines[i] = s.lines[c]
		}
	}
	err := win.split(passSeal, len(chunks), data, wins)
	if data == nil {
		clear(win.lines[:len(chunks)])
	}
	win.buf = nil
	return s.acct.BusyCycles - start, err
}

// commitWrite is stage 3 of write window wf, which starts at slot w0: it
// bumps the window's counters to the epoch its slots were sealed at,
// stores it, one batched store per contiguous chunk run, and charges it.
// DRAM then holds the authoritative ciphertext, so the window's chunks
// become valid and a write supersedes their resident lines while a
// write-back leaves them clean. A store error returns at once.
func (s *engineSet) commitWrite(wf *window, w0 int) error {
	chunks, data := s.win.chunks[w0:wf.end], s.win.buf
	if s.cfg.Freshness {
		for _, chunk := range chunks {
			s.counters[chunk]++
		}
	}
	var dramBusy, dramBus uint64
	for i := 0; i < len(chunks); {
		j := i
		for j+1 < len(chunks) && chunks[j+1] == chunks[j]+1 {
			j++
		}
		busy, bus, err := s.storeRun(s.win, w0+i, chunks[i], j-i+1)
		if err != nil {
			return err
		}
		dramBusy += busy
		dramBus += bus
		i = j + 1
	}
	for _, chunk := range chunks {
		if ln, ok := s.lines[chunk]; ok {
			if data == nil {
				ln.dirty = false
			} else {
				s.dropLine(ln)
			}
		}
		s.initialized[chunk] = true
	}
	n := len(chunks)
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
	return nil
}
