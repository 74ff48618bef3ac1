package shield

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"shef/internal/axi"
	"shef/internal/perf"
)

// BarePort is the unsecured baseline of Figures 5-6: the engine sets of a
// Shield configuration built without a sealer, in front of the Shell's
// plaintext port. The buffer, LRU, write combining, batched flush,
// prefetcher and stream windows are the Shield's own, with no tags and no
// crypto stages, so shielded over bare time isolates the cost of security
// rather than crediting the Shield for its caches. The baseline has no
// gather: a gather falls back to per-run transfers (axi.ReadGatherAuto).
type BarePort struct {
	sets []*engineSet // sorted by base
}

// NewBarePort builds the baseline for cfg's regions over port, whose
// region bytes the host has already written as plaintext.
func NewBarePort(cfg Config, port axi.MemoryPort, params perf.Params) (*BarePort, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// ChunkIssueCycles prices the Shield's per-chunk IV/counter fetch and
	// tag handling; the unsecured port has none of that work, so the
	// baseline has never paid it.
	params.ChunkIssueCycles = 0
	// Every region is live for the whole run, so each set sees the static
	// share: the number of regions on its channel.
	shares := make(map[int]*atomic.Int64)
	for _, rc := range cfg.Regions {
		if shares[rc.Channel] == nil {
			shares[rc.Channel] = new(atomic.Int64)
		}
		shares[rc.Channel].Add(1)
	}
	p := &BarePort{}
	for _, rc := range cfg.Regions {
		set := newSet(rc, nil, 0, port, params)
		set.share = shares[rc.Channel]
		// The host wrote the plaintext inputs: every chunk is valid.
		for c := range set.initialized {
			set.initialized[c] = true
		}
		p.sets = append(p.sets, set)
	}
	slices.SortFunc(p.sets, func(a, b *engineSet) int { return cmp.Compare(a.cfg.Base, b.cfg.Base) })
	return p, nil
}

// setFor returns the set whose region holds all of [addr, addr+n).
func (p *BarePort) setFor(addr uint64, n int) (*engineSet, error) {
	i := sort.Search(len(p.sets), func(i int) bool {
		return p.sets[i].cfg.Base+p.sets[i].cfg.Size > addr
	})
	if i < len(p.sets) {
		if set := p.sets[i]; addr >= set.cfg.Base && addr+uint64(n) <= set.cfg.Base+set.cfg.Size {
			return set, nil
		}
	}
	return nil, fmt.Errorf("shield: bare access [%#x,+%d) not inside one configured region", addr, n)
}

// ReadBurst implements axi.MemoryPort.
func (p *BarePort) ReadBurst(addr uint64, buf []byte) (uint64, error) {
	set, err := p.setFor(addr, len(buf))
	if err != nil {
		return 0, err
	}
	return set.read(addr, buf)
}

// WriteBurst implements axi.MemoryPort.
func (p *BarePort) WriteBurst(addr uint64, data []byte) (uint64, error) {
	set, err := p.setFor(addr, len(data))
	if err != nil {
		return 0, err
	}
	return set.write(addr, data)
}

// ReadStream implements axi.Streamer through the sets' stream windows.
func (p *BarePort) ReadStream(addr uint64, buf []byte) (uint64, error) {
	set, err := p.setFor(addr, len(buf))
	if err != nil {
		return 0, err
	}
	return set.readStream(addr, buf)
}

// WriteStream implements axi.Streamer through the sets' stream windows.
func (p *BarePort) WriteStream(addr uint64, data []byte) (uint64, error) {
	set, err := p.setFor(addr, len(data))
	if err != nil {
		return 0, err
	}
	return set.writeStream(addr, data)
}

// Flush writes back every set's dirty lines, as Shield.Flush does.
func (p *BarePort) Flush() error {
	errs := make([]error, len(p.sets))
	for i, set := range p.sets {
		errs[i] = set.flush()
	}
	return errors.Join(errs...)
}

// MemCycles is the baseline memory time, composed as the Shield's Report
// composes it (Report.MemoryCycles).
func (p *BarePort) MemCycles() uint64 {
	rep := Report{Regions: make([]RegionStats, len(p.sets))}
	for i, set := range p.sets {
		rep.Regions[i] = set.stats()
	}
	return rep.MemoryCycles()
}
