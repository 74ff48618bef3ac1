package experiments

import (
	"math/rand"

	"shef/internal/crypto/aesx"
	"shef/internal/oram"
	"shef/internal/shield"
)

// ---------------------------------------------------------------------
// ORAM path cost: the §5.2.2 oblivious-access extension measured on the
// serving-tier Shield configuration. Serial is the per-bucket chunked
// baseline; batched gathers the root-to-leaf path into one pipelined
// scatter-gather stream. Both are deterministic simulated-cycle numbers,
// so benchtab gates them (sim-oram-*).

// ORAMPoint is one controller mode's measured cost.
type ORAMPoint struct {
	Mode            string
	Blocks          int // tree size the point was measured at
	BlockSize       int
	CyclesPerAccess float64
	Amplification   float64
}

// oramExperimentShield builds a provisioned one-region Shield sized for
// the configuration: 16 AES engines, PMAC, 512 B chunks — the streaming
// headline engine set.
func oramExperimentShield(cfg oram.Config) (*shield.Shield, error) {
	foot := cfg.FootprintBytes()
	regionSize := (foot + 511) / 512 * 512
	sh, _, err := buildShield(shield.RegionConfig{
		Name: "oram", Base: 0, Size: regionSize, ChunkSize: 512,
		AESEngines: 16, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		MAC: shield.PMAC, BufferBytes: 8 << 10, Freshness: true,
	})
	return sh, err
}

// oramDrive runs a deterministic read/write mix and returns the point.
func oramDrive(cfg oram.Config, mode string, ops int) (ORAMPoint, error) {
	sh, err := oramExperimentShield(cfg)
	if err != nil {
		return ORAMPoint{}, err
	}
	o, err := oram.NewWithConfig(sh, cfg)
	if err != nil {
		return ORAMPoint{}, err
	}
	rng := rand.New(rand.NewSource(77))
	data := make([]byte, cfg.BlockSize)
	for i := 0; i < ops; i++ {
		b := rng.Intn(cfg.Blocks)
		if i%2 == 0 {
			rng.Read(data)
			if err := o.Write(b, data); err != nil {
				return ORAMPoint{}, err
			}
		} else if _, err := o.Read(b); err != nil {
			return ORAMPoint{}, err
		}
	}
	return ORAMPoint{
		Mode:            mode,
		Blocks:          cfg.Blocks,
		BlockSize:       cfg.BlockSize,
		CyclesPerAccess: float64(o.Cycles()) / float64(ops),
		Amplification:   o.Amplification(),
	}, nil
}

// ORAMPathSweep measures the serial per-bucket path against the batched
// scatter-gather path at the acceptance geometry: 4096 blocks × 512 B.
func ORAMPathSweep() (serial, batched ORAMPoint, err error) {
	const blocks, bs, ops = 4096, 512, 40
	serialCfg := oram.Config{Blocks: blocks, BlockSize: bs, Seed: 5, Serial: true}
	batchedCfg := oram.Config{Blocks: blocks, BlockSize: bs, Seed: 5, ChunkAlign: 512}
	if serial, err = oramDrive(serialCfg, "serial per-bucket", ops); err != nil {
		return serial, batched, err
	}
	if batched, err = oramDrive(batchedCfg, "batched gather", ops); err != nil {
		return serial, batched, err
	}
	return serial, batched, nil
}
