// Package fpga models the physical FPGA device that ShEF runs on: key
// storage (e-fuse/BBRAM with optional PUF wrapping), the Security Processor
// Block with its BootROM, tamper and port monitors, partial-reconfiguration
// regions, and per-device resource budgets.
//
// ShEF deliberately relies only on mechanisms that shipping Xilinx
// UltraScale+ and Intel Stratix 10 parts already provide (paper §2.2, §3):
// an AES key in secure non-volatile storage, a hardened security processor
// executing from BootROM and programmable firmware, and active tamper
// monitoring. This package reproduces exactly those interfaces and no more,
// so the boot and attestation code above it cannot cheat.
package fpga

// Resources is a device resource budget (or usage) in the units Vivado
// reports: BRAM36 tiles, LUTs, registers, and URAM tiles.
type Resources struct {
	BRAM uint64
	LUT  uint64
	REG  uint64
	URAM uint64
}

// Add returns the component-wise sum.
func (r Resources) Add(o Resources) Resources {
	return Resources{
		BRAM: r.BRAM + o.BRAM,
		LUT:  r.LUT + o.LUT,
		REG:  r.REG + o.REG,
		URAM: r.URAM + o.URAM,
	}
}

// Scale returns the resources multiplied by n (n instances of a component).
func (r Resources) Scale(n int) Resources {
	m := uint64(n)
	return Resources{BRAM: r.BRAM * m, LUT: r.LUT * m, REG: r.REG * m, URAM: r.URAM * m}
}

// FitsIn reports whether r fits inside budget.
func (r Resources) FitsIn(budget Resources) bool {
	return r.BRAM <= budget.BRAM && r.LUT <= budget.LUT &&
		r.REG <= budget.REG && r.URAM <= budget.URAM
}

// Model describes an FPGA part.
type Model struct {
	Name string
	// Total reconfigurable-fabric resources available to user designs.
	Budget Resources
	// OCMBits is the total on-chip RAM pool (BRAM + URAM) in bits.
	OCMBits uint64
	// DRAMSize is the attached device memory in bytes.
	DRAMSize uint64
}

// VU9P is the AWS F1 device: a Xilinx Virtex UltraScale+ VU9P with 64 GB of
// DDR4 (paper §2.3). It has no hardened CPU core, so the Security Kernel
// runs on a soft processor. The budget numbers are chosen so that the paper's
// Table 1 utilisation percentages reproduce: e.g. the Controller's 2348
// LUTs are reported as 0.26% of the fabric.
var VU9P = Model{
	Name: "xcvu9p-f1",
	Budget: Resources{
		BRAM: 1680,      // 2 BRAM = 0.12% (Table 1, Engine Set row)
		LUT:  900_000,   // 2348 LUT = 0.26% (Table 1, Controller row)
		REG:  1_790_000, // 2508 REG = 0.14% (Table 1, Engine Set row)
		URAM: 960,
	},
	OCMBits:  382 * 1000 * 1000, // "max available 382Mb" (paper §6.2.1)
	DRAMSize: 64 << 30,
}

// Ultra96 is the local development board used for the end-to-end boot
// prototype (paper §6.1): a Zynq UltraScale+ ZU3EG whose hardened
// Cortex-R5 pair hosts the Security Kernel.
var Ultra96 = Model{
	Name: "ultra96-zu3eg",
	Budget: Resources{
		BRAM: 216,
		LUT:  70_560,
		REG:  141_120,
		URAM: 0,
	},
	OCMBits:  7.6 * 1000 * 1000,
	DRAMSize: 2 << 30,
}
