package fpga

import (
	"errors"
	"fmt"
	"sync"

	"shef/internal/crypto/hmacx"
	"shef/internal/mem"
	"shef/internal/perf"
)

// PortName identifies an external access port that the Security Kernel
// must monitor during runtime (paper §3 step 9: "detect backdoor activity
// (e.g., JTAG and programming ports)").
type PortName string

// The externally reachable ports of an UltraScale+ device.
const (
	PortJTAG PortName = "jtag"
	PortICAP PortName = "icap" // internal configuration access port
	PortDAP  PortName = "dap"  // debug access port
)

// AllPorts lists every monitored port.
var AllPorts = []PortName{PortJTAG, PortICAP, PortDAP}

// TamperEvent records a detected intrusion.
type TamperEvent struct {
	Port   PortName
	Detail string
}

// Device is one physical FPGA: key storage, PUF, ports, fabric regions,
// and attached memory. All secret material lives behind the SPB type; the
// Device only stores the e-fuse payload, mirroring real silicon where the
// fabric cannot read the key fuses directly.
type Device struct {
	Model  Model
	Serial string

	mu sync.Mutex

	// efuse holds either the raw AES device key or the PUF-wrapped key.
	efuse      []byte
	efuseIsPUF bool
	puf        *PUF
	fused      bool

	ports     map[PortName]bool // true = open
	tamperLog []TamperEvent
	zeroized  bool

	// Fabric state: the static (Shell) region and the user partial region.
	staticLoaded  bool
	staticName    string
	partialLoaded bool
	partialName   string
	partialUse    Resources

	DRAM *mem.DRAM
	OCM  *mem.OCM
}

// New manufactures a blank device of the given model with the given
// performance parameters for its DRAM. dramSize overrides the model's
// memory size when nonzero (tests use small memories).
func New(model Model, serial string, params perf.Params, dramSize uint64) *Device {
	if dramSize == 0 {
		dramSize = model.DRAMSize
	}
	d := &Device{
		Model:  model,
		Serial: serial,
		puf:    NewPUF(serial),
		ports:  make(map[PortName]bool),
		DRAM:   mem.NewDRAM(dramSize, params),
		OCM:    mem.NewOCM(model.OCMBits),
	}
	for _, p := range AllPorts {
		d.ports[p] = false
	}
	return d
}

// PUF exposes the device's physically unclonable function.
func (d *Device) PUF() *PUF { return d.puf }

// BurnEFuse provisions the AES device key (optionally PUF-wrapped) into
// one-time-programmable storage. It can be called exactly once, modelling
// real e-fuses (paper §3 step 1).
func (d *Device) BurnEFuse(payload []byte, pufWrapped bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fused {
		return errors.New("fpga: e-fuses already burned")
	}
	d.efuse = append([]byte(nil), payload...)
	d.efuseIsPUF = pufWrapped
	d.fused = true
	return nil
}

// readEFuse is only reachable from the SPB (same package); user logic has
// no access path to the fuses.
func (d *Device) readEFuse() ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.zeroized {
		return nil, false, errors.New("fpga: device zeroized after tamper response")
	}
	if !d.fused {
		return nil, false, errors.New("fpga: e-fuses not provisioned")
	}
	return append([]byte(nil), d.efuse...), d.efuseIsPUF, nil
}

// OpenPort simulates an adversary (or operator) enabling an external port.
// Only tests call it: they check that the Security Kernel's port
// monitoring (paper §3 step 9) reports and closes every opened port.
func (d *Device) OpenPort(p PortName) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ports[p] = true
}

// ScanPorts is the Security Kernel's monitoring primitive: it reports any
// open ports as tamper events, records them, and closes the ports.
func (d *Device) ScanPorts() []TamperEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	var events []TamperEvent
	for _, p := range AllPorts {
		if d.ports[p] {
			ev := TamperEvent{Port: p, Detail: "port found open during runtime scan"}
			events = append(events, ev)
			d.tamperLog = append(d.tamperLog, ev)
			d.ports[p] = false
		}
	}
	return events
}

// TamperLog returns all recorded tamper events. Only tests read it, to
// check that runtime monitoring records each event (paper §3 step 9).
func (d *Device) TamperLog() []TamperEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]TamperEvent(nil), d.tamperLog...)
}

// Zeroize is the tamper response: it renders the e-fuse key unreadable and
// clears the fabric, as mission-critical deployments configure (paper §2.2).
func (d *Device) Zeroize() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.zeroized = true
	for i := range d.efuse {
		d.efuse[i] = 0
	}
	d.staticLoaded = false
	d.partialLoaded = false
}

// Zeroized reports whether the tamper response has fired. Only tests read
// it, next to the checks that zeroization leaves the device key
// unreadable (paper §2.2).
func (d *Device) Zeroized() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.zeroized
}

// LoadStatic programs the static region with the CSP's Shell logic. Only
// one static image can be resident.
func (d *Device) LoadStatic(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.zeroized {
		return errors.New("fpga: device zeroized")
	}
	d.staticLoaded = true
	d.staticName = name
	return nil
}

// LoadPartial programs the user partial-reconfiguration region. The design
// must fit the device budget; programming without a resident Shell fails
// the way the F1 flow would.
func (d *Device) LoadPartial(name string, use Resources) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.zeroized {
		return errors.New("fpga: device zeroized")
	}
	if !d.staticLoaded {
		return errors.New("fpga: no Shell loaded in static region")
	}
	if !use.FitsIn(d.Model.Budget) {
		return fmt.Errorf("fpga: design %q (%+v) exceeds %s budget %+v",
			name, use, d.Model.Name, d.Model.Budget)
	}
	d.partialLoaded = true
	d.partialName = name
	d.partialUse = use
	return nil
}

// ClearPartial removes the user design (reconfiguration reset).
func (d *Device) ClearPartial() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.partialLoaded = false
	d.partialName = ""
	d.partialUse = Resources{}
}

// FabricState reports what is currently programmed.
func (d *Device) FabricState() (staticName, partialName string, partialUse Resources) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.staticName, d.partialName, d.partialUse
}

// PartialLoaded reports whether a user design is resident. Only tests read
// it, to check that only an authenticated bitstream programs the fabric
// and that the tamper response clears it (paper §3).
func (d *Device) PartialLoaded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.partialLoaded
}

// PUF models a physically unclonable function: a per-device secret
// challenge/response map. Real PUFs derive responses from silicon process
// variation; the model derives them from a hidden per-serial secret that
// no API exposes directly (paper §2.2: the AES key "can be further
// encrypted via a physically-unclonable function").
type PUF struct {
	secret []byte
}

// NewPUF builds the device's PUF from its serial. The serial stands in for
// silicon variation; two devices never share responses.
func NewPUF(serial string) *PUF {
	sum := hmacx.Sum([]byte("shef/puf-silicon"), []byte(serial))
	return &PUF{secret: sum[:]}
}

// Response evaluates the PUF on a challenge, yielding 32 key bytes.
func (p *PUF) Response(challenge []byte) []byte {
	sum := hmacx.Sum(p.secret, challenge)
	return sum[:]
}
