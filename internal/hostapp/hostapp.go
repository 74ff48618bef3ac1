// Package hostapp assembles the end-to-end ShEF deployment (paper Figure
// 2): Manufacturer provisioning, secure boot, Shell loading, remote
// attestation against an IP Vendor, accelerator loading through the
// Security Kernel, Shield construction, and Data Owner key provisioning.
//
// The package plays the untrusted host-program role plus all the parties
// around it; the trust boundaries live in the packages it wires together.
// Everything it moves between the Data Owner and the FPGA is ciphertext
// (paper §3 step 11: "the host program forwards the Load Key and the
// encrypted data to the FPGA").
package hostapp

import (
	"crypto/rand"
	"fmt"
	"io"
	"net"

	"shef/internal/accel"
	"shef/internal/attest"
	"shef/internal/bitstream"
	"shef/internal/boot"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/fpga"
	"shef/internal/perf"
	"shef/internal/shell"
	"shef/internal/shield"
)

// Options configure a platform build. Every platform is an fpga.VU9P
// with the model's DRAM and perf.Default cycle costs, attesting in
// modp.TestGroup with a 1024-bit RSA device key: simulation sizes, where
// production deployments use modp.Group14 and 2048 bits.
type Options struct {
	// Serial is the device serial (defaults to a fixed demo serial).
	Serial string
	// Design and Params pick the accelerator from the registry.
	Design string
	Params map[string]string
	// Variant selects the Shield engine configuration.
	Variant accel.Variant
}

// deviceKeyBits sizes the RSA device key of every simulated platform.
const deviceKeyBits = 1024

func (o *Options) fill() error {
	if o.Serial == "" {
		o.Serial = "f1-sim-0001"
	}
	if o.Design == "" {
		return fmt.Errorf("hostapp: no design selected")
	}
	if o.Variant == (accel.Variant{}) {
		o.Variant = accel.V128x16
	}
	return nil
}

// Platform is a fully assembled, attested, provisioned deployment ready to
// run its accelerator.
type Platform struct {
	Options  Options
	Kernel   *boot.SecurityKernel
	Shell    *shell.Shell
	Enc      *bitstream.Encrypted
	Manifest *bitstream.Manifest
	Shield   *shield.Shield
	Workload accel.Workload
	// DEK is the Data Owner's session key (owner-side copy).
	DEK []byte
}

// BuildVendor creates the IP Vendor side for a design: it compiles the
// accelerator + Shield into an encrypted bitstream and stands up the
// attestation state. The returned product name keys the offering.
func BuildVendor(opts Options) (*attest.Vendor, string, error) {
	if err := opts.fill(); err != nil {
		return nil, "", err
	}
	w, err := accel.New(opts.Design, opts.Params)
	if err != nil {
		return nil, "", err
	}
	cfg := w.ShieldConfig(opts.Variant)
	shieldKey, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		return nil, "", err
	}
	bitKey := make([]byte, 32)
	if _, err := rand.Read(bitKey); err != nil {
		return nil, "", err
	}
	man := &bitstream.Manifest{
		Design:        opts.Design,
		Version:       "1.0.0",
		Params:        opts.Params,
		Shield:        cfg,
		ShieldPrivKey: shieldKey.X.Bytes(),
		Group:         modp.TestGroup.Name,
		// Accelerator logic on top of the Shield area.
		Resources: shield.Area(cfg).Add(fpga.Resources{LUT: 20_000, REG: 15_000, BRAM: 8}),
	}
	product := opts.Design
	enc, err := bitstream.Compile(product+"-afi", man, bitKey)
	if err != nil {
		return nil, "", err
	}
	vendor := &attest.Vendor{
		CA:              attest.NewCA(),
		KernelAllowlist: [][32]byte{boot.ReferenceKernel.Hash()},
		Bitstreams: map[string]*attest.Product{
			product: {Encrypted: enc, BitstreamKey: bitKey, ShieldPub: &shieldKey.PublicKey},
		},
	}
	return vendor, product, nil
}

// DialFunc opens a fresh Data Owner connection to the vendor.
type DialFunc func() (io.ReadWriteCloser, error)

// LocalDial serves a vendor in-process over net.Pipe, one request per
// connection — the same message flow shefd serves over TCP.
func LocalDial(vendor *attest.Vendor) DialFunc {
	return func() (io.ReadWriteCloser, error) {
		oc, vc := net.Pipe()
		go func() {
			vendor.HandleOwner(vc)
			vc.Close()
		}()
		return oc, nil
	}
}

// Build assembles the complete workflow in-process: every protocol message
// still flows through real (in-memory) connections.
func Build(opts Options) (*Platform, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	vendor, product, err := BuildVendor(opts)
	if err != nil {
		return nil, err
	}
	return BuildAgainstVendor(opts, product, LocalDial(vendor), vendor)
}

// BuildAgainstVendor assembles the device/host side against a vendor
// reachable through dial (e.g. a remote shefd over TCP). registerWith, if
// non-nil, lets the build register the device key directly in the vendor's
// CA; otherwise the registration request travels over the wire.
func BuildAgainstVendor(opts Options, product string, dial DialFunc, registerWith *attest.Vendor) (*Platform, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	// Manufacturer: provision the device; publish its key via the CA.
	dev := fpga.New(fpga.VU9P, opts.Serial, perf.Default(), 0)
	m := &boot.Manufacturer{Group: modp.TestGroup, KeyBits: deviceKeyBits}
	pd, err := m.Provision(dev)
	if err != nil {
		return nil, err
	}
	if registerWith != nil {
		registerWith.CA.Register(dev.Serial, pd.DevicePublic)
	} else {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		err = attest.RegisterDevice(conn, dev.Serial, pd.DevicePublic)
		conn.Close()
		if err != nil {
			return nil, err
		}
	}

	// Secure boot and Shell load (paper §3 steps 6-9).
	kernel, err := boot.Boot(pd, boot.ReferenceKernel, modp.TestGroup)
	if err != nil {
		return nil, err
	}
	sh, err := shell.New("aws-shell-v1.4", dev)
	if err != nil {
		return nil, err
	}

	// Data Owner: fetch the (public) encrypted bitstream.
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	enc, err := attest.FetchBitstream(conn, product)
	conn.Close()
	if err != nil {
		return nil, err
	}

	// Remote attestation, proxied by this (untrusted) host program.
	conn, err = dial()
	if err != nil {
		return nil, err
	}
	resp, shieldPub, bitKey, err := attest.ProvisionViaHost(conn, product, modp.TestGroup, kernel, enc)
	conn.Close()
	if err != nil {
		return nil, err
	}
	wantHash := enc.Hash()
	if string(resp.BitstreamHash) != string(wantHash[:]) {
		return nil, fmt.Errorf("hostapp: vendor attested a different bitstream than we fetched")
	}

	// The Security Kernel decrypts and loads the accelerator with the key
	// it received through the attested session (paper §3 step 9).
	man, err := kernel.LoadAccelerator(enc, bitKey)
	if err != nil {
		return nil, err
	}

	// Instantiate the programmed logic: accelerator + Shield with the
	// embedded Shield Encryption Key.
	w, err := accel.New(man.Design, man.Params)
	if err != nil {
		return nil, err
	}
	shieldPriv, err := man.ShieldKey()
	if err != nil {
		return nil, err
	}
	if shieldPriv.Y.Cmp(shieldPub.Y) != 0 {
		return nil, fmt.Errorf("hostapp: vendor's shield key does not match the bitstream")
	}
	sd, err := shield.New(man.Shield, shieldPriv, sh.MemPort(), dev.OCM, perf.Default())
	if err != nil {
		return nil, err
	}

	// Data Owner: generate the DEK and provision it via a Load Key
	// (Figure 3 steps 7-8, §3 steps 10-11).
	dek := make([]byte, 32)
	if _, err := rand.Read(dek); err != nil {
		return nil, err
	}
	lk, err := keywrap.Wrap(shieldPub, dek, nil)
	if err != nil {
		return nil, err
	}
	if err := sd.ProvisionLoadKey(lk); err != nil {
		return nil, err
	}

	return &Platform{
		Options: opts, Kernel: kernel, Shell: sh, Enc: enc, Manifest: man,
		Shield: sd, Workload: w, DEK: dek,
	}, nil
}

// Run executes the platform's workload through the provisioned Shield,
// including the sealed input/output host paths.
func (p *Platform) Run(seed int64) (accel.RunResult, error) {
	return accel.RunOnShield(p.Workload, p.Shield, p.Shell.Device().DRAM, p.DEK, perf.Default(), seed)
}

// MonitorOnce performs one Security Kernel port scan (paper §3 step 9).
func (p *Platform) MonitorOnce() []fpga.TamperEvent {
	return p.Kernel.MonitorPorts()
}
