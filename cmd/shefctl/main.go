// Command shefctl drives the complete ShEF workflow from the Data Owner's
// seat: manufacture and boot a simulated FPGA, fetch and attest an
// accelerator bitstream from an IP Vendor (in-process or a remote shefd),
// provision the Shield, run the workload through the full sealed data
// path, and report simulated performance against the unshielded baseline.
//
// Usage:
//
//	shefctl -design dnnweaver                      # all-in-one demo
//	shefctl -design vecadd -vendor 127.0.0.1:9800  # against a shefd
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"

	"shef/internal/accel"
	"shef/internal/boot"
	"shef/internal/hostapp"
	"shef/internal/perf"
)

func main() {
	design := flag.String("design", "vecadd", "accelerator design")
	params := flag.String("params", "", "design parameters, k=v[,k=v...]")
	variant := flag.String("variant", "128/16x", "shield engine variant")
	vendorAddr := flag.String("vendor", "", "remote shefd address (empty = in-process vendor)")
	seed := flag.Int64("seed", 1, "input generation seed")
	serial := flag.String("serial", "", "device serial (empty = unique per invocation, so concurrent owners against one shefd don't collide in the CA)")
	flag.Parse()

	v, err := accel.ParseVariant(*variant)
	if err != nil {
		log.Fatal(err)
	}
	opts := hostapp.Options{
		Design:  *design,
		Params:  accel.ParseParams(*params),
		Variant: v,
		Serial:  *serial,
	}
	if opts.Serial == "" {
		// Each invocation manufactures a fresh simulated device with a fresh
		// key. Two devices sharing a serial end badly: the vendor's CA keeps
		// one key per serial, so whichever registered last wins and the
		// other's attestation fails. PID alone can collide across hosts or
		// recycle, so add random bytes.
		var suffix [4]byte
		if _, err := rand.Read(suffix[:]); err != nil {
			log.Fatal(err)
		}
		opts.Serial = fmt.Sprintf("f1-sim-%05d-%x", os.Getpid(), suffix)
	}

	fmt.Println("== ShEF workflow ==")
	fmt.Printf("design %q, shield variant %s\n\n", *design, v)

	fmt.Println("[1] secure boot (modelled Ultra96 timeline, paper §6.1):")
	for _, st := range boot.Timeline {
		fmt.Printf("    %-28s %5.2f s\n", st.Name, st.Seconds)
	}
	fmt.Printf("    %-28s %5.2f s  (vs ~%.0f s VM boot, %.1f s F1 bitstream load)\n\n",
		"total", boot.TotalBootSeconds(), boot.VMBootSeconds, boot.F1BitstreamLoadSeconds)

	var p *hostapp.Platform
	if *vendorAddr == "" {
		p, err = hostapp.Build(opts)
	} else {
		dial := hostapp.DialFunc(func() (io.ReadWriteCloser, error) {
			return net.Dial("tcp", *vendorAddr)
		})
		p, err = hostapp.BuildAgainstVendor(opts, *design, dial, nil)
	}
	if err != nil {
		log.Fatalf("shefctl: workflow failed: %v", err)
	}
	hash := p.Enc.Hash()
	fmt.Println("[2] remote attestation: OK")
	fmt.Printf("    device serial     %s\n", p.Kernel.Device().Serial)
	kh := p.Kernel.KernelHash()
	fmt.Printf("    security kernel   %x\n", kh[:8])
	fmt.Printf("    bitstream hash    %x\n", hash[:8])
	fmt.Printf("    shield regions    %d, registers %d\n\n",
		len(p.Manifest.Shield.Regions), p.Manifest.Shield.Registers)

	fmt.Println("[3] shielded execution (inputs sealed by the data owner, results verified):")
	res, err := p.Run(*seed)
	if err != nil {
		log.Fatalf("shefctl: run failed: %v", err)
	}
	pp := perf.Default()
	fmt.Printf("    simulated time    %d cycles (%.3f ms at %.0f MHz)\n",
		res.Cycles, 1000*res.Seconds(pp), pp.ClockHz/1e6)

	w2, err := accel.New(*design, opts.Params)
	if err == nil {
		if bare, err := accel.RunBare(w2, pp, *seed); err == nil {
			fmt.Printf("    unshielded        %d cycles\n", bare.Cycles)
			fmt.Printf("    overhead          %.2fx\n", accel.Overhead(res, bare))
		}
	}

	if ev := p.MonitorOnce(); len(ev) == 0 {
		fmt.Println("\n[4] runtime port monitoring: clean")
	} else {
		fmt.Printf("\n[4] runtime port monitoring: TAMPER %v\n", ev)
	}
}
