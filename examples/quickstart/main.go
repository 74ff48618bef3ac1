// Quickstart: run one accelerator inside a ShEF enclave, end to end.
//
// This example assembles the whole paper-Figure-2 workflow with one call —
// Manufacturer key provisioning, secure boot, Shell load, remote
// attestation against an (in-process) IP Vendor, accelerator loading
// through the Security Kernel, and Shield key provisioning — then runs a
// vector-add workload through the sealed data path and reports the
// simulated cost of security.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"shef/internal/accel"
	"shef/internal/hostapp"
)

func main() {
	// The Data Owner picks a design from the vendor's catalogue and the
	// Shield variant it was compiled with.
	platform, err := hostapp.Build(hostapp.Options{
		Design:  "vecadd",
		Params:  map[string]string{"bytes": "1048576"}, // 1 MB per vector
		Variant: accel.V128x16,                         // AES-128, 16x S-box
	})
	if err != nil {
		log.Fatalf("workflow failed: %v", err)
	}
	fmt.Println("attested and provisioned:")
	hash := platform.Enc.Hash()
	fmt.Printf("  device    %s\n", platform.Kernel.Device().Serial)
	fmt.Printf("  bitstream %x\n", hash[:8])

	// Run the workload. Inputs are sealed by the Data Owner, DMAed by the
	// untrusted host, decrypted on access by the Shield, and results are
	// exported and verified on the owner side.
	res, err := platform.Run(1)
	if err != nil {
		log.Fatalf("run failed: %v", err)
	}
	pp := *platform.Options.Perf
	fmt.Printf("shielded run: %d cycles (%.2f ms at %.0f MHz)\n",
		res.Cycles, 1000*res.Seconds(pp), pp.ClockHz/1e6)
	var streamed, windows, batchedWB, prefetched, prefetchHits uint64
	for _, r := range res.Report.Regions {
		streamed += r.Streamed
		windows += r.StreamWindows
		batchedWB += r.BatchedWritebacks
		prefetched += r.Prefetched
		prefetchHits += r.PrefetchHits
	}
	fmt.Printf("streamed data path: %d chunks in %d pipeline windows\n", streamed, windows)
	fmt.Printf("write-back path:    %d chunks stored in batched windows\n", batchedWB)
	fmt.Printf("prefetcher:         %d chunks fetched ahead, %d served demand hits\n", prefetched, prefetchHits)

	// Compare with the unshielded baseline (same accelerator, no Shield).
	w, _ := accel.New("vecadd", map[string]string{"bytes": "1048576"})
	bare, err := accel.RunBare(w, pp, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bare run:     %d cycles\n", bare.Cycles)
	fmt.Printf("cost of security: %.2fx\n", accel.Overhead(res, bare))

	// The regions above came from the design's static manifest, but the
	// Shield's region model is dynamic underneath: tenants can carve
	// quota'd protection zones at runtime with
	// platform.Shield.CreateRegion / DestroyRegion (destroy is erasure),
	// and `shefd -max-tenants/-tenant-quota/-tenant-fair` serves the same
	// lifecycle over the wire. See DESIGN.md §11 and
	// examples/secure_storage for the tenant-zone storage node.
}
