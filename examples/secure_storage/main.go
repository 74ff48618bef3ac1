// Secure storage: the paper's SDP case study (§6.2.3) — a GDPR-compliant
// storage node whose FPGA TEE encrypts and authenticates every file byte,
// with per-user keys provisioned by a controller node.
//
// The example stores files for two users, demonstrates the access policy,
// shows that the storage device holds only ciphertext, detects an
// operator tampering with stored data, and sweeps the paper's Table 2
// Shield configurations.
//
//	go run ./examples/secure_storage
package main

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"log"

	"shef/internal/crypto/aesx"
	"shef/internal/sdp"
	"shef/internal/shield"
)

func main() {
	// Controller node: establish the session key (in the full system this
	// rides on remote attestation; see examples/quickstart) and provision
	// the per-user key database.
	dek := make([]byte, 32)
	rand.Read(dek)
	cfg := sdp.NodeConfig{
		Slots: 8, SlotBytes: 64 << 10, AuthBlock: 4096,
		Engines: 8, SBox: aesx.SBox16x, MAC: shield.PMAC,
		BufferBytes: 16 << 10,
	}
	node, err := sdp.NewNode(cfg, dek, sdp.LineRateParams())
	if err != nil {
		log.Fatal(err)
	}
	node.ProvisionUserKeys(map[string][]byte{
		"alice": []byte("alice-master-key"),
		"bob":   []byte("bob-master-key"),
	})
	fmt.Println("storage node provisioned for users alice, bob")

	// Store and retrieve files.
	record := bytes.Repeat([]byte("alice's medical record. "), 512)
	if err := node.Put("alice", "health.rec", record); err != nil {
		log.Fatal(err)
	}
	got, err := node.Get("alice", "health.rec")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice round trip: %d bytes OK (%t)\n", len(got), bytes.Equal(got, record))

	// GDPR policy: bob cannot read alice's file.
	if _, err := node.Get("bob", "health.rec"); err != nil {
		fmt.Printf("bob denied: %v\n", err)
	}

	// Encryption at rest: the raw storage device never sees plaintext.
	dump, _ := node.DRAM().RawRead(0, 1<<20)
	fmt.Printf("plaintext visible on storage device: %t\n", bytes.Contains(dump, []byte("medical record")))

	// A malicious operator flips one stored bit; the Shield refuses to
	// serve the file rather than return corrupted data.
	node.Shield().InvalidateClean()
	raw, _ := node.DRAM().RawRead(0, 1)
	raw[0] ^= 1
	node.DRAM().RawWrite(0, raw)
	if _, err := node.Get("alice", "health.rec"); err != nil {
		fmt.Printf("tamper detected: %v\n", err)
	}

	// Tenant zones: the same node in multi-tenant mode places each user's
	// files in their own runtime-created protection zone, so the GDPR
	// right-to-erasure is structural — EraseTenant destroys the zone (its
	// region ID, freshness metadata and valid bits), forgets the user's
	// key and files, and recycles the space for the next tenant.
	// DESIGN.md §11.
	tcfg := cfg
	tcfg.TenantZones = true
	tcfg.TenantSlots = 4
	tnode, err := sdp.NewNode(tcfg, dek, sdp.LineRateParams())
	if err != nil {
		log.Fatal(err)
	}
	tnode.ProvisionUserKeys(map[string][]byte{
		"alice": []byte("alice-master-key"),
		"bob":   []byte("bob-master-key"),
	})
	tnode.Put("alice", "health.rec", record)
	tnode.Put("bob", "notes.txt", []byte("bob's notes"))
	if err := tnode.EraseTenant("alice"); err != nil {
		log.Fatal(err)
	}
	_, aliceErr := tnode.Get("alice", "health.rec")
	bobGot, bobErr := tnode.Get("bob", "notes.txt")
	fmt.Printf("\ntenant zones: alice erased (%v), bob intact (%t)\n",
		aliceErr != nil, bobErr == nil && len(bobGot) > 0)

	// Table 2: the Shield-configuration sweep of §6.2.3.
	fmt.Println("\nTable 2 sweep (1MB file accesses, overhead vs unsecured line rate):")
	rows, err := sdp.Table2()
	if err != nil {
		log.Fatal(err)
	}
	paper := []int{298, 297, 59, 20, 20}
	for i, r := range rows {
		fmt.Printf("  %-26s measured %4.0f%%   paper %3d%%\n", r.Label, r.Overhead*100, paper[i])
	}
}
