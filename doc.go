// Package shef is a from-scratch Go reproduction of "ShEF: Shielded
// Enclaves for Cloud FPGAs" (Zhao, Gao, Kozyrakis — ASPLOS 2022).
//
// The repository implements the complete ShEF stack against a simulated
// FPGA substrate: the secure boot chain and remote attestation protocol,
// the configurable Shield (engine sets, chunked authenticated encryption,
// on-chip buffering, freshness counters, secured register file), the
// untrusted Shell, a bitstream toolchain, six evaluation accelerators,
// and the SDP secure-storage case study. Every table and figure of the
// paper's evaluation is regenerated by the benchmarks in bench_test.go
// and by cmd/benchtab.
//
// Start with README.md for the package map and DESIGN.md for the
// substitution rationale (hardware → simulation); `go run ./cmd/benchtab
// -all` prints the measured results next to the paper's. The library entry points are
// internal/hostapp (end-to-end workflow) and internal/shield (the Shield
// itself); examples/quickstart shows both in ~40 lines.
package shef
