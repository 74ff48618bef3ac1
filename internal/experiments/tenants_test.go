package experiments

import "testing"

// TestTenantSweepFlat: the lookup cache keeps per-access resolution flat
// as the zone count grows — the overhead stays under the 5% ceiling at
// every swept point, and the simulated lookup charge does not scale with
// the table.
func TestTenantSweepFlat(t *testing.T) {
	rows, err := TenantSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("sweep returned %d points", len(rows))
	}
	for _, r := range rows {
		if r.OverheadPct >= 5 {
			t.Fatalf("%d zones: lookup overhead %.2f%% breaches the 5%% ceiling", r.Zones, r.OverheadPct)
		}
		if r.HitPct < 99 {
			t.Fatalf("%d zones: hit rate %.2f%%, want ≥99%%", r.Zones, r.HitPct)
		}
	}
	// O(1): the most crowded table charges the same simulated lookup
	// cycles as the single-zone one.
	if first, last := rows[0], rows[len(rows)-1]; last.LookupCycles != first.LookupCycles {
		t.Fatalf("lookup cycles scale with zones: %d @ %d zones vs %d @ %d zones",
			first.LookupCycles, first.Zones, last.LookupCycles, last.Zones)
	}
}
