package analysis

import (
	"slices"
	"strings"
	"testing"
)

func TestSuiteShape(t *testing.T) {
	names := Names()
	want := []string{"errwrapcheck", "guardedsite", "lockorder"}
	if !slices.Equal(names, want) {
		t.Fatalf("suite is %v, want %v", names, want)
	}
	if !strings.HasPrefix(Version, "shefvet-") {
		t.Fatalf("Version %q does not identify the tool", Version)
	}
}
