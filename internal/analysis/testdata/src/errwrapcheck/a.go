// The fixture package is named sdp: errwrapcheck keys its applicability
// off the package name so the testdata model is under the same
// discipline as the real boundary package.
package sdp

import (
	"errors"
	"fmt"
)

// Package-level sentinels are the allowed definition form.
var (
	ErrShardDown  = errors.New("sdp: shard down")
	ErrQuorumLost = errors.New("sdp: quorum lost")
)

// reject is the package's typed-error constructor: raw constructors
// passed directly into it are where wrapping happens.
func reject(op string, err error) error {
	return fmt.Errorf("sdp: %s: %w", op, err)
}

// passthrough forwards a caller-supplied format: non-literal formats
// are not checkable here, the helper's callers are checked instead.
func passthrough(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

func openShard(name string) error {
	return errors.New("no such shard: " + name) // want `openShard: errors\.New crosses the sdp boundary unclassified`
}

func sealFile(name string) error {
	return fmt.Errorf("seal %q failed", name) // want `sealFile: fmt\.Errorf without %w crosses the sdp boundary unclassified`
}

func wrapOK(name string) error {
	return fmt.Errorf("open %q: %w", name, ErrShardDown)
}

func ctorOK(name string) error {
	return reject("open", errors.New("no quorum for "+name))
}
