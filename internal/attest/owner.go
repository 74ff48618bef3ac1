package attest

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"syscall"
	"time"

	"shef/internal/bitstream"
	"shef/internal/boot"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/rsax"
	"shef/internal/crypto/schnorr"
)

// ErrBusy is returned by the owner-side helpers when the vendor shed the
// connection under load. The wrapped error carries the server's
// retry-after hint; callers should back off at least that long.
var ErrBusy = errors.New("attest: vendor busy")

func bigFromBytes(b []byte) *big.Int { return new(big.Int).SetBytes(b) }

// Request kinds on the Data Owner channel.
const (
	// KindProvision asks the vendor to attest the FPGA instance and hand
	// back the public Shield Encryption Key (Figure 3 steps 1 and 7).
	KindProvision = "provision"
	// KindFetch downloads the (public) encrypted bitstream, as a
	// marketplace would serve it.
	KindFetch = "fetch"
	// KindRegister records a device public key with the vendor's CA view.
	// In production the Manufacturer does this through a certificate
	// authority; the demo CLI exercises the same data flow directly.
	KindRegister = "register"
)

// OwnerRequest is Data Owner → IP Vendor over the TLS channel of Figure 3
// step 1.
type OwnerRequest struct {
	Kind    string `json:"kind"`
	Product string `json:"product"`
	// Registration payload (KindRegister).
	DeviceSerial string `json:"device_serial,omitempty"`
	DeviceKeyN   []byte `json:"device_key_n,omitempty"`
	DeviceKeyE   int    `json:"device_key_e,omitempty"`
}

// OwnerResponse returns the request outcome.
type OwnerResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Busy marks an admission-control shed: the server refused the
	// session before reading the request. RetryAfterMS is the server's
	// backoff hint.
	Busy          bool                 `json:"busy,omitempty"`
	RetryAfterMS  int64                `json:"retry_after_ms,omitempty"`
	ShieldPub     []byte               `json:"shield_pub,omitempty"`
	BitstreamHash []byte               `json:"bitstream_hash,omitempty"`
	DeviceSerial  string               `json:"device_serial,omitempty"`
	KernelHash    []byte               `json:"kernel_hash,omitempty"`
	Bitstream     *bitstream.Encrypted `json:"bitstream,omitempty"`
}

// WriteBusy sends the admission-control shed response on a connection the
// server is about to close: a terminal "come back later" that owner-side
// helpers surface as ErrBusy. It is written before any request is read —
// shedding must not cost the server a protocol round-trip.
func WriteBusy(w io.Writer, retryAfter time.Duration) error {
	return writeMsg(w, OwnerResponse{
		Busy:         true,
		Error:        "vendor busy",
		RetryAfterMS: retryAfter.Milliseconds(),
	})
}

// sendRequest writes an owner request. When the write fails because the
// server has already closed the connection, a response it sent first —
// an admission-control shed — is read and wins over the write error, so
// a shed surfaces as ErrBusy rather than as a broken pipe.
func sendRequest(conn io.ReadWriter, req OwnerRequest) error {
	err := writeMsg(conn, req)
	if err == nil || !(errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET)) {
		return err
	}
	var resp OwnerResponse
	if readMsg(conn, &resp) == nil {
		if berr := busyError(&resp); berr != nil {
			return berr
		}
	}
	return err
}

// busyError maps a shed response to ErrBusy (nil for anything else).
func busyError(resp *OwnerResponse) error {
	if !resp.Busy {
		return nil
	}
	return fmt.Errorf("%w: retry after %dms", ErrBusy, resp.RetryAfterMS)
}

// HandleOwner serves one Data Owner request on conn. The owner connection
// is assumed to be TLS-protected (step 1); the model treats the stream as
// confidential.
//
// For provision requests the host program on the client side proxies the
// Security Kernel: the Figure 3 challenge/report/key-delivery messages run
// over the same connection, interleaved between the request and the final
// response — exactly the paper's topology, where all kernel traffic
// crosses the untrusted host CPU.
func (v *Vendor) HandleOwner(ownerConn io.ReadWriter) error {
	var req OwnerRequest
	if err := readMsg(ownerConn, &req); err != nil {
		return err
	}
	switch req.Kind {
	case KindRegister:
		if req.DeviceSerial == "" || len(req.DeviceKeyN) == 0 {
			return writeMsg(ownerConn, OwnerResponse{OK: false, Error: "malformed registration"})
		}
		v.CA.Register(req.DeviceSerial, &rsax.PublicKey{
			N: bigFromBytes(req.DeviceKeyN), E: req.DeviceKeyE,
		})
		return writeMsg(ownerConn, OwnerResponse{OK: true, DeviceSerial: req.DeviceSerial})
	case KindFetch:
		p, ok := v.Bitstreams[req.Product]
		if !ok {
			return writeMsg(ownerConn, OwnerResponse{OK: false, Error: fmt.Sprintf("unknown product %q", req.Product)})
		}
		hash := p.Encrypted.Hash()
		return writeMsg(ownerConn, OwnerResponse{OK: true, Bitstream: p.Encrypted, BitstreamHash: hash[:]})
	case KindProvision, "": // empty kind keeps old clients working
		p, ok := v.Bitstreams[req.Product]
		if !ok {
			return writeMsg(ownerConn, OwnerResponse{OK: false, Error: fmt.Sprintf("unknown product %q", req.Product)})
		}
		res, err := v.RunVendor(ownerConn, req.Product)
		if err != nil {
			return writeMsg(ownerConn, OwnerResponse{OK: false, Error: err.Error()})
		}
		hash := p.Encrypted.Hash()
		return writeMsg(ownerConn, OwnerResponse{
			OK:            true,
			ShieldPub:     p.ShieldPub.Bytes(),
			BitstreamHash: hash[:],
			DeviceSerial:  res.Report.DeviceSerial,
			KernelHash:    res.Report.KernelHash,
		})
	default:
		return writeMsg(ownerConn, OwnerResponse{OK: false, Error: fmt.Sprintf("unknown request kind %q", req.Kind)})
	}
}

// provisionOpening is the first frame after a provision request: the
// vendor's Figure 3 challenge when it runs the exchange, or an
// OwnerResponse when it does not — the admission-control shed, or a
// refusal such as an unknown product. The two shapes share no JSON keys,
// so one decode tells them apart.
type provisionOpening struct {
	challenge
	OwnerResponse
}

// ProvisionViaHost runs the Data Owner + host-proxy side of a provision
// request on one connection: it sends the request, lets the resident
// Security Kernel answer the interleaved Figure 3 exchange, and returns
// the vendor's verdict, the public Shield Encryption Key, and the
// Bitstream Encryption Key the kernel received. A shed surfaces as
// ErrBusy before the kernel is involved.
func ProvisionViaHost(vendorConn io.ReadWriter, product string, group *modp.Group,
	k *boot.SecurityKernel, enc *bitstream.Encrypted) (*OwnerResponse, *schnorr.PublicKey, []byte, error) {
	if err := sendRequest(vendorConn, OwnerRequest{Kind: KindProvision, Product: product}); err != nil {
		return nil, nil, nil, err
	}
	var open provisionOpening
	if err := readMsg(vendorConn, &open); err != nil {
		return nil, nil, nil, err
	}
	if resp := &open.OwnerResponse; resp.Busy || resp.Error != "" {
		if err := busyError(resp); err != nil {
			return resp, nil, nil, err
		}
		return resp, nil, nil, fmt.Errorf("attest: vendor refused provisioning: %s", resp.Error)
	}
	bitKey, kerr := answerChallenge(vendorConn, k, enc, open.challenge)
	var resp OwnerResponse
	if err := readMsg(vendorConn, &resp); err != nil {
		if kerr != nil {
			return nil, nil, nil, kerr
		}
		return nil, nil, nil, err
	}
	if err := busyError(&resp); err != nil {
		return &resp, nil, nil, err
	}
	if !resp.OK {
		return &resp, nil, nil, fmt.Errorf("attest: vendor refused provisioning: %s", resp.Error)
	}
	if kerr != nil {
		return &resp, nil, nil, kerr
	}
	pub, err := schnorr.PublicKeyFromBytes(group, resp.ShieldPub)
	if err != nil {
		return &resp, nil, nil, fmt.Errorf("attest: bad shield key from vendor: %w", err)
	}
	return &resp, pub, bitKey, nil
}

// FetchBitstream downloads the encrypted bitstream for a product.
func FetchBitstream(vendorConn io.ReadWriter, product string) (*bitstream.Encrypted, error) {
	if err := sendRequest(vendorConn, OwnerRequest{Kind: KindFetch, Product: product}); err != nil {
		return nil, err
	}
	var resp OwnerResponse
	if err := readMsg(vendorConn, &resp); err != nil {
		return nil, err
	}
	if err := busyError(&resp); err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("attest: fetch refused: %s", resp.Error)
	}
	if resp.Bitstream == nil {
		return nil, fmt.Errorf("attest: fetch returned no bitstream")
	}
	return resp.Bitstream, nil
}

// RegisterDevice records a device public key with the vendor's CA view
// (demo convenience standing in for the Manufacturer's CA publication).
func RegisterDevice(vendorConn io.ReadWriter, serial string, pub *rsax.PublicKey) error {
	err := sendRequest(vendorConn, OwnerRequest{
		Kind:         KindRegister,
		DeviceSerial: serial,
		DeviceKeyN:   pub.N.Bytes(),
		DeviceKeyE:   pub.E,
	})
	if err != nil {
		return err
	}
	var resp OwnerResponse
	if err := readMsg(vendorConn, &resp); err != nil {
		return err
	}
	if err := busyError(&resp); err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("attest: registration refused: %s", resp.Error)
	}
	return nil
}
