package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"shef/internal/attest"
	"shef/internal/boot"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/fpga"
	"shef/internal/hostapp"
	"shef/internal/mem"
	"shef/internal/perf"
	"shef/internal/shell"
	"shef/internal/shield"
)

// attestOpts selects the accelerator every attest session provisions; its
// Shield is small, so a session is all protocol and no bulk data.
var attestOpts = hostapp.Options{Design: "bitcoin", Params: map[string]string{"difficulty": "8"}}

// attestRig is a vendor server on loopback TCP and one Data Owner's
// pre-manufactured, booted device. One owner runs sessions at a time: with
// two owners on a 2-core host the session latency splits into two modes
// whose mix changes from run to run, and the median flips between them.
type attestRig struct {
	srv     *hostapp.VendorServer
	served  chan error
	addr    string
	product string
	dev     *fpga.Device
	kernel  *boot.SecurityKernel
	shell   *shell.Shell
	// manufacture is the device's manufacturing time (RSA keygen dominates).
	manufacture time.Duration
}

func newAttestRig(seed int64) (*attestRig, error) {
	vendor, product, err := hostapp.BuildVendor(attestOpts)
	if err != nil {
		return nil, err
	}
	r := &attestRig{product: product, served: make(chan error, 1)}
	start := time.Now()
	r.dev = fpga.New(fpga.VU9P, fmt.Sprintf("shefbench-%d", seed), perf.Default(), 1<<30)
	pd, err := (&boot.Manufacturer{Group: modp.TestGroup, KeyBits: 1024}).Provision(r.dev)
	if err != nil {
		return nil, err
	}
	r.manufacture = time.Since(start)
	vendor.CA.Register(r.dev.Serial, pd.DevicePublic)
	if r.kernel, err = boot.Boot(pd, boot.ReferenceKernel, modp.TestGroup); err != nil {
		return nil, err
	}
	if r.shell, err = shell.New("aws-shell-v1.4", r.dev); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.addr = ln.Addr().String()
	r.srv = hostapp.NewVendorServerWith(vendor, ln, hostapp.ServerConfig{MaxSessions: 1, MaxQueue: 1})
	go func() { r.served <- r.srv.Serve(nil) }()
	return r, nil
}

// close stops the server and waits for Serve to return.
func (r *attestRig) close() error {
	err := r.srv.Shutdown(5 * time.Second)
	if serr := <-r.served; !errors.Is(serr, hostapp.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// wrongData marks an oracle failure, as opposed to an operation error.
type wrongData string

func (w wrongData) Error() string { return string(w) }

// session is one Data Owner session: fetch the bitstream, attest through
// the host proxy, load the accelerator, build its Shield and provision a
// fresh Data Encryption Key. The Shield gets the fabric's on-chip memory
// afresh, as partial reconfiguration resets it.
func (r *attestRig) session(rng *rand.Rand, t *tracer) error {
	var conn net.Conn
	var err error
	dial := func() {
		t.begin("attest.dial")
		conn, err = net.Dial("tcp", r.addr)
		t.end()
	}
	if dial(); err != nil {
		return err
	}
	t.begin("attest.fetch")
	enc, err := attest.FetchBitstream(conn, r.product)
	conn.Close()
	t.end()
	if err != nil {
		return err
	}
	if dial(); err != nil {
		return err
	}
	t.begin("attest.provision")
	resp, shieldPub, bitKey, err := attest.ProvisionViaHost(conn, r.product, modp.TestGroup, r.kernel, enc)
	conn.Close()
	t.end()
	if err != nil {
		return err
	}
	if want := enc.Hash(); !bytes.Equal(resp.BitstreamHash, want[:]) {
		return wrongData("vendor attested a bitstream other than the one fetched")
	}
	t.begin("boot.load_accelerator")
	man, err := r.kernel.LoadAccelerator(enc, bitKey)
	t.end()
	if err != nil {
		return err
	}
	t.begin("shield.new")
	priv, err := man.ShieldKey()
	var sd *shield.Shield
	if err == nil {
		sd, err = shield.New(man.Shield, priv, r.shell.MemPort(), mem.NewOCM(r.dev.Model.OCMBits), perf.Default())
	}
	t.end()
	if err != nil {
		return err
	}
	if priv.Y.Cmp(shieldPub.Y) != 0 {
		return wrongData("vendor's Shield key does not match the bitstream")
	}
	dek := make([]byte, 32)
	rng.Read(dek)
	t.begin("keywrap.wrap")
	lk, err := keywrap.Wrap(shieldPub, dek, nil)
	t.end()
	if err != nil {
		return err
	}
	t.begin("shield.provision_load_key")
	err = sd.ProvisionLoadKey(lk)
	t.end()
	if err != nil {
		return err
	}
	if !sd.Provisioned() {
		return wrongData("Load Key accepted but the Shield is not provisioned")
	}
	return nil
}

// attestPhase is what one measured phase of sessions saw.
type attestPhase struct {
	sessions series
	done     []time.Duration
	// queuedMax is the deepest admission queue seen after a traced session.
	queuedMax uint64
}

// phase runs sessions back to back.
func (r *attestRig) phase(rng *rand.Rand, b budget, t *tracer, res *run) attestPhase {
	var p attestPhase
	start := time.Now()
	for ops := 0; b.more(ops); ops++ {
		res.attempted++
		t.begin(opSpan)
		opStart := time.Now()
		err := r.session(rng, t)
		d := time.Since(opStart)
		t.end()
		var wd wrongData
		switch {
		case errors.As(err, &wd):
			res.violate("attest: %v", err)
		case err != nil:
			res.fail(fmt.Errorf("attest session: %w", err))
		default:
			p.sessions.add(d)
			p.done = append(p.done, time.Since(start))
		}
		if t != nil {
			p.queuedMax = max(p.queuedMax, r.srv.Stats().Queued)
		}
	}
	return p
}

func runAttest(rc runConfig) (*run, error) {
	r, setup, err := timeSetup(rc, func() (*attestRig, error) { return newAttestRig(rc.seed) }, (*attestRig).close)
	if err != nil {
		return nil, err
	}
	res := newRun()
	res.set("setup_s", "s", setup)
	share := 1.0
	if rc.trace {
		share = 0.5
	}
	rng := rand.New(rand.NewSource(rc.seed + 1))
	p := r.phase(rng, rc.budget(share, 24), nil, res)
	res.rate(p.done)
	res.latencyMetrics("", p.sessions)
	res.set("boot.manufacture_ms", "ms", float64(r.manufacture.Nanoseconds())/1e6)
	if rc.trace {
		t := newTracer(time.Now(), 0)
		tp := r.phase(rng, rc.budget(share, 24), t, res)
		ts := mergeTracers(t)
		res.set("attest.fetch.p50_ms", "ms", ts.layer("attest.fetch").durs.quantile(0.5))
		res.set("attest.provision.p50_ms", "ms", ts.layer("attest.provision").durs.quantile(0.5))
		res.set("attest.provision.p99_ms", "ms", ts.layer("attest.provision").durs.quantile(0.99))
		for _, l := range []string{"boot.load_accelerator", "shield.new", "shield.provision_load_key"} {
			res.set(l+".p50_ms", "ms", ts.layer(l).durs.quantile(0.5))
		}
		st := r.srv.Stats()
		res.set("hostapp.shed_ratio", "ratio", ratio(float64(st.Shed), float64(st.Served+st.Shed)))
		res.set("hostapp.queued_max", "count", float64(tp.queuedMax))
		res.set("trace_overhead_pct", "%", 100*(ratio(ts.layer(opSpan).durs.mean(), p.sessions.mean())-1))
		if err := finishTrace(rc, res, ts); err != nil {
			return nil, err
		}
	}
	return res, r.close()
}
