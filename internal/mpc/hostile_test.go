package mpc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/transport"
)

// Inputs a peer or a corrupted frame can put in front of the dealer and the
// malicious-mode commit-reveal: each used to be an index-out-of-range, a
// division by zero, a negative slice bound or an allocation of the sender's
// choosing, and must now come back as a typed error that names the culprit.

// runDealerOn starts RunDealer on a fresh n-party mesh and returns party 0's
// raw endpoint (hello already consumed) and the channel the dealer's result
// arrives on.  A dealer panic is reported as a test error.
func runDealerOn(t *testing.T, n int, cfg DealerConfig) (transport.Endpoint, <-chan error) {
	t.Helper()
	eps := NewTestNetwork(n)
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("dealer panicked: %v", r)
			}
		}()
		done <- RunDealer(eps[n], cfg)
	}()
	if _, err := eps[0].Recv(n); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return eps[0], done
}

func TestDealerRejectsMalformedRequests(t *testing.T) {
	const n = 2
	req := func(fields ...uint64) []byte {
		xs := make([]Elem, len(fields))
		for i, f := range fields {
			xs[i] = Elem{f}
		}
		return appendElems(nil, xs)
	}
	wide := appendElems(nil, []Elem{{reqTriples}, {1, 1, 0, 0}}) // count ≥ 2^64
	cases := []struct {
		name string
		raw  []byte
		want string // the error must name the request or the defect
	}{
		{"empty frame", nil, "count header"},
		{"oversized frame", make([]byte, 1024), "longer than any request"},
		{"no fields", req(), "0 fields"},
		{"five fields", req(reqTriples, 1, 2, 3, 4), "5 fields"},
		{"not a vector", []byte{0x03, 0x01}, "malformed"},
		{"field not below the modulus", append([]byte{0x01, 32}, bytes.Repeat([]byte{0xff}, 32)...), "modulus"},
		{"unknown kind", req(99), "unknown kind 99"},
		{"hello is not a request", req(reqHello), "unknown kind"},
		{"triples without a count", req(reqTriples), "triples request []: 0 arguments, want 1"},
		{"triples with a stray argument", req(reqTriples, 8, 8), "triples request [8 8]"},
		{"triples count zero", req(reqTriples, 0), "triples request [0]: count"},
		{"triples count beyond a frame", req(reqTriples, 1<<27), "triples request [134217728]: count"},
		{"triples count 2^40", req(reqTriples, 1<<40), "field 1 out of range"},
		{"triples count beyond 2^64", wide, "field 1 out of range"},
		{"bits without a count", req(reqBits), "bits request"},
		{"bits count beyond a frame", req(reqBits, 1<<28), "bits request"},
		{"masks without a width", req(reqMasks, 4), "masks request [4]: 1 arguments, want 2"},
		{"masks with a stray argument", req(reqMasks, 4, 41, 1), "masks request [4 41 1]: 3 arguments, want 2"},
		{"masks count zero", req(reqMasks, 0, 41), "masks request [0 41]: count"},
		{"masks count beyond a frame", req(reqMasks, 1<<28, 41), "masks request [268435456 41]: count"},
		{"masks of width zero", req(reqMasks, 4, 0), "masks request [4 0]: width"},
		{"masks wider than the field", req(reqMasks, 4, 255), "masks request [4 255]: width"},
		{"input masks without an owner", req(reqInputMasks, 4), "input-masks request [4]: 1 arguments, want 2"},
		{"input masks for the dealer", req(reqInputMasks, 4, n), "owner"},
		{"bounded triples without widths", req(reqBoundedTriples, 4), "bounded-triples request [4]"},
		{"bounded triples with one width", req(reqBoundedTriples, 4, 41), "bounded-triples request [4 41]"},
		{"bounded triples wider than the field", req(reqBoundedTriples, 4, 41, 255), "wider than 254"},
		{"enc masks without a width", req(reqEncMasks, 4), "enc-masks request [4]"},
		{"enc masks beyond a frame", req(reqEncMasks, 1<<20, 1<<20), "enc-masks request"},
		{"shutdown with an argument", req(reqShutdown, 1), "shutdown request [1]"},
		{"checkpoint with an argument", req(reqCheckpoint, 1), "checkpoint request [1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ep, done := runDealerOn(t, n, DealerConfig{Seed: 3})
			if err := ep.Send(n, tc.raw); err != nil {
				t.Fatal(err)
			}
			err := <-done
			if !errors.Is(err, ErrBadDealerRequest) {
				t.Fatalf("dealer returned %v, want ErrBadDealerRequest", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The largest count a frame holds is still served.
	largest := uint64((transport.MaxFrameSize - 5) / maxWireElem)
	if _, err := parseDealerRequest(req(reqBits, largest), n, 1); err != nil {
		t.Fatalf("largest legal bits request: %v", err)
	}
	if _, err := parseDealerRequest(req(reqMasks, largest, 254), n, 1); err != nil {
		t.Fatalf("largest legal masks request: %v", err)
	}
}

// FuzzDealerRequest: the dealer's request decoder never panics, refuses with
// a typed error, and accepts only what the dealer can serve — a known kind
// with its argument count, a count one response frame holds, an owner that
// is a compute party, widths a field element carries — and what it accepts
// re-encodes to a request it reads back the same.  The committed corpus holds
// five fields, a zero count, a count over a frame, a 255-bit mask, an unknown
// kind and an owner that is not a party.
func FuzzDealerRequest(f *testing.F) {
	const n = 3
	for _, r := range [][]int64{
		{reqShutdown}, {reqCheckpoint}, {reqTriples, 512}, {reqBits, 666},
		{reqMasks, 128, 56}, {reqInputMasks, 64, 2}, {reqBoundedTriples, 512, 41, 41}, {reqEncMasks, 64, 1100},
	} {
		f.Add(appendRequest(nil, int(r[0]), r[1:]...))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, stride := range []int{1, 2} {
			req, err := parseDealerRequest(raw, n, stride)
			if err != nil {
				if !errors.Is(err, ErrBadDealerRequest) {
					t.Fatalf("untyped error %v", err)
				}
				continue
			}
			// The request's arguments, and the most bytes one item adds to
			// the response frame.
			var args []int64
			var itemBytes int
			switch req.kind {
			case reqShutdown, reqCheckpoint:
			case reqTriples:
				args, itemBytes = []int64{int64(req.count)}, 3*stride*maxWireElem
			case reqBits:
				args, itemBytes = []int64{int64(req.count)}, stride*maxWireElem
			case reqMasks:
				if req.a < 1 || req.a > 254 {
					t.Fatalf("accepted mask width %d", req.a)
				}
				args, itemBytes = []int64{int64(req.count), int64(req.a)}, stride*maxWireElem
			case reqInputMasks:
				if req.a >= n {
					t.Fatalf("accepted owner %d of %d parties", req.a, n)
				}
				args, itemBytes = []int64{int64(req.count), int64(req.a)}, (stride+1)*maxWireElem
			case reqBoundedTriples:
				if req.a > 254 || req.b > 254 {
					t.Fatalf("accepted mask widths %d, %d", req.a, req.b)
				}
				args, itemBytes = []int64{int64(req.count), int64(req.a), int64(req.b)}, 3*stride*maxWireElem
			case reqEncMasks:
				args, itemBytes = []int64{int64(req.count), int64(req.a)}, (req.a+7)/8+binary.MaxVarintLen32+(stride-1)*maxWireElem
			default:
				t.Fatalf("accepted unknown kind %d", req.kind)
			}
			if args != nil && (req.count < 1 || req.count*itemBytes > transport.MaxFrameSize) {
				t.Fatalf("accepted %+v: its response may not fit one frame", req)
			}
			again, err := parseDealerRequest(appendRequest(nil, req.kind, args...), n, stride)
			if err != nil || again != req {
				t.Fatalf("re-encoded %+v reads back as %+v, %v", req, again, err)
			}
		}
	})
}

// hostilePeer sets up an authenticated 2-party session in which party 0 is a
// real engine and party 1 is the returned raw endpoint, free to send
// anything.  The memory mesh buffers frames, so the peer scripts its side of
// an exchange before the engine runs its own.
func hostilePeer(t *testing.T) (*Engine, transport.Endpoint) {
	t.Helper()
	const n = 2
	eps := NewTestNetwork(n)
	go func() { _ = RunDealer(eps[n], DealerConfig{Seed: 3, Authenticated: true}) }()
	cfg := DefaultConfig()
	cfg.Authenticated = true
	e, err := NewEngine(eps[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.Shutdown()
		for _, ep := range eps {
			ep.Close()
		}
	})
	return e, eps[1]
}

// commitAndReveal plays a peer that honestly commits to msg and reveals it.
func commitAndReveal(t *testing.T, peer transport.Endpoint, msg []byte) {
	t.Helper()
	h := sha256.Sum256(msg)
	if err := peer.Send(0, h[:]); err != nil {
		t.Fatal(err)
	}
	if err := peer.Send(0, msg); err != nil {
		t.Fatal(err)
	}
}

// mustNotPanic runs f, turning a panic into a test failure.
func mustNotPanic(t *testing.T, f func() error) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panicked on a hostile peer: %v", r)
		}
	}()
	return f()
}

func TestCommitRevealRejectsHostilePeer(t *testing.T) {
	nonce := make([]byte, revealNonceLen)
	coin := func(e *Engine) error { _, err := e.commitReveal(make([]byte, 32)); return err }
	values := func(e *Engine) error { _, err := e.commitRevealValues([]Elem{{7}}); return err }
	for _, tc := range []struct {
		name string
		msg  []byte // what the peer commits to and reveals
		run  func(e *Engine) error
	}{
		{"empty coin seed", nil, coin},
		{"short coin seed", []byte{1, 2, 3}, coin},
		{"long coin seed", make([]byte, 33), coin},
		{"value blob shorter than the nonce", []byte{1, 2, 3, 4, 5}, values},
		{"empty value blob", nil, values},
		{"value blob with no vector", nonce, values},
		{"value blob with too many values", append(appendElems(nil, []Elem{{1}, {2}}), nonce...), values},
		{"value not below the modulus", append(append([]byte{0x01, 32}, Q.Bytes()...), nonce...), values},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, peer := hostilePeer(t)
			commitAndReveal(t, peer, tc.msg)
			err := mustNotPanic(t, func() error { return tc.run(e) })
			if !errors.Is(err, ErrBadReveal) || !strings.Contains(err.Error(), "party 1") {
				t.Fatalf("got %v, want ErrBadReveal naming party 1", err)
			}
		})
	}
	t.Run("broken commitment", func(t *testing.T) {
		e, peer := hostilePeer(t)
		h := sha256.Sum256([]byte("something else"))
		_ = peer.Send(0, h[:])
		_ = peer.Send(0, make([]byte, 32))
		_, err := e.commitReveal(make([]byte, 32))
		if !errors.Is(err, ErrBadReveal) || !strings.Contains(err.Error(), "party 1") {
			t.Fatalf("got %v, want ErrBadReveal naming party 1", err)
		}
	})
	t.Run("honest peer", func(t *testing.T) {
		e, peer := hostilePeer(t)
		seed := bytes.Repeat([]byte{0x5a}, 32)
		commitAndReveal(t, peer, seed)
		got, err := e.commitReveal(make([]byte, 32))
		if err != nil || !bytes.Equal(got, seed) {
			t.Fatalf("combined seed %x, err %v", got, err)
		}
		commitAndReveal(t, peer, append(appendElems(nil, []Elem{{9}}), nonce...))
		vals, err := e.commitRevealValues([]Elem{{7}})
		if err != nil || len(vals) != 2 || vals[0] != (Elem{7}) || vals[1] != (Elem{9}) {
			t.Fatalf("values %v, err %v", vals, err)
		}
	})
}

// TestOpenRejectsMalformedContribution: a peer's share vector that is not a
// vector of field elements stops the round with the engine's usual
// communication-failure panic, naming the peer — it is not summed.
func TestOpenRejectsMalformedContribution(t *testing.T) {
	for name, frame := range map[string][]byte{
		"element equals q":   append([]byte{0x01, 32}, Q.Bytes()...),
		"33-byte element":    append([]byte{0x01, 33}, make([]byte, 33)...),
		"wrong count":        appendElems(nil, []Elem{{1}, {2}}),
		"count over a frame": {0x7f, 0x00},
	} {
		t.Run(name, func(t *testing.T) {
			e, peer := hostilePeer(t)
			if err := peer.Send(0, frame); err != nil {
				t.Fatal(err)
			}
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "party 1") || !strings.Contains(fmt.Sprint(r), "malformed") {
					t.Fatalf("open recovered %v, want a malformed-vector panic naming party 1", r)
				}
			}()
			e.Open(e.ConstInt64(5))
		})
	}
}
