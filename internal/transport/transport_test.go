package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMemoryPairwise(t *testing.T) {
	eps := NewMemoryNetwork(3, 8)
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()
	if err := eps[0].Send(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := eps[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if eps[0].Stats().MsgsSent.Load() != 1 || eps[1].Stats().MsgsRecv.Load() != 1 {
		t.Fatal("stats not updated")
	}
}

func TestMemoryFIFOOrder(t *testing.T) {
	eps := NewMemoryNetwork(2, 64)
	for i := 0; i < 50; i++ {
		if err := eps[0].Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		b, err := eps[1].Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != byte(i) {
			t.Fatalf("out of order: got %d want %d", b[0], i)
		}
	}
}

func TestMemorySelfAndRangeErrors(t *testing.T) {
	eps := NewMemoryNetwork(2, 1)
	if err := eps[0].Send(0, nil); err == nil {
		t.Error("self-send should fail")
	}
	if err := eps[0].Send(5, nil); err == nil {
		t.Error("out-of-range send should fail")
	}
	if _, err := eps[0].Recv(0); err == nil {
		t.Error("self-recv should fail")
	}
}

func TestMemoryCloseUnblocksRecv(t *testing.T) {
	eps := NewMemoryNetwork(2, 1)
	done := make(chan error, 1)
	go func() {
		_, err := eps[1].Recv(0)
		done <- err
	}()
	eps[1].Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestMemoryAllToAll(t *testing.T) {
	const n = 5
	eps := NewMemoryNetwork(n, 16)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep := eps[i]
			if err := Broadcast(ep, []byte(fmt.Sprintf("from-%d", i))); err != nil {
				errs <- err
				return
			}
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				b, err := ep.Recv(j)
				if err != nil {
					errs <- err
					return
				}
				if want := fmt.Sprintf("from-%d", j); string(b) != want {
					errs <- fmt.Errorf("party %d: got %q want %q", i, b, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestWireIntsRoundTrip(t *testing.T) {
	xs := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Lsh(big.NewInt(12345), 200)}
	got, rest, err := UnmarshalInts(MarshalInts(xs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}
	for i := range xs {
		if xs[i].Cmp(got[i]) != 0 {
			t.Errorf("element %d mismatch", i)
		}
	}
}

func TestWireIntsQuick(t *testing.T) {
	f := func(raw [][]byte) bool {
		xs := make([]*big.Int, len(raw))
		for i, b := range raw {
			xs[i] = new(big.Int).SetBytes(b)
		}
		got, rest, err := UnmarshalInts(MarshalInts(xs))
		if err != nil || len(rest) != 0 || len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if xs[i].Cmp(got[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative value")
		}
	}()
	MarshalInts([]*big.Int{big.NewInt(-1)})
}

func TestWireTruncated(t *testing.T) {
	b := MarshalInts([]*big.Int{big.NewInt(1 << 40)})
	if _, _, err := UnmarshalInts(b[:len(b)-2]); err == nil {
		t.Fatal("expected error on truncated input")
	}
}

func TestTCPMesh(t *testing.T) {
	cfg := TCPConfig{Addrs: []string{"127.0.0.1:39131", "127.0.0.1:39132", "127.0.0.1:39133"}}
	const n = 3
	eps := make([]Endpoint, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := NewTCPEndpoint(cfg, i)
			if err != nil {
				errs <- err
				return
			}
			eps[i] = ep
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	defer func() {
		for _, e := range eps {
			if e != nil {
				e.Close()
			}
		}
	}()

	payload := bytes.Repeat([]byte{0xab}, 100000)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := Broadcast(eps[i], payload); err != nil {
				errs <- err
				return
			}
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				b, err := eps[i].Recv(j)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(b, payload) {
					errs <- fmt.Errorf("party %d: corrupted payload from %d", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTCPSymmetricBulkExchange is the deadlock regression test for the
// asynchronous send path: two parties each ship a multi-megabyte batch of
// frames to the other BEFORE either starts receiving — the level-wise
// batched model update's owner-to-owner choreography.  With synchronous
// socket writes both parties wedge once the kernel buffers fill; the
// per-peer writer goroutines must let the exchange complete.
func TestTCPSymmetricBulkExchange(t *testing.T) {
	cfg := TCPConfig{Addrs: []string{"127.0.0.1:39151", "127.0.0.1:39152"}}
	const n = 2
	const frames = 400
	payload := bytes.Repeat([]byte{0x5a}, 64*1024) // 400 × 64 KiB ≈ 25 MiB per direction
	eps := make([]Endpoint, n)
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := NewTCPEndpoint(cfg, i)
			if err != nil {
				errs <- err
				return
			}
			eps[i] = ep
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	defer func() {
		for _, e := range eps {
			if e != nil {
				e.Close()
			}
		}
	}()

	done := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			peer := 1 - i
			for f := 0; f < frames; f++ {
				if err := eps[i].Send(peer, payload); err != nil {
					errs <- fmt.Errorf("party %d send %d: %w", i, f, err)
					return
				}
			}
			for f := 0; f < frames; f++ {
				b, err := eps[i].Recv(peer)
				if err != nil {
					errs <- fmt.Errorf("party %d recv %d: %w", i, f, err)
					return
				}
				if len(b) != len(payload) {
					errs <- fmt.Errorf("party %d: frame %d truncated to %d bytes", i, f, len(b))
					return
				}
			}
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("symmetric bulk exchange deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestWireHostileElementCount(t *testing.T) {
	// A forged header claiming 2^40 elements in a short payload must be
	// rejected before the output slice is allocated.
	var b []byte
	b = binary.AppendUvarint(b, 1<<40)
	b = append(b, 0x01, 0x05)
	if _, _, err := UnmarshalInts(b); err == nil {
		t.Fatal("expected error on hostile element count")
	}
	// A legitimate empty vector still decodes.
	if xs, _, err := UnmarshalInts(MarshalInts(nil)); err != nil || len(xs) != 0 {
		t.Fatalf("empty vector: %v, %v", xs, err)
	}
}

// TestRecvIntsRefusesTrailingBytes: every sender writes exactly one vector per
// frame, so a frame holding bytes after its vector — here a second vector — is
// refused with ErrTrailingBytes instead of read as its first vector.
func TestRecvIntsRefusesTrailingBytes(t *testing.T) {
	eps := NewMemoryNetwork(2, 4)
	one := MarshalInts([]*big.Int{big.NewInt(7)})
	if err := eps[1].Send(0, append(append([]byte(nil), one...), one...)); err != nil {
		t.Fatal(err)
	}
	if _, err := RecvInts(eps[0], 1); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("two vectors in one frame: %v, want ErrTrailingBytes", err)
	}
	if err := eps[1].Send(0, one); err != nil {
		t.Fatal(err)
	}
	if xs, err := RecvInts(eps[0], 1); err != nil || len(xs) != 1 {
		t.Errorf("one vector: %v, %v", xs, err)
	}
}

// FuzzUnmarshalInts: the decoder never panics and reads no more elements than
// the payload has bytes; what it accepts re-encodes to a vector it reads back
// the same, and DecodeInts accepts exactly the frames it reads with nothing
// left over.
func FuzzUnmarshalInts(f *testing.F) {
	f.Add(MarshalInts([]*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Lsh(big.NewInt(12345), 200)}))
	f.Fuzz(func(t *testing.T, b []byte) {
		xs, rest, err := UnmarshalInts(b)
		dec, derr := DecodeInts(b)
		if err != nil {
			if derr == nil {
				t.Fatalf("DecodeInts accepted what UnmarshalInts refused (%v)", err)
			}
			return
		}
		if len(xs) > len(b) {
			t.Fatalf("%d elements out of %d bytes", len(xs), len(b))
		}
		if (len(rest) > 0) != errors.Is(derr, ErrTrailingBytes) || derr == nil && len(dec) != len(xs) {
			t.Fatalf("%d trailing bytes, DecodeInts: %d values, %v", len(rest), len(dec), derr)
		}
		again, arest, err := UnmarshalInts(MarshalInts(xs))
		if err != nil || len(arest) != 0 || len(again) != len(xs) {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		for i := range xs {
			if again[i].Cmp(xs[i]) != 0 {
				t.Fatalf("element %d changed across a round trip", i)
			}
		}
	})
}

func TestMemoryPerPeerStats(t *testing.T) {
	eps := NewMemoryNetwork(3, 8)
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()
	if err := eps[0].Send(1, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send(2, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[1].Recv(0); err != nil {
		t.Fatal(err)
	}
	snap := eps[0].Stats().Snapshot()
	if snap.MsgsSent != 2 || snap.BytesSent != 6 {
		t.Fatalf("totals: %+v", snap)
	}
	if len(snap.Peers) != 3 {
		t.Fatalf("want 3 peer rows, got %d", len(snap.Peers))
	}
	if snap.Peers[1].MsgsSent != 1 || snap.Peers[1].BytesSent != 4 {
		t.Fatalf("peer 1 row: %+v", snap.Peers[1])
	}
	if snap.Peers[2].MsgsSent != 1 || snap.Peers[2].BytesSent != 2 {
		t.Fatalf("peer 2 row: %+v", snap.Peers[2])
	}
	rsnap := eps[1].Stats().Snapshot()
	if rsnap.Peers[0].MsgsRecv != 1 || rsnap.Peers[0].BytesRecv != 4 {
		t.Fatalf("receiver peer row: %+v", rsnap.Peers[0])
	}
	var agg TrafficSnapshot
	agg.Accumulate(snap)
	agg.Accumulate(rsnap)
	if agg.MsgsSent != 2 || agg.MsgsRecv != 1 {
		t.Fatalf("accumulate: %+v", agg)
	}
}

func TestTCPHostileFramePrefix(t *testing.T) {
	cfg := TCPConfig{Addrs: []string{"127.0.0.1:39141", "127.0.0.1:39142"}}
	epc := make(chan Endpoint, 1)
	errc := make(chan error, 1)
	go func() {
		ep, err := NewTCPEndpoint(cfg, 0)
		if err != nil {
			errc <- err
			return
		}
		epc <- ep
	}()
	// Pose as party 1: complete the mesh handshake manually, then send a
	// frame whose length prefix claims far more than MaxFrameSize.
	conn, err := dialRetry(context.Background(), cfg.Addrs[0], 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := binary.Write(conn, binary.BigEndian, uint32(1)); err != nil {
		t.Fatal(err)
	}
	var ep Endpoint
	select {
	case ep = <-epc:
	case err := <-errc:
		t.Fatal(err)
	}
	defer ep.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrameSize+1))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Recv(1); err == nil {
		t.Fatal("expected error on hostile frame length")
	}
}

// TestTCPSendBackpressure forces a tiny send-queue high-water mark and checks
// that (a) a producer that outruns the consumer blocks instead of buffering
// without limit, (b) the exchange still completes, and (c) the queue gauges
// report a peak consistent with the mark.
func TestTCPSendBackpressure(t *testing.T) {
	const hwm = 64 * 1024
	cfg := TCPConfig{
		Addrs:          []string{"127.0.0.1:39171", "127.0.0.1:39172"},
		SendQueueBytes: hwm,
	}
	eps := make([]Endpoint, 2)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := NewTCPEndpoint(cfg, i)
			if err != nil {
				errs <- err
				return
			}
			eps[i] = ep
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	defer func() {
		for _, e := range eps {
			if e != nil {
				e.Close()
			}
		}
	}()

	const frames = 200
	payload := bytes.Repeat([]byte{0x42}, 32*1024) // 200 × 32 KiB ≫ hwm
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := 0; f < frames; f++ {
			if err := eps[0].Send(1, payload); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Slow consumer: the producer must hit the mark and block, not OOM.
	for f := 0; f < frames; f++ {
		if f < 3 {
			time.Sleep(20 * time.Millisecond)
		}
		b, err := eps[1].Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != len(payload) {
			t.Fatalf("frame %d truncated", f)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("producer never finished under backpressure")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	s := eps[0].Stats()
	peak := s.QueuePeakBytes.Load()
	if peak == 0 {
		t.Fatal("queue peak gauge never moved")
	}
	// Peak may exceed hwm by at most one frame (the empty-queue admission).
	if max := int64(hwm + len(payload)); peak > max {
		t.Fatalf("queue peak %d exceeds mark+frame %d: backpressure not bounding", peak, max)
	}
	if q := s.QueuedBytes.Load(); q != 0 {
		t.Fatalf("queue gauge did not drain to zero: %d", q)
	}
}
