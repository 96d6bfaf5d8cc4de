package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// The protocols exchange almost exclusively vectors of non-negative big
// integers (ciphertexts, field elements, decryption shares).  The wire
// format is deliberately simple: uvarint count, then per element uvarint
// byte-length followed by big-endian magnitude bytes.  Signed values are
// mapped into a ring by the caller before marshalling.

// MaxFrameSize bounds a single wire frame (256 MiB), keeping a corrupt or
// hostile length prefix from driving an unbounded allocation.  Honest
// senders stay below it: per-node ciphertext vectors span at most all
// samples (tens of megabytes at the paper's scale), and the level-wise
// training pipeline splits its frontier-sized batches into frames under
// this limit (core.Party's chunked ciphertext messaging).
const MaxFrameSize = 1 << 28

// AppendInts appends the wire encoding of xs to dst and returns it.
func AppendInts(dst []byte, xs []*big.Int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		if x.Sign() < 0 {
			panic("transport: negative integer on the wire; map into a ring first")
		}
		b := x.Bytes()
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// MarshalInts encodes xs.
func MarshalInts(xs []*big.Int) []byte {
	// Rough size guess to avoid re-allocation.
	size := 10
	for _, x := range xs {
		size += 5 + (x.BitLen()+7)/8
	}
	return AppendInts(make([]byte, 0, size), xs)
}

// UnmarshalInts decodes a vector encoded by MarshalInts and returns the
// remaining bytes.
func UnmarshalInts(b []byte) ([]*big.Int, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, fmt.Errorf("transport: bad vector header")
	}
	b = b[k:]
	// Every element takes at least one length byte, so a count beyond the
	// remaining payload is a corrupt (or hostile) header; reject it before
	// allocating the output slice.
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("transport: vector header claims %d elements in %d bytes", n, len(b))
	}
	out := make([]*big.Int, n)
	for i := range out {
		l, k := binary.Uvarint(b)
		if k <= 0 || uint64(len(b[k:])) < l {
			return nil, nil, fmt.Errorf("transport: truncated integer %d/%d", i, n)
		}
		b = b[k:]
		out[i] = new(big.Int).SetBytes(b[:l])
		b = b[l:]
	}
	return out, b, nil
}

// ErrTrailingBytes is wrapped by DecodeInts when a frame holds bytes after its
// vector.  Every sender writes exactly one vector per frame, so the rest is a
// corrupt or hostile frame, not data to skip.
var ErrTrailingBytes = errors.New("transport: bytes after the vector")

// DecodeInts decodes a frame that holds exactly one vector encoded by
// MarshalInts.
func DecodeInts(b []byte) ([]*big.Int, error) {
	xs, rest, err := UnmarshalInts(b)
	if err == nil && len(rest) > 0 {
		return nil, fmt.Errorf("%w: %d of %d bytes", ErrTrailingBytes, len(rest), len(b))
	}
	return xs, err
}

// SendInts marshals and sends a vector of non-negative big integers.
func SendInts(ep Endpoint, to int, xs []*big.Int) error {
	return ep.Send(to, MarshalInts(xs))
}

// RecvInts receives one frame and decodes it as one vector of big integers.
func RecvInts(ep Endpoint, from int) ([]*big.Int, error) {
	b, err := ep.Recv(from)
	if err != nil {
		return nil, err
	}
	return DecodeInts(b)
}

// BroadcastInts sends the same vector to every other party.
func BroadcastInts(ep Endpoint, xs []*big.Int) error {
	return Broadcast(ep, MarshalInts(xs))
}

// SendInt sends a single non-negative big integer.
func SendInt(ep Endpoint, to int, x *big.Int) error {
	return SendInts(ep, to, []*big.Int{x})
}

// RecvInt receives a single big integer.
func RecvInt(ep Endpoint, from int) (*big.Int, error) {
	xs, err := RecvInts(ep, from)
	if err != nil {
		return nil, err
	}
	if len(xs) != 1 {
		return nil, fmt.Errorf("transport: expected 1 integer, got %d", len(xs))
	}
	return xs[0], nil
}
