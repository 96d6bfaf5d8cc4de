package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Field elements travel in the transport layer's integer-vector format
// (transport.MarshalInts): uvarint count, then per element a uvarint byte
// length and the minimal big-endian magnitude (zero has length 0).  The
// encoder and decoder here produce and consume those bytes straight from
// limbs, so neither side of an opening or a dealer response materialises a
// big.Int.  Unlike the general decoder, this one knows what a field element
// is and refuses anything else.

// ErrMalformedVector is returned (wrapped) for bytes that are not the
// encoding of a vector of canonical field elements.
var ErrMalformedVector = errors.New("mpc: malformed element vector")

// appendElem appends one element's length-prefixed encoding.
func appendElem(dst []byte, a Elem) []byte {
	n := (a.bitLen() + 7) / 8
	b := a.bytes()
	dst = append(dst, byte(n)) // n ≤ 32: a one-byte uvarint
	return append(dst, b[32-n:]...)
}

// appendElems appends the wire encoding of xs.
func appendElems(dst []byte, xs []Elem) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = appendElem(dst, x)
	}
	return dst
}

// elemReader walks the elements of one encoded vector without allocating.
type elemReader struct {
	b    []byte
	left int // elements not yet read
}

// readElems opens an encoded vector.  A count the remaining payload cannot
// hold — every element takes at least its length byte — is rejected here,
// before anyone sizes a buffer by it.
func readElems(b []byte) (elemReader, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return elemReader{}, fmt.Errorf("%w: bad count header", ErrMalformedVector)
	}
	b = b[k:]
	if n > uint64(len(b)) {
		return elemReader{}, fmt.Errorf("%w: header claims %d elements in %d bytes", ErrMalformedVector, n, len(b))
	}
	return elemReader{b: b, left: int(n)}, nil
}

// readElemsN opens an encoded vector whose length the protocol fixes.
func readElemsN(b []byte, want int) (elemReader, error) {
	r, err := readElems(b)
	if err == nil && r.left != want {
		err = fmt.Errorf("%w: %d elements, want %d", ErrMalformedVector, r.left, want)
	}
	return r, err
}

// next decodes the next element.
func (r *elemReader) next() (Elem, error) {
	if r.left <= 0 {
		return Elem{}, fmt.Errorf("%w: read past the last element", ErrMalformedVector)
	}
	l, k := binary.Uvarint(r.b)
	if k <= 0 || l > uint64(len(r.b)-k) {
		return Elem{}, fmt.Errorf("%w: truncated element", ErrMalformedVector)
	}
	if l > 32 {
		return Elem{}, fmt.Errorf("%w: %d-byte element", ErrMalformedVector, l)
	}
	x := limbsFromBytes(r.b[k : k+int(l)])
	if !x.isCanonical() {
		return Elem{}, fmt.Errorf("%w: element not below the modulus", ErrMalformedVector)
	}
	r.b = r.b[k+int(l):]
	r.left--
	return x, nil
}

// rest decodes every element not yet read.
func (r *elemReader) rest() ([]Elem, error) {
	out := make([]Elem, r.left)
	for i := range out {
		var err error
		if out[i], err = r.next(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseElems decodes a vector encoded by appendElems and returns the
// remaining bytes.
func parseElems(b []byte) ([]Elem, []byte, error) {
	r, err := readElems(b)
	if err != nil {
		return nil, nil, err
	}
	out, err := r.rest()
	if err != nil {
		return nil, nil, err
	}
	return out, r.b, nil
}

// parseElemsN is parseElems for a vector whose length the protocol fixes:
// nothing is allocated unless the header agrees.
func parseElemsN(b []byte, want int) ([]Elem, error) {
	r, err := readElemsN(b, want)
	if err != nil {
		return nil, err
	}
	return r.rest()
}
