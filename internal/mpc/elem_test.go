package mpc

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/transport"
)

// The math/big reference the limb arithmetic is checked against.  It lives
// here, not beside the engine: there is one arithmetic path in the package
// and this is its oracle.

func refMod(x *big.Int) *big.Int { return new(big.Int).Mod(x, Q) }

func refPow2(n uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), n) }

// rawElem builds limbs from an integer below 2^256 without reducing it.
func rawElem(x *big.Int) Elem {
	var buf [32]byte
	x.FillBytes(buf[:])
	return limbsFromBytes(buf[:])
}

// edgeInts are the canonical operands every property is tried on: the ends
// of the range, the values around the 2^255 ≡ 19 fold, and limb boundaries.
func edgeInts() []*big.Int {
	out := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(18), big.NewInt(19), big.NewInt(20), big.NewInt(37), big.NewInt(38), big.NewInt(39)}
	for d := int64(1); d <= 20; d++ { // Q−20 … Q−1; Q−1 is 2^255−20
		out = append(out, new(big.Int).Sub(Q, big.NewInt(d)))
	}
	for _, n := range []uint{63, 64, 65, 127, 128, 129, 191, 192, 193, 253, 254} {
		p := refPow2(n)
		out = append(out, p, new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Add(p, big.NewInt(1)))
	}
	out = append(out, new(big.Int).Rsh(Q, 1), new(big.Int).Add(new(big.Int).Rsh(Q, 1), big.NewInt(1)))
	return out
}

// testInts is edgeInts plus count random canonical values of every length.
func testInts(rng *rand.Rand, count int) []*big.Int {
	out := edgeInts()
	for i := 0; i < count; i++ {
		x := new(big.Int).Rand(rng, refPow2(uint(1+rng.Intn(256))))
		out = append(out, refMod(x))
	}
	return out
}

func wantElem(t *testing.T, op string, got Elem, want *big.Int, operands ...any) {
	t.Helper()
	if !got.isCanonical() {
		t.Fatalf("%s%v: result %x is not canonical", op, operands, got)
	}
	if got.Big().Cmp(want) != 0 {
		t.Fatalf("%s%v = %v, want %v", op, operands, got.Big(), want)
	}
}

func TestElemConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, x := range testInts(rng, 2000) {
		e := ElemFromBig(x)
		wantElem(t, "ElemFromBig", e, x, x)
		if e != rawElem(x) {
			t.Fatalf("ElemFromBig(%v) limbs %x, want %x", x, e, rawElem(x))
		}
		wantElem(t, "ElemFromBig(-)", ElemFromBig(new(big.Int).Neg(x)), refMod(new(big.Int).Neg(x)), x)
		if e.bitLen() != x.BitLen() {
			t.Fatalf("bitLen(%v) = %d, want %d", x, e.bitLen(), x.BitLen())
		}
		if e.IsZero() != (x.Sign() == 0) {
			t.Fatalf("IsZero(%v) = %v", x, e.IsZero())
		}
		for i := -1; i <= 256; i++ {
			want := uint(0)
			if i >= 0 {
				want = x.Bit(i)
			}
			if e.Bit(i) != want {
				t.Fatalf("Bit(%v, %d) = %d, want %d", x, i, e.Bit(i), want)
			}
		}
	}
	// Values outside [0, Q): the non-canonical 255- and 256-bit integers and
	// integers wider than the field reduce like ToField.
	wide := []*big.Int{Q, new(big.Int).Add(Q, big.NewInt(1)), new(big.Int).Add(Q, big.NewInt(18)),
		new(big.Int).Sub(refPow2(255), big.NewInt(1)), refPow2(255), new(big.Int).Sub(refPow2(256), big.NewInt(1)),
		refPow2(256), new(big.Int).Mul(Q, Q), new(big.Int).Lsh(Q, 300)}
	for i := 0; i < 200; i++ {
		wide = append(wide, new(big.Int).Rand(rng, refPow2(uint(256+rng.Intn(600)))))
	}
	for _, x := range wide {
		wantElem(t, "ElemFromBig", ElemFromBig(x), ToField(x), x)
		neg := new(big.Int).Neg(x)
		wantElem(t, "ElemFromBig", ElemFromBig(neg), ToField(neg), neg)
	}
	for _, c := range []int64{0, 1, -1, 19, -19, 1 << 40, -(1 << 40), 1<<63 - 1, -(1<<63 - 1), -1 << 63} {
		wantElem(t, "elemFromInt64", elemFromInt64(c), refMod(big.NewInt(c)), c)
	}
	all := Elem{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	for _, x := range []Elem{all, rawElem(Q), rawElem(refPow2(255)), {q0, q1, q1, q3}} {
		if x.isCanonical() {
			t.Errorf("isCanonical(%x) = true", x)
		}
	}
}

func TestElemArithmeticMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := testInts(rng, 150)
	for _, x := range xs {
		a := ElemFromBig(x)
		wantElem(t, "Neg", a.Neg(), refMod(new(big.Int).Neg(x)), x)
		wantElem(t, "half·2", a.half().Add(a.half()), x, x)
		for n := uint(0); n < 256; n++ {
			wantElem(t, "Lsh", a.Lsh(n), refMod(new(big.Int).Lsh(x, n)), x, n)
		}
		for _, y := range xs {
			b := ElemFromBig(y)
			wantElem(t, "Add", a.Add(b), refMod(new(big.Int).Add(x, y)), x, y)
			wantElem(t, "Sub", a.Sub(b), refMod(new(big.Int).Sub(x, y)), x, y)
			wantElem(t, "Mul", a.Mul(b), refMod(new(big.Int).Mul(x, y)), x, y)
		}
	}
	for m := uint(0); m < 256; m++ {
		wantElem(t, "invPow2·2^m", invPow2(m).Lsh(m), big.NewInt(1), m)
	}
}

func TestReduce512MatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(t8 [8]uint64) {
		t.Helper()
		x := new(big.Int)
		for i := 7; i >= 0; i-- {
			x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(t8[i]))
		}
		wantElem(t, "reduce512", reduce512(t8), refMod(x), x)
	}
	ones := ^uint64(0)
	check([8]uint64{})
	check([8]uint64{ones, ones, ones, ones, ones, ones, ones, ones})
	check([8]uint64{q0, q1, q1, q3})
	check([8]uint64{q0 - 1, q1, q1, q3})
	check([8]uint64{ones, ones, ones, ones})
	check([8]uint64{0, 0, 0, 0, ones, ones, ones, ones})
	check([8]uint64{0, 0, 0, 1 << 63})
	for i := 0; i < 8; i++ {
		var t8 [8]uint64
		t8[i] = ones
		check(t8)
		t8[i] = 1
		check(t8)
	}
	for i := 0; i < 20000; i++ {
		var t8 [8]uint64
		for j := range t8 {
			switch rng.Intn(4) {
			case 0:
				t8[j] = ones
			case 1:
				t8[j] = 0
			default:
				t8[j] = rng.Uint64()
			}
		}
		check(t8)
	}
}

func TestElemSlotMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, x := range testInts(rng, 100) {
		a := ElemFromBig(x)
		for i := 0; i < 300; i++ {
			off, width := uint(rng.Intn(260)), uint(rng.Intn(260))
			if i < 130 { // the widths packing uses: several slots per element
				width = uint(1 + i)
				off = width * uint(rng.Intn(int(254/width)+1))
			}
			want := new(big.Int).Rsh(x, off)
			want.Mod(want, refPow2(width))
			wantElem(t, "slot", a.slot(off, width), want, x, off, width)
		}
	}
	// A Horner pack splits back into its slots.
	for _, width := range []uint{1, 42, 43, 64, 82, 100, 127} {
		slots := packCapacity(width)
		vals := make([]Elem, slots)
		var acc Elem
		for j := slots - 1; j >= 0; j-- {
			vals[j] = ElemFromBig(new(big.Int).Rand(rng, refPow2(width)))
			acc = acc.Lsh(width).Add(vals[j])
		}
		for j, v := range vals {
			if got := acc.slot(width*uint(j), width); got != v {
				t.Fatalf("width %d slot %d = %x, want %x", width, j, got, v)
			}
		}
	}
}

// TestPRGDrawsMatchBig pins contract 1 at the unit level: fieldElem and
// intnBytes consume the stream in the documented amounts and produce the
// integers the big.Int formulas produce.
func TestPRGDrawsMatchBig(t *testing.T) {
	g, ref := newPRG([]byte("draws")), newPRG([]byte("draws"))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		switch rng.Intn(3) {
		case 0:
			want := new(big.Int).SetBytes(ref.read(64))
			wantElem(t, "fieldElem", g.fieldElem(), want.Mod(want, Q))
		case 1:
			bits := uint(1 + rng.Intn(700))
			nbytes := int(bits+7) / 8
			want := new(big.Int).SetBytes(ref.read(nbytes))
			want.Rsh(want, uint(nbytes*8)-bits)
			got := g.intnBytes(bits)
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("intnBytes(%d) = %x, want %x", bits, got, want.Bytes())
			}
		case 2:
			if got, want := g.bit(), uint(ref.read(1)[0]&1); got != want {
				t.Fatalf("bit = %d, want %d", got, want)
			}
		}
		if i%500 == 0 { // a checkpointed cursor resumes the same stream
			g = prgFromState(g.state())
		}
	}
	if gs, rs := g.state(), ref.state(); gs.Ctr != rs.Ctr || !bytes.Equal(gs.Buf, rs.Buf) {
		t.Fatalf("cursors diverged: ctr %d/%d, %d/%d buffered bytes", gs.Ctr, rs.Ctr, len(gs.Buf), len(rs.Buf))
	}
}

// TestElemWireMatchesMarshalInts pins contract 2 at the unit level: the limb
// encoder writes the bytes transport.MarshalInts writes, and the decoder
// inverts it.
func TestElemWireMatchesMarshalInts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, count := range []int{0, 1, 2, 127, 128, 300} {
		var ints []*big.Int
		if count > 0 {
			ints = testInts(rng, count)
		}
		elems := make([]Elem, len(ints))
		for i, x := range ints {
			elems[i] = ElemFromBig(x)
		}
		enc := appendElems(nil, elems)
		if want := transport.MarshalInts(ints); !bytes.Equal(enc, want) {
			t.Fatalf("%d elements: appendElems and MarshalInts disagree", len(ints))
		}
		got, rest, err := parseElems(append(enc, 0xAB))
		if err != nil || len(rest) != 1 || rest[0] != 0xAB {
			t.Fatalf("parseElems: err %v, rest %x", err, rest)
		}
		for i := range elems {
			if got[i] != elems[i] {
				t.Fatalf("element %d: round trip %x, want %x", i, got[i], elems[i])
			}
		}
		if _, err := parseElemsN(enc, len(elems)+1); !errors.Is(err, ErrMalformedVector) {
			t.Fatalf("parseElemsN with the wrong count: %v", err)
		}
	}
}

// malformedVectors are encodings parseElems must refuse; wellFormedVectors
// ones it must accept.  Both are also the committed fuzz seed corpus
// (testdata/fuzz/FuzzParseElems).
func malformedVectors() map[string][]byte {
	qBytes := Q.Bytes()
	return map[string][]byte{
		"empty":              {},
		"bad-count-varint":   {0x80},
		"count-over-payload": {0x05, 0x01, 0x07},
		"huge-count":         {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00},
		"33-byte-element":    append([]byte{0x01, 33}, bytes.Repeat([]byte{0x01}, 33)...),
		"element-equals-q":   append([]byte{0x01, 32}, qBytes...),
		"element-all-ones":   append([]byte{0x01, 32}, bytes.Repeat([]byte{0xff}, 32)...),
		"truncated-element":  {0x01, 0x04, 0x01, 0x02},
		"truncated-length":   {0x02, 0x01, 0x07, 0x80},
		"huge-length":        {0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"missing-element":    {0x02, 0x01, 0x07},
	}
}

func wellFormedVectors() map[string][]byte {
	return map[string][]byte{
		"no-elements":     {0x00},
		"zero":            {0x01, 0x00},
		"q-minus-one":     append([]byte{0x01, 32}, new(big.Int).Sub(Q, big.NewInt(1)).Bytes()...),
		"padded-zero":     {0x01, 0x02, 0x00, 0x00}, // non-minimal but in range
		"trailing-bytes":  {0x01, 0x01, 0x07, 0xAA, 0xBB},
		"three-small":     {0x03, 0x01, 0x01, 0x00, 0x02, 0x01, 0x00},
		"two-byte-length": {0x01, 0x81, 0x00, 0x07}, // length 1 as a padded varint
	}
}

func TestParseElemsRejectsMalformed(t *testing.T) {
	for name, b := range malformedVectors() {
		if _, _, err := parseElems(b); !errors.Is(err, ErrMalformedVector) {
			t.Errorf("%s: parseElems(%x) error = %v, want ErrMalformedVector", name, b, err)
		}
	}
	for name, b := range wellFormedVectors() {
		if _, _, err := parseElems(b); err != nil {
			t.Errorf("%s: parseElems(%x): %v", name, b, err)
		}
	}
	// A hostile count must be refused before it sizes anything: the refusal
	// allocates its error and nothing that scales with the count.  (Bytes,
	// not allocations: the race detector's build boxes more values on the
	// error path, and a slice sized from the header is one allocation.)
	huge := malformedVectors()["huge-count"]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		_, _ = readElems(huge)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<14 {
		t.Errorf("rejecting a huge count ten times allocated %d bytes", d)
	}
}

// FuzzParseElems: the decoder never panics; what it accepts is canonical,
// re-encodes to something it accepts as the same vector, and is what the
// general integer decoder reads from the same bytes.
func FuzzParseElems(f *testing.F) {
	for _, b := range malformedVectors() {
		f.Add(b)
	}
	for _, b := range wellFormedVectors() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		xs, rest, err := parseElems(b)
		if err != nil {
			if !errors.Is(err, ErrMalformedVector) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		ints, irest, err := transport.UnmarshalInts(b)
		if err != nil || len(ints) != len(xs) || !bytes.Equal(rest, irest) {
			t.Fatalf("UnmarshalInts disagrees: err %v, %d vs %d values", err, len(ints), len(xs))
		}
		for i, x := range xs {
			if !x.isCanonical() || x.Big().Cmp(ints[i]) != 0 {
				t.Fatalf("element %d = %x, integer decoder read %v", i, x, ints[i])
			}
		}
		again, _, err := parseElems(appendElems(nil, xs))
		if err != nil || len(again) != len(xs) {
			t.Fatalf("re-encoding does not parse: %v", err)
		}
		for i := range xs {
			if again[i] != xs[i] {
				t.Fatalf("element %d changed across a round trip", i)
			}
		}
	})
}

var (
	sinkElem Elem
	sinkBool bool
	sinkUint uint
)

// TestElemOpsDoNotAllocate is the first allocation gate: every field
// operation, the fold, and the per-element encoder and decoder are free of
// heap allocations.
func TestElemOpsDoNotAllocate(t *testing.T) {
	a := ElemFromBig(new(big.Int).Sub(Q, big.NewInt(5)))
	b := ElemFromBig(new(big.Int).Lsh(big.NewInt(0x1234567), 200))
	wide := [8]uint64{1, 2, 3, 4, 5, 6, 7, ^uint64(0)}
	buf := make([]byte, 0, 64)
	enc := appendElems(nil, []Elem{a, b})
	g := newPRG([]byte("allocs"))
	g.fieldElem() // size the PRG's buffer
	x := big.NewInt(-77)
	ops := map[string]func(){
		"Add":         func() { sinkElem = a.Add(b) },
		"Sub":         func() { sinkElem = b.Sub(a) },
		"Neg":         func() { sinkElem = a.Neg() },
		"Mul":         func() { sinkElem = a.Mul(b) },
		"Lsh":         func() { sinkElem = a.Lsh(77) },
		"half":        func() { sinkElem = a.half() },
		"invPow2":     func() { sinkElem = invPow2(16) },
		"reduce512":   func() { sinkElem = reduce512(wide) },
		"slot":        func() { sinkElem = a.slot(82, 82) },
		"Bit":         func() { sinkUint = a.Bit(200) },
		"IsZero":      func() { sinkBool = a.IsZero() },
		"ElemFromBig": func() { sinkElem = ElemFromBig(x) },
		"fieldElem":   func() { sinkElem = g.fieldElem() },
		"appendElem":  func() { buf = appendElem(buf[:0], a) },
		"next": func() {
			r, _ := readElems(enc)
			sinkElem, _ = r.next()
			sinkElem, _ = r.next()
		},
	}
	for name, op := range ops {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}
