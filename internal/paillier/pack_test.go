package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"
)

// randSlots returns n random non-negative values of at most slotW bits,
// mixing in the edge values 0 and 2^slotW - 1.
func randSlots(rng *mrand.Rand, n int, slotW uint) []*big.Int {
	max := new(big.Int).Lsh(one, slotW)
	out := make([]*big.Int, n)
	for i := range out {
		switch rng.Intn(8) {
		case 0:
			out[i] = new(big.Int)
		case 1:
			out[i] = new(big.Int).Sub(max, one)
		default:
			out[i] = new(big.Int).Rand(rng, max)
		}
	}
	return out
}

// TestPackUnpackRoundtrip is a property test across slot counts and widths,
// including the fixed-point encoding of negative values (offset into a
// non-negative slot, as the conversion protocols do).
func TestPackUnpackRoundtrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(42))
	iters := 200
	if testing.Short() {
		iters = 20
	}
	for it := 0; it < iters; it++ {
		slotW := uint(1 + rng.Intn(120))
		n := 1 + rng.Intn(12)
		vals := randSlots(rng, n, slotW)
		got := UnpackInts(PackInts(vals, slotW), slotW, n)
		for j := range vals {
			if got[j].Cmp(vals[j]) != 0 {
				t.Fatalf("slotW=%d n=%d slot %d: got %v want %v", slotW, n, j, got[j], vals[j])
			}
		}
	}
}

// TestPackUnpackNegativeFixedPoint checks the offset encoding used for
// signed fixed-point statistics: v + 2^(w-1) packs as an unsigned slot and
// unpacks back to v.
func TestPackUnpackNegativeFixedPoint(t *testing.T) {
	rng := mrand.New(mrand.NewSource(43))
	iters := 200
	if testing.Short() {
		iters = 20
	}
	for it := 0; it < iters; it++ {
		w := uint(2 + rng.Intn(90))
		n := 1 + rng.Intn(8)
		offset := new(big.Int).Lsh(one, w-1)
		signed := make([]*big.Int, n)
		slots := make([]*big.Int, n)
		for j := range signed {
			v := new(big.Int).Rand(rng, new(big.Int).Lsh(one, w-1))
			if rng.Intn(2) == 0 {
				v.Neg(v)
			}
			signed[j] = v
			slots[j] = new(big.Int).Add(v, offset)
		}
		got := UnpackInts(PackInts(slots, w), w, n)
		for j := range got {
			if v := new(big.Int).Sub(got[j], offset); v.Cmp(signed[j]) != 0 {
				t.Fatalf("w=%d slot %d: got %v want %v", w, j, v, signed[j])
			}
		}
	}
}

func TestPackIntsRejectsOutOfRange(t *testing.T) {
	for _, bad := range []*big.Int{big.NewInt(-1), big.NewInt(16)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PackInts accepted out-of-range slot %v", bad)
				}
			}()
			PackInts([]*big.Int{bad}, 4)
		}()
	}
}

// TestEncryptPackedRoundtrip: pack-encrypt-decrypt-unpack across level-1 and
// DJ plans, threshold and non-threshold.
func TestEncryptPackedRoundtrip(t *testing.T) {
	pk, sk, pks := testKeys(t, 3)
	rng := mrand.New(mrand.NewSource(44))
	for _, tc := range []struct {
		slotW uint
		count int
		level int
	}{
		{20, 17, 1},
		{101, 5, 1},
		{200, 6, 2}, // needs DJ: one 200-bit slot barely fits in Z_N
		{300, 4, 3}, // wider than Z_N entirely: only level 3 fits two slots
	} {
		plan := pk.PlanPack(tc.count, tc.slotW, MaxDJLevel)
		if plan.Level != tc.level {
			t.Fatalf("slotW=%d: plan chose level %d, want %d", tc.slotW, plan.Level, tc.level)
		}
		if plan.Level > 1 && plan.Slots < 2 {
			t.Fatalf("slotW=%d: DJ plan still unpacked (%d slots)", tc.slotW, plan.Slots)
		}
		vals := randSlots(rng, tc.count, tc.slotW)
		cts, err := pk.EncryptPackedVec(rand.Reader, vals, plan, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := plan.Groups(tc.count); len(cts) != want {
			t.Fatalf("got %d ciphertexts, want %d", len(cts), want)
		}
		dj := pk.DJ(plan.Level)
		// Non-threshold decrypt.
		totals := make([]*big.Int, len(cts))
		for i, ct := range cts {
			totals[i] = dj.Decrypt(sk, ct)
		}
		got, err := UnpackVec(totals, plan, tc.count)
		if err != nil {
			t.Fatal(err)
		}
		for j := range vals {
			if got[j].Cmp(vals[j]) != 0 {
				t.Fatalf("slotW=%d level=%d slot %d: got %v want %v", tc.slotW, plan.Level, j, got[j], vals[j])
			}
		}
		// Threshold decrypt with batch-combined shares.
		shareRows := make([][]*DecryptionShare, len(pks))
		for p, k := range pks {
			row, err := dj.PartialDecryptVec(k, cts, 2)
			if err != nil {
				t.Fatal(err)
			}
			shareRows[p] = row
		}
		totals2, err := dj.CombineSharesVec(shareRows, 2)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := UnpackVec(totals2, plan, tc.count)
		if err != nil {
			t.Fatal(err)
		}
		for j := range vals {
			if got2[j].Cmp(vals[j]) != 0 {
				t.Fatalf("threshold slotW=%d level=%d slot %d: got %v want %v", tc.slotW, plan.Level, j, got2[j], vals[j])
			}
		}
	}
}

// TestPackCiphertextsMatchesPlaintextPack: homomorphic shift-and-add over
// existing level-1 ciphertexts equals plaintext-side packing.
func TestPackCiphertextsMatchesPlaintextPack(t *testing.T) {
	pk, sk, _ := testKeys(t, 2)
	rng := mrand.New(mrand.NewSource(45))
	iters := 25
	if testing.Short() {
		iters = 5
	}
	for it := 0; it < iters; it++ {
		slotW := uint(8 + rng.Intn(60))
		max := pk.PackCapacity(slotW)
		if max < 2 {
			continue
		}
		n := 2 + rng.Intn(max-1)
		vals := randSlots(rng, n, slotW)
		cts := make([]*Ciphertext, n)
		for j, v := range vals {
			ct, err := pk.Encrypt(rand.Reader, v)
			if err != nil {
				t.Fatal(err)
			}
			cts[j] = ct
		}
		packed := pk.PackCiphertexts(cts, slotW)
		got := UnpackInts(sk.Decrypt(pk, packed), slotW, n)
		for j := range vals {
			if got[j].Cmp(vals[j]) != 0 {
				t.Fatalf("slotW=%d n=%d slot %d: got %v want %v", slotW, n, j, got[j], vals[j])
			}
		}
	}
}

// TestPackedHomomorphicEquivalence: AddVec/ScalarMulVec on packed slots give
// the same result as scalar ops on the individual slots, with headroom.
func TestPackedHomomorphicEquivalence(t *testing.T) {
	pk, sk, _ := testKeys(t, 2)
	rng := mrand.New(mrand.NewSource(46))
	for _, level := range []int{1, 2} {
		dj := pk.DJ(level)
		slotW := uint(40)
		plan := PackPlan{SlotW: slotW, Slots: int((uint(dj.NS.BitLen()) - 2) / slotW), Level: level}
		count := plan.Slots*2 + 1
		// Keep slot values 8 bits under the slot width: headroom for the sum
		// and the scalar multiple.
		as := randSlots(rng, count, slotW-8)
		bs := randSlots(rng, count, slotW-8)
		scalar := big.NewInt(int64(1 + rng.Intn(100)))
		actA, err := pk.EncryptPackedVec(rand.Reader, as, plan, 2)
		if err != nil {
			t.Fatal(err)
		}
		actB, err := pk.EncryptPackedVec(rand.Reader, bs, plan, 2)
		if err != nil {
			t.Fatal(err)
		}
		sums, err := dj.AddVec(actA, actB, 2)
		if err != nil {
			t.Fatal(err)
		}
		scaled := dj.ScalarMulVec(actA, scalar, 2)
		decode := func(cts []*Ciphertext) []*big.Int {
			totals := make([]*big.Int, len(cts))
			for i, ct := range cts {
				totals[i] = dj.Decrypt(sk, ct)
			}
			vals, err := UnpackVec(totals, plan, count)
			if err != nil {
				t.Fatal(err)
			}
			return vals
		}
		gotSum, gotScaled := decode(sums), decode(scaled)
		for j := 0; j < count; j++ {
			if want := new(big.Int).Add(as[j], bs[j]); gotSum[j].Cmp(want) != 0 {
				t.Fatalf("level %d AddVec slot %d: got %v want %v", level, j, gotSum[j], want)
			}
			if want := new(big.Int).Mul(as[j], scalar); gotScaled[j].Cmp(want) != 0 {
				t.Fatalf("level %d ScalarMulVec slot %d: got %v want %v", level, j, gotScaled[j], want)
			}
		}
	}
}

// TestDJHomomorphic exercises the level-s ops directly, including AddPlain,
// MulConst on signed values, and DotVec.
func TestDJHomomorphic(t *testing.T) {
	pk, sk, _ := testKeys(t, 2)
	for _, s := range []int{1, 2, 3} {
		dj := pk.DJ(s)
		x, y := big.NewInt(-123456789), big.NewInt(987654321)
		cx, err := dj.Encrypt(rand.Reader, x)
		if err != nil {
			t.Fatal(err)
		}
		cy, err := dj.Encrypt(rand.Reader, y)
		if err != nil {
			t.Fatal(err)
		}
		if got := dj.Decrypt(sk, dj.Add(cx, cy)); got.Int64() != x.Int64()+y.Int64() {
			t.Fatalf("s=%d add: got %v", s, got)
		}
		if got := dj.Decrypt(sk, dj.MulConst(cx, big.NewInt(-7))); got.Int64() != -7*x.Int64() {
			t.Fatalf("s=%d mulconst: got %v", s, got)
		}
		if got := dj.Decrypt(sk, dj.AddPlain(cx, big.NewInt(1000))); got.Int64() != x.Int64()+1000 {
			t.Fatalf("s=%d addplain: got %v", s, got)
		}
		dot, err := dj.DotVec([]*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(3)},
			[]*Ciphertext{cy, cx, cy})
		if err != nil {
			t.Fatal(err)
		}
		if got := dj.Decrypt(sk, dot); got.Int64() != x.Int64()+3*y.Int64() {
			t.Fatalf("s=%d dot: got %v", s, got)
		}
		// A plaintext spanning more than |N| bits, the point of s > 1.
		if s > 1 {
			wide := new(big.Int).Lsh(one, uint(pk.N.BitLen())+13)
			cw, err := dj.Encrypt(rand.Reader, wide)
			if err != nil {
				t.Fatal(err)
			}
			if got := dj.Decrypt(sk, cw); got.Cmp(wide) != 0 {
				t.Fatalf("s=%d wide plaintext: got %v want %v", s, got, wide)
			}
		}
	}
}

// TestUnpackVecRefusesOutOfRange: a total that is negative or reaches past
// its slots — what a wrong decryption share combines to — is an
// ErrPackedRange naming the group, where UnpackInts alone masks it into
// slot values that look honest.  The last group is held to its own, shorter
// length.
func TestUnpackVecRefusesOutOfRange(t *testing.T) {
	plan := PackPlan{SlotW: 8, Slots: 3, Level: 1}
	fit := new(big.Int).Sub(new(big.Int).Lsh(one, 24), one) // fills three slots exactly
	for _, tc := range []struct {
		name   string
		totals []*big.Int
		count  int
		want   *ErrPackedRange // nil: accepted
	}{
		{"exact fit", []*big.Int{fit, big.NewInt(0xffff)}, 5, nil},
		{"one bit over", []*big.Int{new(big.Int).Lsh(one, 24)}, 3, &ErrPackedRange{Group: 0, Bits: 25, Want: 24}},
		{"negative", []*big.Int{fit, big.NewInt(-5)}, 6, &ErrPackedRange{Group: 1, Bits: -3, Want: 24}},
		{"short last group", []*big.Int{fit, new(big.Int).Lsh(one, 16)}, 5, &ErrPackedRange{Group: 1, Bits: 17, Want: 16}},
	} {
		vals, err := UnpackVec(tc.totals, plan, tc.count)
		if tc.want == nil {
			if err != nil || len(vals) != tc.count {
				t.Errorf("%s: got %d values, %v", tc.name, len(vals), err)
			}
			continue
		}
		var got *ErrPackedRange
		if !errors.As(err, &got) || *got != *tc.want {
			t.Errorf("%s: got %v, want %+v", tc.name, err, *tc.want)
		}
	}
	// What the check replaces: the same total, masked.
	if v := UnpackInts(big.NewInt(-5), 8, 1)[0]; v.Int64() != 0xfb {
		t.Fatalf("UnpackInts(-5) = %v; the masking this test documents has changed", v)
	}
}

// FuzzUnpackVec: bytes → (slot width, slot count, signed total).  Inside
// [0, 2^(slots·width)) UnpackVec must invert PackInts; outside it must answer
// ErrPackedRange.  The committed corpus holds zero, an exact fit, one bit over
// and a negative total.
func FuzzUnpackVec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		plan := PackPlan{SlotW: uint(data[0]&0x3f) + 1, Slots: int(data[1]&0x0f) + 1, Level: 1}
		total := new(big.Int).SetBytes(data[2:])
		if data[1]&0x80 != 0 {
			total.Neg(total)
		}
		vals, err := UnpackVec([]*big.Int{total}, plan, plan.Slots)
		inRange := total.Sign() >= 0 && total.BitLen() <= plan.Slots*int(plan.SlotW)
		if !inRange {
			var bad *ErrPackedRange
			if !errors.As(err, &bad) || bad.Group != 0 || bad.Want != plan.Slots*int(plan.SlotW) {
				t.Fatalf("total %v over %d slots of %d bits: got %v, want ErrPackedRange", total, plan.Slots, plan.SlotW, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("total %v over %d slots of %d bits refused: %v", total, plan.Slots, plan.SlotW, err)
		}
		if back := PackInts(vals, plan.SlotW); back.Cmp(total) != 0 {
			t.Fatalf("round trip of %v over %d slots of %d bits gave %v", total, plan.Slots, plan.SlotW, back)
		}
	})
}
