package mpc

import (
	"fmt"
	"math"
	"math/big"
	"sync"
	"testing"

	"repro/internal/transport"
)

// runParties spins up n compute parties plus a dealer on an in-memory
// network and runs body as each party.  It fails the test on any error.
func runParties(t *testing.T, n int, cfg Config, body func(e *Engine) error) {
	t.Helper()
	eps := NewTestNetwork(n)
	dcfg := DealerConfig{Seed: 7, Authenticated: cfg.Authenticated}
	var wg sync.WaitGroup
	errs := make(chan error, n+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunDealer(eps[n], dcfg); err != nil {
			errs <- fmt.Errorf("dealer: %w", err)
		}
	}()
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			e, err := NewEngine(eps[p], cfg)
			if err != nil {
				errs <- err
				return
			}
			// A failing party still releases the dealer, so the run ends.
			defer e.Shutdown()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("party %d panic: %v", p, r)
				}
			}()
			if err := body(e); err != nil {
				errs <- fmt.Errorf("party %d: %w", p, err)
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// NewTestNetwork builds an in-memory network with a dealer slot.
func NewTestNetwork(n int) []transport.Endpoint {
	return transport.NewMemoryNetwork(n+1, 4096)
}

func TestConstOpen(t *testing.T) {
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		for _, v := range []int64{0, 1, -1, 123456, -99} {
			got := e.OpenSigned(e.ConstInt64(v))
			if got.Int64() != v {
				return fmt.Errorf("open(const %d) = %v", v, got)
			}
		}
		return nil
	})
}

func TestLinearAlgebra(t *testing.T) {
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		x := e.ConstInt64(17)
		y := e.ConstInt64(-5)
		if got := e.OpenSigned(e.Add(x, y)); got.Int64() != 12 {
			return fmt.Errorf("add: %v", got)
		}
		if got := e.OpenSigned(e.Sub(x, y)); got.Int64() != 22 {
			return fmt.Errorf("sub: %v", got)
		}
		if got := e.OpenSigned(e.Neg(x)); got.Int64() != -17 {
			return fmt.Errorf("neg: %v", got)
		}
		if got := e.OpenSigned(e.AddConst(x, big.NewInt(3))); got.Int64() != 20 {
			return fmt.Errorf("addconst: %v", got)
		}
		if got := e.OpenSigned(e.MulPub(y, big.NewInt(-4))); got.Int64() != 20 {
			return fmt.Errorf("mulpub: %v", got)
		}
		return nil
	})
}

func TestInput(t *testing.T) {
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		var xs []*big.Int
		if e.PartyID() == 1 {
			xs = []*big.Int{big.NewInt(42), big.NewInt(-7)}
		} else {
			xs = []*big.Int{nil, nil}
		}
		sh := e.InputVec(1, xs)
		if got := e.OpenSigned(sh[0]); got.Int64() != 42 {
			return fmt.Errorf("input[0] = %v", got)
		}
		if got := e.OpenSigned(sh[1]); got.Int64() != -7 {
			return fmt.Errorf("input[1] = %v", got)
		}
		return nil
	})
}

func TestMul(t *testing.T) {
	cases := [][2]int64{{3, 4}, {-3, 4}, {0, 99}, {-7, -8}, {1 << 30, 1 << 20}}
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		for _, c := range cases {
			z := e.Mul(e.ConstInt64(c[0]), e.ConstInt64(c[1]))
			if got := e.OpenSigned(z); got.Int64() != c[0]*c[1] {
				return fmt.Errorf("mul(%d,%d) = %v", c[0], c[1], got)
			}
		}
		return nil
	})
}

func TestMulVecBatch(t *testing.T) {
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		const n = 100
		xs := make([]Share, n)
		ys := make([]Share, n)
		for i := range xs {
			xs[i] = e.ConstInt64(int64(i - 50))
			ys[i] = e.ConstInt64(int64(2*i + 1))
		}
		zs := e.MulVec(xs, ys)
		for i, z := range zs {
			want := int64(i-50) * int64(2*i+1)
			if got := e.OpenSigned(z); got.Int64() != want {
				return fmt.Errorf("idx %d: got %v want %d", i, got, want)
			}
		}
		return nil
	})
}

func TestSelect(t *testing.T) {
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		a, b := e.ConstInt64(111), e.ConstInt64(222)
		if got := e.OpenSigned(e.Select(e.ConstInt64(1), a, b)); got.Int64() != 111 {
			return fmt.Errorf("select(1): %v", got)
		}
		if got := e.OpenSigned(e.Select(e.ConstInt64(0), a, b)); got.Int64() != 222 {
			return fmt.Errorf("select(0): %v", got)
		}
		return nil
	})
}

func TestMod2mTrunc(t *testing.T) {
	vals := []int64{0, 1, 5, 255, 256, 1000, -1, -5, -255, -1000, 123456, -123456}
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		shares := make([]Share, len(vals))
		for i, v := range vals {
			shares[i] = e.ConstInt64(v)
		}
		mods := e.Mod2mVec(shares, 32, 8)
		for i, v := range vals {
			want := ((v % 256) + 256) % 256
			if got := e.OpenSigned(mods[i]); got.Int64() != want {
				return fmt.Errorf("mod2m(%d) = %v, want %d", v, got, want)
			}
		}
		truncs := e.TruncVec(shares, 32, 8)
		for i, v := range vals {
			want := int64(math.Floor(float64(v) / 256.0))
			if got := e.OpenSigned(truncs[i]); got.Int64() != want {
				return fmt.Errorf("trunc(%d) = %v, want %d", v, got, want)
			}
		}
		return nil
	})
}

func TestComparisons(t *testing.T) {
	pairs := [][2]int64{{0, 0}, {1, 2}, {2, 1}, {-5, 3}, {3, -5}, {-10, -2}, {-2, -10}, {1 << 20, 1<<20 + 1}}
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		for _, p := range pairs {
			x, y := e.ConstInt64(p[0]), e.ConstInt64(p[1])
			wantLT := int64(0)
			if p[0] < p[1] {
				wantLT = 1
			}
			if got := e.OpenSigned(e.LT(x, y, 32)); got.Int64() != wantLT {
				return fmt.Errorf("LT(%d,%d) = %v", p[0], p[1], got)
			}
			wantLE := int64(0)
			if p[0] <= p[1] {
				wantLE = 1
			}
			if got := e.OpenSigned(e.LE(x, y, 32)); got.Int64() != wantLE {
				return fmt.Errorf("LE(%d,%d) = %v", p[0], p[1], got)
			}
		}
		return nil
	})
}

func TestLTZ(t *testing.T) {
	vals := []int64{0, 1, -1, 100, -100, 65535, -65536}
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		shares := make([]Share, len(vals))
		for i, v := range vals {
			shares[i] = e.ConstInt64(v)
		}
		got := e.LTZVec(shares, 32)
		for i, v := range vals {
			want := int64(0)
			if v < 0 {
				want = 1
			}
			if g := e.OpenSigned(got[i]); g.Int64() != want {
				return fmt.Errorf("LTZ(%d) = %v", v, g)
			}
		}
		return nil
	})
}

func TestEQZ(t *testing.T) {
	vals := []int64{0, 1, -1, 7, -7, 1 << 20}
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		shares := make([]Share, len(vals))
		for i, v := range vals {
			shares[i] = e.ConstInt64(v)
		}
		got := e.EQZVec(shares, 32)
		for i, v := range vals {
			want := int64(0)
			if v == 0 {
				want = 1
			}
			if g := e.OpenSigned(got[i]); g.Int64() != want {
				return fmt.Errorf("EQZ(%d) = %v", v, g)
			}
		}
		if g := e.OpenSigned(e.EQPub(e.ConstInt64(5), big.NewInt(5), 16)); g.Int64() != 1 {
			return fmt.Errorf("EQPub(5,5) = %v", g)
		}
		if g := e.OpenSigned(e.EQPub(e.ConstInt64(5), big.NewInt(6), 16)); g.Int64() != 0 {
			return fmt.Errorf("EQPub(5,6) = %v", g)
		}
		return nil
	})
}

func TestEQZVecGroupedMixedWidths(t *testing.T) {
	// Instances of different widths in one call: the grouped ladder must
	// agree with per-width EQZVec on every element while spending the
	// rounds of a single chain.
	vals := []int64{0, 1, -3, 0, 5, -1, 0, 1 << 12, -(1 << 12), 0}
	ks := []uint{5, 5, 8, 8, 8, 13, 13, 15, 15, 24}
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		shares := make([]Share, len(vals))
		for i, v := range vals {
			shares[i] = e.ConstInt64(v)
		}
		before := e.Stats.Rounds
		got := e.EQZVecGrouped(shares, ks)
		grouped := e.Stats.Rounds - before
		for i, v := range vals {
			want := int64(0)
			if v == 0 {
				want = 1
			}
			if g := e.OpenSigned(got[i]); g.Int64() != want {
				return fmt.Errorf("grouped EQZ(%d, k=%d) = %v", v, ks[i], g)
			}
		}
		// The scalar reference, one EQZ per element at its own width.
		before = e.Stats.Rounds
		for i, v := range vals {
			ref := e.EQZ(shares[i], ks[i])
			want := int64(0)
			if v == 0 {
				want = 1
			}
			if g := e.OpenSigned(ref); g.Int64() != want {
				return fmt.Errorf("scalar EQZ(%d, k=%d) = %v", v, ks[i], g)
			}
		}
		// Opens after each scalar EQZ count too; subtract them (one per
		// element) to compare ladder rounds alone.
		scalar := e.Stats.Rounds - before - int64(len(vals))
		if grouped*2 > scalar {
			return fmt.Errorf("grouped ladder spent %d rounds vs %d sequential", grouped, scalar)
		}
		return nil
	})
}

func TestBitDec(t *testing.T) {
	vals := []int64{0, 1, 2, 3, 0xdeadbeef, 12345}
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		shares := make([]Share, len(vals))
		for i, v := range vals {
			shares[i] = e.ConstInt64(v)
		}
		bits := e.BitDecVec(shares, 40)
		for i, v := range vals {
			var rec int64
			for j := 39; j >= 0; j-- {
				b := e.OpenSigned(bits[i][j]).Int64()
				if b != 0 && b != 1 {
					return fmt.Errorf("bitdec(%d) bit %d = %d", v, j, b)
				}
				rec = rec<<1 | b
			}
			if rec != v {
				return fmt.Errorf("bitdec(%d) reconstructed %d", v, rec)
			}
		}
		return nil
	})
}

func TestFPDiv(t *testing.T) {
	type pair struct{ a, b int64 }
	cases := []pair{{1, 2}, {1, 3}, {7, 7}, {100, 3}, {1, 1000}, {50000, 7}, {3, 100000}, {0, 5}}
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		as := make([]Share, len(cases))
		bs := make([]Share, len(cases))
		for i, c := range cases {
			as[i] = e.ConstInt64(c.a)
			bs[i] = e.ConstInt64(c.b)
		}
		qs := e.FPDivVec(as, bs, 24)
		for i, c := range cases {
			got := e.DecodeSigned(e.Open(qs[i]))
			want := float64(c.a) / float64(c.b)
			if math.Abs(got-want) > math.Max(1e-3, want*1e-3) {
				return fmt.Errorf("FPDiv(%d/%d) = %v, want %v", c.a, c.b, got, want)
			}
		}
		return nil
	})
}

func TestFPDivByZeroYieldsZero(t *testing.T) {
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		q := e.FPDiv(e.ConstInt64(5), e.ConstInt64(0), 16)
		if got := e.OpenSigned(q); got.Sign() != 0 {
			return fmt.Errorf("x/0 = %v, want 0", got)
		}
		return nil
	})
}

func TestRecip(t *testing.T) {
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		bs := []Share{e.ConstInt64(4), e.ConstInt64(10), e.ConstInt64(12345)}
		rs := e.RecipVec(bs, 24)
		for i, want := range []float64{0.25, 0.1, 1.0 / 12345} {
			got := e.DecodeSigned(e.Open(rs[i]))
			if math.Abs(got-want) > 1e-3 {
				return fmt.Errorf("recip[%d] = %v, want %v", i, got, want)
			}
		}
		return nil
	})
}

func TestFPMul(t *testing.T) {
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		x := e.Const(e.EncodeConst(3.5))
		y := e.Const(e.EncodeConst(-2.25))
		z := e.FPMul(x, y, 48)
		got := e.DecodeSigned(e.Open(z))
		if math.Abs(got-(-7.875)) > 1e-3 {
			return fmt.Errorf("fpmul = %v", got)
		}
		return nil
	})
}

func TestExp(t *testing.T) {
	inputs := []float64{0, 1, -1, 2.5, -3, 5, -10}
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		xs := make([]Share, len(inputs))
		for i, v := range inputs {
			xs[i] = e.Const(e.EncodeConst(v))
		}
		es := e.ExpVec(xs, 24)
		for i, v := range inputs {
			got := e.DecodeSigned(e.Open(es[i]))
			want := math.Exp(v)
			if math.Abs(got-want) > math.Max(2e-3, want*5e-3) {
				return fmt.Errorf("exp(%v) = %v, want %v", v, got, want)
			}
		}
		return nil
	})
}

func TestLn(t *testing.T) {
	inputs := []float64{1.0, 0.5, 0.25, 0.9, 0.1, 0.01}
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		xs := make([]Share, len(inputs))
		for i, v := range inputs {
			xs[i] = e.Const(e.EncodeConst(v))
		}
		ls := e.LnVec(xs)
		for i, v := range inputs {
			got := e.DecodeSigned(e.Open(ls[i]))
			want := math.Log(v)
			if math.Abs(got-want) > 5e-3 {
				return fmt.Errorf("ln(%v) = %v, want %v", v, got, want)
			}
		}
		return nil
	})
}

func TestSoftmax(t *testing.T) {
	logits := []float64{1.0, 2.0, 0.5, -1.0}
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		xs := make([]Share, len(logits))
		for i, v := range logits {
			xs[i] = e.Const(e.EncodeConst(v))
		}
		ps := e.SoftmaxVec(xs, 24)
		var sumExp float64
		for _, v := range logits {
			sumExp += math.Exp(v)
		}
		var total float64
		for i, v := range logits {
			got := e.DecodeSigned(e.Open(ps[i]))
			want := math.Exp(v) / sumExp
			if math.Abs(got-want) > 5e-3 {
				return fmt.Errorf("softmax[%d] = %v, want %v", i, got, want)
			}
			total += got
		}
		if math.Abs(total-1.0) > 1e-2 {
			return fmt.Errorf("softmax sums to %v", total)
		}
		return nil
	})
}

func TestArgmaxLinear(t *testing.T) {
	vals := []int64{3, 9, -2, 9, 7} // first maximal element wins ties per LT semantics
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		shares := make([]Share, len(vals))
		ids := make([][]int64, len(vals))
		for i, v := range vals {
			shares[i] = e.ConstInt64(v)
			ids[i] = []int64{int64(i), int64(i * 10)}
		}
		r := e.ArgmaxLinear(shares, ids, 32)
		if got := e.OpenSigned(r.Max); got.Int64() != 9 {
			return fmt.Errorf("max = %v", got)
		}
		if got := e.OpenSigned(r.IDs[0]); got.Int64() != 1 {
			return fmt.Errorf("idx = %v, want 1", got)
		}
		if got := e.OpenSigned(r.IDs[1]); got.Int64() != 10 {
			return fmt.Errorf("idcol2 = %v, want 10", got)
		}
		return nil
	})
}

func TestArgmaxTournament(t *testing.T) {
	vals := []int64{-5, 0, 12, 3, 12, -1, 4}
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		shares := make([]Share, len(vals))
		ids := make([][]int64, len(vals))
		for i, v := range vals {
			shares[i] = e.ConstInt64(v)
			ids[i] = []int64{int64(i)}
		}
		r := e.ArgmaxTournament(shares, ids, 32)
		if got := e.OpenSigned(r.Max); got.Int64() != 12 {
			return fmt.Errorf("max = %v", got)
		}
		idx := e.OpenSigned(r.IDs[0]).Int64()
		if idx != 2 && idx != 4 {
			return fmt.Errorf("idx = %v, want 2 or 4", idx)
		}
		return nil
	})
}

func TestRandUniformFPInRange(t *testing.T) {
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		us := e.RandUniformFP(20)
		for i, u := range us {
			v := e.DecodeSigned(e.Open(u))
			if v < 0 || v >= 1 {
				return fmt.Errorf("uniform[%d] = %v out of [0,1)", i, v)
			}
		}
		return nil
	})
}

func TestAuthenticatedHonestRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Authenticated = true
	runParties(t, 3, cfg, func(e *Engine) error {
		x := e.Input(0, big.NewInt(21))
		y := e.Input(1, big.NewInt(2))
		z := e.Mul(x, y)
		if got := e.OpenSigned(z); got.Int64() != 42 {
			return fmt.Errorf("authenticated mul = %v", got)
		}
		lt := e.LT(x, y, 16)
		if got := e.OpenSigned(lt); got.Int64() != 0 {
			return fmt.Errorf("authenticated LT = %v", got)
		}
		return e.CheckMACs()
	})
}

// TestAuthenticatedDetectsTampering has party 2 shift its share of one
// value before an opening — a plain one, a packed OpenVecBounded one (inside
// a slot, and by 2^width so it carries into the next slot), a MulVecBounded
// Beaver difference, which rides a packed opening too, and one in each group
// of a grouped multiply whose two groups pack at different widths in one
// opening.  The MAC check must fail for each, and pass on the same script run
// honestly.
func TestAuthenticatedDetectsTampering(t *testing.T) {
	const width = 8
	small := func(e *Engine) []Share {
		vals := make([]*big.Int, 5)
		for i := range vals {
			vals[i] = big.NewInt(int64(3*i + 1))
		}
		return e.InputVec(0, vals)
	}
	for _, tc := range []struct {
		name string
		run  func(e *Engine, tamper func(*Share, Elem))
	}{
		{"Open", func(e *Engine, tamper func(*Share, Elem)) {
			x := e.Input(0, big.NewInt(5))
			tamper(&x, Elem{1})
			e.Open(x)
		}},
		{"OpenVecBounded", func(e *Engine, tamper func(*Share, Elem)) {
			xs := small(e)
			tamper(&xs[2], Elem{1})
			e.OpenVecBounded(xs, width)
		}},
		{"OpenVecBounded slot carry", func(e *Engine, tamper func(*Share, Elem)) {
			xs := small(e)
			tamper(&xs[0], Elem{1}.Lsh(width))
			e.OpenVecBounded(xs, width)
		}},
		{"MulVecBounded", func(e *Engine, tamper func(*Share, Elem)) {
			bits := e.InputVec(1, []*big.Int{big.NewInt(1), big.NewInt(0), big.NewInt(1), big.NewInt(1)})
			tamper(&bits[1], Elem{1})
			e.MulVecBounded(bits, bits, 1, 1)
		}},
		{"grouped multiply, bit group", func(e *Engine, tamper func(*Share, Elem)) {
			bits, wide := twoWidthGroups(e)
			tamper(&bits.xs[2], Elem{1})
			e.mulVecGrouped([]mulGroup{bits, wide})
		}},
		{"grouped multiply, wide group", func(e *Engine, tamper func(*Share, Elem)) {
			bits, wide := twoWidthGroups(e)
			tamper(&wide.ys[1], Elem{1})
			e.mulVecGrouped([]mulGroup{bits, wide})
		}},
	} {
		for _, malicious := range []bool{false, true} {
			results := runAuthenticated(t, func(e *Engine) error {
				tc.run(e, func(x *Share, d Elem) {
					if malicious && e.PartyID() == 2 {
						x.V = x.V.Add(d)
					}
				})
				return e.CheckMACs()
			})
			detected := false
			for _, err := range results {
				detected = detected || err != nil
			}
			if detected != malicious {
				t.Errorf("%s (tampered %v): MAC check failures %v", tc.name, malicious, results)
			}
		}
	}
}

// twoWidthGroups returns the two groups of a grouped multiply that open at
// different slot widths: bit products, and bits times 30-bit values.
func twoWidthGroups(e *Engine) (bits, wide mulGroup) {
	bv := []*big.Int{big.NewInt(1), big.NewInt(0), big.NewInt(1), big.NewInt(1)}
	wv := []*big.Int{big.NewInt(1 << 29), big.NewInt(12345), big.NewInt(0), big.NewInt(1<<30 - 1)}
	bs, ws := e.InputVec(0, bv), e.InputVec(1, wv)
	return mulGroup{bs, bs, 1, 1}, mulGroup{bs, ws, 1, 30}
}

// runAuthenticated runs body as each of three authenticated parties and
// returns what each returned.
func runAuthenticated(t *testing.T, body func(e *Engine) error) []error {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Authenticated = true
	const n = 3
	eps := NewTestNetwork(n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = RunDealer(eps[n], DealerConfig{Seed: 7, Authenticated: true})
	}()
	results := make([]error, n)
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			e, err := NewEngine(eps[p], cfg)
			if err != nil {
				results[p] = err
				return
			}
			results[p] = body(e)
			e.Shutdown()
		}(p)
	}
	wg.Wait()
	return results
}

func TestStatsAccounting(t *testing.T) {
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		e.Mul(e.ConstInt64(2), e.ConstInt64(3))
		if e.Stats.Mults != 1 {
			return fmt.Errorf("mults = %d", e.Stats.Mults)
		}
		if e.Stats.Opens == 0 || e.Stats.Rounds == 0 {
			return fmt.Errorf("opens/rounds not counted")
		}
		return nil
	})
}

func TestSignedRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		if got := Signed(ToField(big.NewInt(v))); got.Int64() != v {
			t.Errorf("signed round trip %d -> %v", v, got)
		}
	}
}
