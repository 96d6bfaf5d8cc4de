package mpc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/big"
	"sync"
	"testing"

	"repro/internal/transport"
)

// The transcript test pins the two contracts that make a change of the
// share representation a pure substrate swap: the dealer's and the parties'
// PRG streams are consumed exactly as before (same dealt shares, same masked
// openings) and every frame on every directed pair — dealer included — is
// byte-for-byte the same.  It is written against the public *big.Int API
// only.  The digests below were recorded at PR 22, whose three changes were
// meant to move them (the ladders multiply in a different order, masks are
// dealt as values and draw the dealer's stream differently, the grouped
// argmax is the tournament); before it they had stood since the engine's
// shares were {V, M *big.Int}.  The authenticated row moved once more when
// authenticated openings began to pack: its frames, and the opened values
// drawn from the dealer's stream after the first bounded-triple request;
// with the encmask lines left out of the log, its results digest is the
// same before and after (8b2f4310…).  Both rows moved again when the engine
// began to prefetch dealer material (material.go): every request draws
// what it drew before, but the requests come in a different order and
// size, so different draws land in each queue — which moves the dealt
// shares, every opening masked by them, the mask values logged, and the
// dealer bytes (material prefetched and never taken).  Old → new:
//
//	semi-honest    party be07dc1c… → c98d0ec9…  dealer 4c97ad8b… → 503af128…
//	               results 5b0c717d… → 11845c53…  bytes 17699112 → 18071136
//	authenticated  party 4a8a797e… → 0d2ad3f3…  dealer 41cbf631… → 1410798e…
//	               results 3a64f2b0… → 440cdecb…  bytes 1137081 → 1423754
//
// A failure prints the new transcript; paste it in only when a wire or PRG
// change is intended.

// recordingEndpoint hashes every frame it sends, one running SHA-256 per
// destination.  Each endpoint is driven by one goroutine, so the hashers
// need no lock.
type recordingEndpoint struct {
	transport.Endpoint
	sent  []hash.Hash
	bytes []int64
}

func newRecordingEndpoint(ep transport.Endpoint) *recordingEndpoint {
	r := &recordingEndpoint{Endpoint: ep, sent: make([]hash.Hash, ep.N()), bytes: make([]int64, ep.N())}
	for i := range r.sent {
		r.sent[i] = sha256.New()
	}
	return r
}

func (r *recordingEndpoint) Send(to int, b []byte) error {
	var l [8]byte
	binary.BigEndian.PutUint64(l[:], uint64(len(b)))
	r.sent[to].Write(l[:])
	r.sent[to].Write(b)
	r.bytes[to] += int64(len(b))
	return r.Endpoint.Send(to, b)
}

// transcript is what one scripted run leaves behind.
type transcript struct {
	party   string // frames between compute parties, every directed pair
	dealer  string // frames to and from the dealer
	results string // every opened value and plain mask, party by party
	bytes   int64  // total bytes on all pairs
}

// runTranscript runs script on every party of an n-party memory mesh with an
// in-process dealer and digests the frames and the values script logs.
func runTranscript(t *testing.T, n int, cfg Config, script func(e *Engine, log func(tag string, xs ...*big.Int)) error) transcript {
	t.Helper()
	raw := transport.NewMemoryNetwork(n+1, 4096)
	eps := make([]*recordingEndpoint, n+1)
	for i := range eps {
		eps[i] = newRecordingEndpoint(raw[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, n+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunDealer(eps[n], DealerConfig{Seed: 11, Authenticated: cfg.Authenticated}); err != nil {
			errs <- fmt.Errorf("dealer: %w", err)
		}
	}()
	logs := make([]hash.Hash, n)
	for p := 0; p < n; p++ {
		logs[p] = sha256.New()
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("party %d panic: %v", p, r)
					for _, ep := range raw {
						ep.Close()
					}
				}
			}()
			e, err := NewEngine(eps[p], cfg)
			if err != nil {
				errs <- err
				return
			}
			log := func(tag string, xs ...*big.Int) {
				fmt.Fprintf(logs[p], "%s:", tag)
				for _, x := range xs {
					fmt.Fprintf(logs[p], "%s,", x.String())
				}
				fmt.Fprintln(logs[p])
			}
			if err := script(e, log); err != nil {
				errs <- fmt.Errorf("party %d: %w", p, err)
			}
			e.Shutdown()
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	party, dealer, results := sha256.New(), sha256.New(), sha256.New()
	var tr transcript
	for from := 0; from <= n; from++ {
		for to := 0; to <= n; to++ {
			if from == to {
				continue
			}
			h := party
			if from == n || to == n {
				h = dealer
			}
			fmt.Fprintf(h, "%d>%d:%x\n", from, to, eps[from].sent[to].Sum(nil))
			tr.bytes += eps[from].bytes[to]
		}
	}
	for p := 0; p < n; p++ {
		fmt.Fprintf(results, "%d:%x\n", p, logs[p].Sum(nil))
	}
	tr.party = hex.EncodeToString(party.Sum(nil))
	tr.dealer = hex.EncodeToString(dealer.Sum(nil))
	tr.results = hex.EncodeToString(results.Sum(nil))
	return tr
}

// scriptValues builds count deterministic signed test values below 2^bits in
// magnitude, hitting zero, both signs and both ends of the range.
func scriptValues(count int, bits uint, salt int64) []*big.Int {
	out := make([]*big.Int, count)
	lim := new(big.Int).Lsh(big.NewInt(1), bits)
	for i := range out {
		v := big.NewInt(salt + int64(i)*7919)
		v.Mul(v, big.NewInt(1000003+salt))
		v.Mul(v, v)
		v.Add(v, big.NewInt(int64(i)))
		v.Mod(v, lim)
		if i%3 == 1 {
			v.Neg(v)
		}
		out[i] = v
	}
	out[0] = big.NewInt(0)
	if count > 2 {
		out[1] = new(big.Int).Sub(lim, big.NewInt(1))
		out[2] = new(big.Int).Neg(out[1])
	}
	return out
}

func absAll(xs []*big.Int) []*big.Int {
	out := make([]*big.Int, len(xs))
	for i, x := range xs {
		out[i] = new(big.Int).Abs(x)
	}
	return out
}

// semiHonestScript exercises every primitive family once, with batch sizes
// that force dealer top-ups of every material kind.
func semiHonestScript(e *Engine, log func(tag string, xs ...*big.Int)) error {
	const n = 40
	input := func(owner int, vals []*big.Int) []Share {
		if e.PartyID() != owner {
			vals = make([]*big.Int, len(vals))
		}
		return e.InputVec(owner, vals)
	}
	xs := input(1, scriptValues(n, 30, 3))
	ys := input(2, scriptValues(n, 20, 5))
	pos := input(0, absAll(scriptValues(n, 24, 9)))
	log("input", e.OpenVec(xs)...)

	// Linear algebra with public constants of every shape.
	lin := make([]Share, n)
	for i := range lin {
		v := e.Add(e.MulPub(xs[i], big.NewInt(int64(i)-7)), e.Neg(ys[i]))
		v = e.AddConst(e.Sub(v, e.ConstInt64(int64(i))), big.NewInt(-12345))
		lin[i] = v
	}
	log("linear", e.OpenVec(lin)...)
	log("sum", e.OpenSigned(e.Sum(lin)))

	prods := e.MulVec(xs, ys)
	log("mul", e.OpenVec(prods)...)
	log("mulsigned", e.OpenVec(e.MulVecSigned(xs, ys, 31, 21))...)
	log("mulbounded", e.OpenVec(e.MulVecBounded(pos, pos, 24, 24))...)
	log("openbounded", e.OpenVecBounded(pos, 25)...)

	// Two openings in a row.  The results digest hashes the tags too.
	log("issue1", e.OpenVec(xs[:5])...)
	log("issue2", e.OpenVec(ys[:7])...)

	log("trunc", e.OpenVec(e.TruncVec(prods, 54, 16))...)
	log("mod2m", e.OpenVec(e.Mod2mVec(xs, 32, 9))...)
	log("ltz", e.OpenVec(e.LTZVec(xs, 32))...)
	log("lt", e.OpenVec(e.LTVec(xs, ys, 32))...)
	log("le", e.OpenVec(e.LEVec(ys, xs, 32))...)

	// Equality ladders with mixed widths; every third operand is zero.
	eqIn := make([]Share, n)
	ks := make([]uint, n)
	for i := range eqIn {
		eqIn[i] = ys[i]
		if i%3 == 0 {
			eqIn[i] = e.Sub(ys[i], ys[i])
		}
		ks[i] = 22 + uint(i%5)*3
	}
	log("eqz", e.OpenVec(e.EQZVecGrouped(eqIn, ks))...)
	log("eqpub", e.Open(e.EQPub(e.ConstInt64(77), big.NewInt(77), 16)))

	bits := e.BitDecVec(pos[:12], 24)
	for _, row := range bits {
		log("bitdec", e.OpenVec(row)...)
	}

	den := make([]Share, n)
	for i := range den {
		den[i] = e.AddConst(pos[i], big.NewInt(int64(1+i%2))) // strictly positive
	}
	den[3] = e.ConstInt64(0) // the zero-divisor path
	log("fpdiv", e.OpenVec(e.FPDivVec(pos, den, 26))...)
	log("recip", e.OpenVec(e.RecipVec(den[:6], 26))...)

	fx := input(1, scriptValues(10, 18, 13)) // |x| < 4 at f = 16
	log("fpmul", e.OpenVec(e.FPMulVec(fx, fx, 40))...)
	log("exp", e.OpenVec(e.ExpVec(fx, 20))...)
	log("softmax", e.OpenVec(e.SoftmaxVec(fx[:4], 20))...)
	unit := input(2, absAll(scriptValues(8, 16, 17))) // (0, 1) at f = 16
	unit[0] = e.Const(e.EncodeConst(1.0))
	log("ln", e.OpenVec(e.LnVec(unit))...)

	ids := make([][]int64, 13)
	for i := range ids {
		ids[i] = []int64{int64(i % 3), int64(i % 5), int64(i)}
	}
	for _, tournament := range []bool{false, true} {
		r := e.Argmax(xs[:13], ids, 32, tournament)
		log("argmax", append(e.OpenVec(r.IDs), e.Open(r.Max))...)
	}
	for _, r := range e.ArgmaxGrouped(xs[:13], []int{4, 1, 8}, ids, 32) {
		log("argmaxgrouped", append(e.OpenVec(r.IDs), e.Open(r.Max))...)
	}

	log("randuniform", e.OpenVec(e.RandUniformFP(5))...)
	// Past the first batch of dealt masks.
	log("randuniform-topup", e.OpenVec(e.RandUniformFP(600))...)
	for _, width := range []uint{60, 300} { // the second is wider than the field
		for _, m := range e.EncMasks(70, width) {
			log("encmask", m.Plain, e.Open(m.Share))
		}
	}

	// Snapshot while the top-up the last take asked for (encryption masks
	// of width 300) is still on the wire, consume material of every kind —
	// that queue's included — rewind, consume it again: the replay must see
	// the same shares.
	if len(e.fetches) == 0 {
		return fmt.Errorf("no prefetch in flight at the snapshot")
	}
	st, err := e.Snapshot()
	if err != nil {
		return err
	}
	var masks [2]*big.Int
	for round := range masks {
		log("replay-mul", e.OpenVec(e.MulVec(xs[:9], ys[:9]))...)
		log("replay-ltz", e.OpenVec(e.LTZVec(ys[:9], 24))...)
		log("replay-input", e.OpenVec(input(0, scriptValues(3, 10, 21)))...)
		masks[round] = e.Open(e.EncMasks(1, 300)[0].Share)
		log("replay-mask", masks[round])
		if round == 0 {
			if err := e.Restore(st); err != nil {
				return err
			}
		}
	}
	if masks[0].Cmp(masks[1]) != 0 {
		return fmt.Errorf("replayed mask %v, first run %v", masks[1], masks[0])
	}
	return nil
}

// authenticatedScript covers the MAC-carrying paths: authenticated input
// masks, triples, bounded triples and bits, packed openings, and the MAC
// check.
func authenticatedScript(e *Engine, log func(tag string, xs ...*big.Int)) error {
	vals := scriptValues(12, 20, 29)
	if e.PartyID() != 0 {
		vals = make([]*big.Int, len(vals))
	}
	xs := e.InputVec(0, vals)
	ys := make([]Share, len(xs))
	for i := range ys {
		ys[i] = e.AddConst(e.MulPub(xs[i], big.NewInt(3)), big.NewInt(int64(i)-4))
	}
	log("mul", e.OpenVec(e.MulVec(xs, ys))...)
	log("mulbounded", e.OpenVec(e.MulVecSigned(xs, ys, 21, 23))...)
	log("lt", e.OpenVec(e.LTVec(xs, ys, 26))...)
	log("trunc", e.OpenVec(e.TruncVec(ys, 26, 5))...)
	for _, m := range e.EncMasks(3, 80) {
		log("encmask", m.Plain, e.Open(m.Share))
	}
	if err := e.CheckMACs(); err != nil {
		return err
	}
	log("const", e.Open(e.Const(big.NewInt(-9))))
	return e.CheckMACs()
}

func TestTranscriptGolden(t *testing.T) {
	semi := DefaultConfig()
	semi.Seed = 5
	semi.Workers = 2
	auth := semi
	auth.Authenticated = true
	for _, tc := range []struct {
		name   string
		cfg    Config
		script func(e *Engine, log func(tag string, xs ...*big.Int)) error
		want   transcript
	}{
		{"semi-honest", semi, semiHonestScript, transcript{
			party:   "c98d0ec9de58e2f1e1b96c0c64712a4bd366b4b3d11902a8aa02f2a04132a3d1",
			dealer:  "503af1286a8104dc11f1e455d29d722e2e75319e82ad7362dbc56859cd12587d",
			results: "11845c536dc71c07e46e00662e4fded23ef54338756cf7f6cb3d0d39306b0666",
			bytes:   18071136,
		}},
		{"authenticated", auth, authenticatedScript, transcript{
			party:   "0d2ad3f34c06391ab5115127beeaeb3d70ebe8ffa901ee9a58cc52c68f79e623",
			dealer:  "1410798e2ccafa552bac94c549d175b5af12ad1c0fa9b01f7b1516f455d70c77",
			results: "440cdecb7f3fff6cbcfb6e89a9bec3ab76ae4615e31409b87c12ed16fa8d388b",
			bytes:   1423754,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runTranscript(t, 3, tc.cfg, tc.script)
			if got != tc.want {
				t.Errorf("transcript moved:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}
