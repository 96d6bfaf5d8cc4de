package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/fixed"
	"repro/internal/mpc"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// Party is one client's context for a protocol session.  Client 0 is the
// super client.  A Party is bound to one network endpoint and one MPC
// engine; protocol functions on it run SPMD across all clients.
type Party struct {
	ID    int
	M     int
	Super int

	ep  transport.Endpoint
	eng *mpc.Engine
	pk  *paillier.PublicKey
	key *paillier.PartialKey

	// mux is the tag-multiplexed view of the endpoint when the session
	// wired one up (pipelined mode); nil otherwise.  laneTag is this
	// party-context's own lane (0 for the root context); child lanes get
	// tags from the deterministic laneTag*64+slot scheme, so every party
	// derives the same tag for the same SPMD fork point.
	mux     *transport.TagMux
	laneTag uint32

	part *dataset.Partition
	cfg  Config
	cod  *fixed.Codec
	w    widths

	// Local split structures (private to this client):
	cands [][]float64 // candidate thresholds per local feature
	indic [][][]*big.Int
	// indic[j][s][t] = 1 iff sample t goes left under split s of feature j
	bucket [][]int
	// bucket[j][t] = the first split of feature j under which sample t goes
	// left (len(cands[j]) if none): indic[j][s][t] = 1 iff bucket[j][t] <= s

	// Public split bookkeeping replicated at every client:
	splitCounts [][]int // [client][feature] -> number of candidate splits
	splitIDs    [][]int64
	// splitIDs is the canonical flat order of all db splits; each entry is
	// (i, j, s, g) where g is the global flat index — the hide-level
	// extension keeps g shared when i/j/s must stay concealed

	Stats RunStats

	// Malicious-model state (nil when cfg.Malicious is false).
	audit *auditor

	// shared caches the converted enhanced models for prediction, keyed
	// by model identity: a serving registry holds many live Predictors and
	// each must pay its Algorithm-2 conversion only once per session.
	shared map[*Model]*SharedModel

	// captureLeaves makes training record each leaf's encrypted mask
	// vector; the GBDT extension uses them to form encrypted estimations.
	captureLeaves bool
	leafAlphas    [][]*paillier.Ciphertext

	// testCtChunk overrides ctChunk in tests (0 = derive from KeyBits), so
	// the multi-frame chunked messaging paths can be exercised without
	// gigabyte-scale vectors.
	testCtChunk int

	// Fault-tolerance hooks (recovery.go).  ck is the session's checkpoint
	// store (nil disables checkpointing); rctx is the training driver's
	// current unit context, armed at each tree/round boundary; onLevel
	// ticks the chaos injector's level marker at each completed barrier.
	ck      *CheckpointStore
	rctx    *outerSnap
	onLevel func()
}

// NewParty binds a client to the session.  parts is this client's vertical
// partition; keys come from the initialization stage (§3.4).
func NewParty(ep transport.Endpoint, part *dataset.Partition, pk *paillier.PublicKey,
	key *paillier.PartialKey, m int, cfg Config) (*Party, error) {
	cfg = cfg.withDefaults()
	eng, err := mpc.NewEngine(ep, cfg.mpcConfig())
	if err != nil {
		return nil, err
	}
	p := &Party{
		ID: part.Client, M: m, Super: 0,
		ep: ep, eng: eng, pk: pk, key: key,
		part: part, cfg: cfg,
		cod: fixed.New(cfg.F),
		w:   cfg.widths(part.N),
	}
	if mux, ok := ep.(*transport.TagMux); ok {
		p.mux = mux
	}
	if cfg.Malicious {
		p.audit = newAuditor(p)
	}
	if err := p.prepareSplits(); err != nil {
		return nil, err
	}
	if err := p.exchangeSplitCounts(); err != nil {
		return nil, err
	}
	return p, nil
}

// Close shuts down the dealer (party 0 only; idempotent).
func (p *Party) Close() { p.eng.Shutdown() }

// Engine exposes the MPC engine (used by the baselines and tests).
func (p *Party) Engine() *mpc.Engine { return p.eng }

// prepareSplits computes the local candidate thresholds, the left-branch
// indicator vector v_l for every (feature, split) pair (§4.1) and every
// sample's bucket per feature.  The thresholds of one feature must ascend:
// that is what nests the v_l and lets bucketStats derive every split's
// statistics from one pass over the buckets.
func (p *Party) prepareSplits() error {
	d := len(p.part.Features)
	p.cands = make([][]float64, d)
	p.indic = make([][][]*big.Int, d)
	p.bucket = make([][]int, d)
	for j := 0; j < d; j++ {
		col := make([]float64, p.part.N)
		for t := range col {
			col[t] = p.part.X[t][j]
		}
		p.cands[j] = dataset.SplitCandidates(col, p.cfg.Tree.MaxSplits)
		for s := 1; s < len(p.cands[j]); s++ {
			if !(p.cands[j][s-1] <= p.cands[j][s]) {
				return p.errf("feature %d: candidate thresholds do not ascend (%v before %v)",
					j, p.cands[j][s-1], p.cands[j][s])
			}
		}
		p.bucket[j] = make([]int, p.part.N)
		for t, x := range col {
			p.bucket[j][t] = bucketOf(p.cands[j], x)
		}
		p.indic[j] = make([][]*big.Int, len(p.cands[j]))
		for s, tau := range p.cands[j] {
			v := make([]*big.Int, p.part.N)
			for t := range v {
				if col[t] <= tau {
					v[t] = big.NewInt(1)
				} else {
					v[t] = big.NewInt(0)
				}
			}
			p.indic[j][s] = v
		}
	}
	return nil
}

// bucketOf returns the index of the first of the ascending thresholds that x
// does not exceed, len(cands) if it exceeds them all (or is NaN).
func bucketOf(cands []float64, x float64) int {
	return sort.Search(len(cands), func(s int) bool { return x <= cands[s] })
}

// ErrBadSplitCounts is returned (wrapped, naming the peer) when a peer's
// split-count announcement is not one count in [0, Tree.MaxSplits] per
// feature for between 1 and maxClientFeatures features.
var ErrBadSplitCounts = errors.New("bad split-count announcement")

// maxClientFeatures bounds the features one client may announce.  The
// announcement is what tells the others a client's feature count, so its
// length cannot be checked against a known value; the bound keeps the split
// enumeration built from it (MaxSplits identifier rows per feature) from
// growing to a size of the sender's choosing.
const maxClientFeatures = 1 << 16

// exchangeSplitCounts publishes per-feature candidate-split counts so every
// client can enumerate the db total splits (their values stay private).
func (p *Party) exchangeSplitCounts() error {
	mine := make([]*big.Int, len(p.cands))
	for j := range p.cands {
		mine[j] = big.NewInt(int64(len(p.cands[j])))
	}
	if err := p.broadcastInts(mine); err != nil {
		return err
	}
	p.splitCounts = make([][]int, p.M)
	for c := 0; c < p.M; c++ {
		var counts []*big.Int
		if c == p.ID {
			counts = mine
		} else {
			var err error
			counts, err = transport.RecvInts(p.ep, c)
			if err != nil {
				return err
			}
			if len(counts) < 1 || len(counts) > maxClientFeatures {
				return fmt.Errorf("client %d: %w from client %d: %d features, want 1 to %d", p.ID, ErrBadSplitCounts, c, len(counts), maxClientFeatures)
			}
		}
		p.splitCounts[c] = make([]int, len(counts))
		for j, v := range counts {
			if !v.IsInt64() || v.Int64() > int64(p.cfg.Tree.MaxSplits) {
				return fmt.Errorf("client %d: %w from client %d: feature %d has %v splits, want 0 to %d", p.ID, ErrBadSplitCounts, c, j, v, p.cfg.Tree.MaxSplits)
			}
			p.splitCounts[c][j] = int(v.Int64())
		}
	}
	p.splitIDs = nil
	g := int64(0)
	for c := 0; c < p.M; c++ {
		for j, cnt := range p.splitCounts[c] {
			for s := 0; s < cnt; s++ {
				p.splitIDs = append(p.splitIDs, []int64{int64(c), int64(j), int64(s), g})
				g++
			}
		}
	}
	return nil
}

// totalSplits returns the paper's db (total candidate splits).
func (p *Party) totalSplits() int { return len(p.splitIDs) }

// clientSplits returns the number of candidate splits client c holds.
func (p *Party) clientSplits(c int) int {
	total := 0
	for _, cnt := range p.splitCounts[c] {
		total += cnt
	}
	return total
}

// clientBase returns the global flat index of client c's first split.
func (p *Party) clientBase(c int) int {
	base := 0
	for cc := 0; cc < c; cc++ {
		base += p.clientSplits(cc)
	}
	return base
}

// ---------------------------------------------------------------------------
// HE-layer messaging helpers (compute parties only; never the dealer)

func (p *Party) broadcastInts(xs []*big.Int) error {
	b := transport.MarshalInts(xs)
	for c := 0; c < p.M; c++ {
		if c == p.ID {
			continue
		}
		if err := p.ep.Send(c, b); err != nil {
			return err
		}
	}
	return nil
}

func (p *Party) broadcastCts(cts []*paillier.Ciphertext) error {
	return p.broadcastInts(paillier.MarshalCiphertexts(cts))
}

func (p *Party) sendCts(to int, cts []*paillier.Ciphertext) error {
	return transport.SendInts(p.ep, to, paillier.MarshalCiphertexts(cts))
}

// ErrMessageLength is returned when a message from a peer holds a different
// number of values than the protocol step fixes.  Every receive on the
// training path is counted, so nothing a peer sends is indexed before its
// length is known.
type ErrMessageLength struct {
	Client, From int // the receiving and the sending client
	Got, Want    int
}

func (e *ErrMessageLength) Error() string {
	return fmt.Sprintf("client %d: message from client %d holds %d values, want %d", e.Client, e.From, e.Got, e.Want)
}

// recvIntsN receives one message from a peer and requires it to hold exactly
// want integers.
func (p *Party) recvIntsN(from, want int) ([]*big.Int, error) {
	xs, err := transport.RecvInts(p.ep, from)
	if err != nil {
		return nil, err
	}
	if len(xs) != want {
		return nil, &ErrMessageLength{Client: p.ID, From: from, Got: len(xs), Want: want}
	}
	return xs, nil
}

// checkedCts wraps integers received from a peer as level-s ciphertexts
// after validating them: nothing a peer sends reaches Neg (which panics on a
// non-invertible value) or the mod-N² kernel unchecked.
func (p *Party) checkedCts(from, level int, xs []*big.Int) ([]*paillier.Ciphertext, error) {
	cts := paillier.UnmarshalCiphertexts(xs)
	if err := p.pk.CheckCiphertexts(level, cts); err != nil {
		return nil, fmt.Errorf("client %d: ciphertexts received from client %d: %w", p.ID, from, err)
	}
	return cts, nil
}

// ctChunk is the number of ciphertexts that safely fit in one wire frame;
// the chunk budget is half of transport.MaxFrameSize to leave headroom for
// varint overhead.  Deterministic in the public config, so sender and
// receiver agree on the frame count without negotiation.
func (p *Party) ctChunk() int { return p.ctChunkLevel(1) }

// ctChunkLevel sizes the budget from the actual byte length of a ciphertext
// under the key in use: a level-s ciphertext is a value mod N^(s+1), so
// Damgård–Jurik packed ciphertexts (paillier/dj.go) take (s+1)·|N| bits —
// assuming mod-N² here would overflow MaxFrameSize the moment they flow
// through the chunked helpers.
func (p *Party) ctChunkLevel(level int) int {
	if p.testCtChunk > 0 {
		return p.testCtChunk
	}
	ctBytes := (p.pk.N.BitLen()*(level+1)+7)/8 + 16
	chunk := transport.MaxFrameSize / 2 / ctBytes
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// chunked runs fn over [lo, hi) windows of at most ctChunk elements.
func (p *Party) chunked(n int, fn func(lo, hi int) error) error {
	return p.chunkedLevel(n, 1, fn)
}

// chunkedLevel is chunked with the frame budget of level-s ciphertexts.
func (p *Party) chunkedLevel(n, level int, fn func(lo, hi int) error) error {
	chunk := p.ctChunkLevel(level)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if err := fn(lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// The *Chunked helpers split big-integer vectors of any size into frames
// below the transport's MaxFrameSize.  Level-wise training batches
// whole-frontier vectors (nodes × channels × samples), which exceed a
// single frame at the paper's scale; the chunk count is a deterministic
// function of the public config and the (protocol-determined) vector
// length, so sender and receiver agree without negotiation.

func (p *Party) broadcastIntsChunked(xs []*big.Int) error {
	return p.chunked(len(xs), func(lo, hi int) error { return p.broadcastInts(xs[lo:hi]) })
}

func (p *Party) sendIntsChunked(to int, xs []*big.Int) error {
	return p.chunked(len(xs), func(lo, hi int) error { return transport.SendInts(p.ep, to, xs[lo:hi]) })
}

func (p *Party) recvIntsChunked(from, total int) ([]*big.Int, error) {
	return p.recvIntsChunkedLevel(from, total, 1)
}

func (p *Party) broadcastCtsChunked(cts []*paillier.Ciphertext) error {
	return p.broadcastIntsChunked(paillier.MarshalCiphertexts(cts))
}

func (p *Party) sendCtsChunked(to int, cts []*paillier.Ciphertext) error {
	return p.sendIntsChunked(to, paillier.MarshalCiphertexts(cts))
}

// recvCtsChunked receives exactly `total` ciphertexts sent by the chunked
// senders above.
func (p *Party) recvCtsChunked(from, total int) ([]*paillier.Ciphertext, error) {
	xs, err := p.recvIntsChunked(from, total)
	if err != nil {
		return nil, err
	}
	return p.checkedCts(from, 1, xs)
}

// The *Level variants carry Damgård–Jurik level-s ciphertexts (mod N^(s+1)),
// whose larger byte size shrinks the per-frame chunk budget accordingly.

func (p *Party) sendCtsChunkedLevel(to, level int, cts []*paillier.Ciphertext) error {
	xs := paillier.MarshalCiphertexts(cts)
	return p.chunkedLevel(len(xs), level, func(lo, hi int) error {
		return transport.SendInts(p.ep, to, xs[lo:hi])
	})
}

func (p *Party) recvCtsChunkedLevel(from, total, level int) ([]*paillier.Ciphertext, error) {
	xs, err := p.recvIntsChunkedLevel(from, total, level)
	if err != nil {
		return nil, err
	}
	return p.checkedCts(from, level, xs)
}

// recvIntsChunkedLevel receives exactly `total` integers sent in frames of
// the level-s ciphertext budget.
func (p *Party) recvIntsChunkedLevel(from, total, level int) ([]*big.Int, error) {
	out := make([]*big.Int, 0, total)
	err := p.chunkedLevel(total, level, func(lo, hi int) error {
		xs, err := transport.RecvInts(p.ep, from)
		if err != nil {
			return err
		}
		out = append(out, xs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) != total {
		return nil, &ErrMessageLength{Client: p.ID, From: from, Got: len(out), Want: total}
	}
	return out, nil
}

// encryptVec encrypts with stats accounting and the configured parallelism.
func (p *Party) encryptVec(xs []*big.Int) ([]*paillier.Ciphertext, error) {
	p.Stats.Encryptions += int64(len(xs))
	return p.pk.EncryptVec(rand.Reader, xs, p.cfg.Workers)
}

// scalarMulRerandVec computes rerandomized β_t ⊗ [x_t] for every entry, in
// parallel across the configured workers.  A zero β yields a fresh
// encryption of zero (ZeroDeterministic followed by rerandomization is
// exactly Enc(0; r)), so nothing about β leaks.
func (p *Party) scalarMulRerandVec(cts []*paillier.Ciphertext, betas []*big.Int) ([]*paillier.Ciphertext, error) {
	prods := p.pk.ScalarMulVec(cts, betas, p.cfg.Workers)
	out, err := p.pk.RerandomizeVec(cryptoRand(), prods, p.cfg.Workers)
	if err != nil {
		return nil, err
	}
	p.Stats.HEOps += int64(len(cts))
	p.Stats.Encryptions += int64(len(cts))
	return out, nil
}

// dotRerandVec computes one rerandomized homomorphic dot product per
// (plaintext vector, ciphertext vector) pair, in parallel across workers.
func (p *Party) dotRerandVec(xss [][]*big.Int, chs [][]*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(xss) != len(chs) {
		return nil, p.errf("dot batch length mismatch %d vs %d", len(xss), len(chs))
	}
	dots, err := p.pk.DotVec(xss, chs, p.cfg.Workers)
	if err != nil {
		return nil, err
	}
	for _, x := range xss {
		p.Stats.HEOps += int64(len(x))
	}
	return p.rerandVec(dots)
}

// rerandVec rerandomizes every ciphertext in parallel across workers.
func (p *Party) rerandVec(cts []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	out, err := p.pk.RerandomizeVec(cryptoRand(), cts, p.cfg.Workers)
	if err != nil {
		return nil, err
	}
	p.Stats.Encryptions += int64(len(cts))
	return out, nil
}

func (p *Party) encryptInt64(v int64) (*paillier.Ciphertext, error) {
	p.Stats.Encryptions++
	return p.pk.EncryptInt64(rand.Reader, v)
}

// jointDecryptTo decrypts a ciphertext batch so that only `to` learns the
// plaintexts (everyone partial-decrypts; shares flow to `to`).
func (p *Party) jointDecryptTo(to int, cts []*paillier.Ciphertext) ([]*big.Int, error) {
	shares := p.key.PartialDecryptVec(p.pk, cts, p.cfg.Workers)
	p.Stats.DecShares += int64(len(cts))
	if p.ID != to {
		return nil, p.sendIntsChunked(to, paillier.MarshalShares(shares))
	}
	return p.combineWithPeers(shares)
}

// jointDecryptAll decrypts a batch so every client learns the plaintexts
// (all-to-all share exchange).
func (p *Party) jointDecryptAll(cts []*paillier.Ciphertext) ([]*big.Int, error) {
	shares := p.key.PartialDecryptVec(p.pk, cts, p.cfg.Workers)
	p.Stats.DecShares += int64(len(cts))
	if err := p.broadcastIntsChunked(paillier.MarshalShares(shares)); err != nil {
		return nil, err
	}
	return p.combineWithPeers(shares)
}

// combineWithPeers receives every other client's decryption shares for the
// batch this client just partially decrypted, and combines them.
func (p *Party) combineWithPeers(shares []*paillier.DecryptionShare) ([]*big.Int, error) {
	byParty := make([][]*paillier.DecryptionShare, p.M)
	byParty[p.ID] = shares
	for c := 0; c < p.M; c++ {
		if c == p.ID {
			continue
		}
		xs, err := p.recvIntsChunked(c, len(shares))
		if err != nil {
			return nil, err
		}
		if err := p.pk.CheckShares(1, xs); err != nil {
			return nil, fmt.Errorf("client %d: decryption shares received from client %d: %w", p.ID, c, err)
		}
		byParty[c] = paillier.UnmarshalShares(c, xs)
	}
	return p.pk.CombineSharesVec(byParty, p.cfg.Workers)
}

// releaseWidth is the signed slot width of a released prediction that sums
// `terms` leaf labels, each multiplied by the public fixed-point constant
// `scale` (nil for none).  Every leaf label z is kept at the value width —
// |z| < 2^(value+1), the bound encToShares converts labels under — so
// |Σ z·scale| ≤ terms·scale·(2^(value+1) − 1) < 2^(value+1+k) for any k with
// terms·scale ≤ 2^k, and the smallest such k is BitLen(terms·scale − 1):
// 0 for one tree (value+2 in all), F for the forest mean (scale = Encode(1/W)
// and W·scale = 2^F, one more when the encoding of 1/W rounds up), at most
// F + bits.Len(W) for a GBDT sum with learning rate ≤ 1.
func (p *Party) releaseWidth(scale *big.Int, terms int) uint {
	k := big.NewInt(int64(terms))
	if scale != nil {
		k.Mul(k, scale)
	}
	return p.w.value + 2 + uint(k.Sub(k, big.NewInt(1)).BitLen())
}

// releasePacked is the release step of batched prediction: `count` encrypted
// values with |x| < 2^(w-1), held by the super client only (cts is nil
// elsewhere), are decrypted to every client.  The super client adds the
// offset 2^(w-1), packs the now non-negative values min(count,
// PackCapacity(w)) to a ciphertext by shift-and-add, rerandomises the packed
// ciphertexts — its inputs never leave it, so they need no randomness of
// their own — and broadcasts them; one threshold decryption per packed
// ciphertext then releases what a decryption per value released before.
// NoPack, or a width that fits a single slot, leaves one value per
// ciphertext through the same steps.
func (p *Party) releasePacked(cts []*paillier.Ciphertext, count int, w uint) ([]*big.Int, error) {
	plan := p.packPlan(count, w)
	groups := plan.Groups(count)
	offset := new(big.Int).Lsh(big.NewInt(1), w-1)

	var packed []*paillier.Ciphertext
	var err error
	if p.ID == p.Super {
		if len(cts) != count {
			return nil, p.errf("release of %d values holds %d ciphertexts", count, len(cts))
		}
		p.poolReserve(groups)
		if packed, err = p.rerandVec(p.packShifted(cts, offset, plan)); err != nil {
			return nil, err
		}
		p.Stats.HEOps += int64(2*count - groups)
		if err := p.broadcastCtsChunked(packed); err != nil {
			return nil, err
		}
	} else if packed, err = p.recvCtsChunked(p.Super, groups); err != nil {
		return nil, err
	}

	totals, err := p.jointDecryptAll(packed)
	if err != nil {
		return nil, err
	}
	vals, err := paillier.UnpackVec(totals, plan, count)
	if err != nil {
		return nil, fmt.Errorf("client %d: released prediction totals: %w", p.ID, err)
	}
	for _, v := range vals {
		v.Sub(v, offset)
	}
	return vals, nil
}

// ---------------------------------------------------------------------------
// TPHE <-> MPC bridges

// convPlan chooses the slot layout for a packed Algorithm-2 conversion of
// `count` values of signed width kStat: each slot must hold the masked sum
// x + offset + Σ_i r_i < 2^kStat + M·2^(kStat+κ).  The input ciphertexts
// already exist at level 1, and a level-1 ciphertext cannot be lifted into a
// Damgård–Jurik level (see paillier/dj.go), so conversions pack within Z_N;
// the DJ levels serve fresh packed encryptions.
func (p *Party) convPlan(count int, kStat uint) paillier.PackPlan {
	return p.packPlan(count, kStat+p.cfg.Kappa+uint(bits.Len(uint(p.M)))+1)
}

// packShifted adds the sign offset to every ciphertext and packs them
// plan.Slots to a ciphertext by shift-and-add (the last one holds the rest).
func (p *Party) packShifted(cts []*paillier.Ciphertext, offset *big.Int, plan paillier.PackPlan) []*paillier.Ciphertext {
	shifted := make([]*paillier.Ciphertext, len(cts))
	for j, ct := range cts {
		shifted[j] = p.pk.AddPlain(ct, offset)
	}
	packed := make([]*paillier.Ciphertext, plan.Groups(len(cts)))
	for g := range packed {
		packed[g] = p.pk.PackCiphertexts(shifted[g*plan.Slots:min((g+1)*plan.Slots, len(cts))], plan.SlotW)
	}
	return packed
}

// packPlan is the level-1 layout for `count` values of slotW bits: as many
// slots to a ciphertext as Z_N holds, at most count, and a single one — the
// unpacked oracle — under NoPack or when two do not fit.
func (p *Party) packPlan(count int, slotW uint) paillier.PackPlan {
	slots := min(count, p.pk.PackCapacity(slotW))
	if slots < 2 || p.cfg.NoPack {
		slots = 1
	}
	return paillier.PackPlan{SlotW: slotW, Slots: slots, Level: 1}
}

// convertMasked is the masked-aggregate-and-decrypt core of Algorithm 2:
// every client contributes a statistical mask per value, the super client
// aggregates [e_j] = [x_j + offset + Σ_i r_ij], and a threshold decryption
// reveals the e_j to the super client only.  It returns (es, masks, offset)
// with es nil at non-super clients.
//
// When packing applies (semi-honest, NoPack off, at least two slots), the
// masked values ride `slots` to a ciphertext: clients pack their mask
// vectors plaintext-side before encrypting, and the super client packs the
// offset ciphertexts homomorphically (shift-and-add), so encryptions,
// decryption-share exponentiations and every ciphertext frame shrink by the
// slot factor.  The decrypted slot values — and hence the shares derived
// from them — are identical to the unpacked path's.  The audited malicious
// path stays unpacked: its per-value mask proofs need per-value ciphertexts.
func (p *Party) convertMasked(cts []*paillier.Ciphertext, count int, kStat uint, audited bool) ([]*big.Int, []*big.Int, *big.Int, error) {
	maskW := kStat + p.cfg.Kappa
	offset := new(big.Int).Lsh(big.NewInt(1), kStat-1)
	masks := make([]*big.Int, count)
	bound := new(big.Int).Lsh(big.NewInt(1), maskW)
	for j := range masks {
		r, err := rand.Int(rand.Reader, bound)
		if err != nil {
			return nil, nil, nil, err
		}
		masks[j] = r
	}

	plan := p.convPlan(count, kStat)
	if p.audit != nil || plan.Slots < 2 {
		es, err := p.convertMaskedUnpacked(cts, count, offset, masks, audited)
		return es, masks, offset, err
	}

	groups := plan.Groups(count)
	packedMasks := make([]*big.Int, groups)
	for g := range packedMasks {
		lo, hi := g*plan.Slots, (g+1)*plan.Slots
		if hi > count {
			hi = count
		}
		packedMasks[g] = paillier.PackInts(masks[lo:hi], plan.SlotW)
	}
	encPacked, err := p.encryptVec(packedMasks)
	if err != nil {
		return nil, nil, nil, err
	}

	var encE []*paillier.Ciphertext
	if p.ID == p.Super {
		encE = p.pk.AddVec(p.packShifted(cts[:count], offset, plan), encPacked, p.cfg.Workers)
		for c := 0; c < p.M; c++ {
			if c == p.Super {
				continue
			}
			theirs, err := p.recvCtsChunked(c, groups)
			if err != nil {
				return nil, nil, nil, err
			}
			encE = p.pk.AddVec(encE, theirs, p.cfg.Workers)
		}
		p.Stats.HEOps += int64(count + groups*p.M)
		if err := p.broadcastCtsChunked(encE); err != nil {
			return nil, nil, nil, err
		}
	} else {
		if err := p.sendCtsChunked(p.Super, encPacked); err != nil {
			return nil, nil, nil, err
		}
		encE, err = p.recvCtsChunked(p.Super, groups)
		if err != nil {
			return nil, nil, nil, err
		}
	}

	esPacked, err := p.jointDecryptTo(p.Super, encE)
	if err != nil {
		return nil, nil, nil, err
	}
	var es []*big.Int
	if p.ID == p.Super {
		es, err = paillier.UnpackVec(esPacked, plan, count)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("client %d: masked conversion totals: %w", p.ID, err)
		}
	}
	return es, masks, offset, nil
}

// convertMaskedUnpacked is the per-value oracle path (also the malicious
// path: the mask proofs are per ciphertext).
func (p *Party) convertMaskedUnpacked(cts []*paillier.Ciphertext, count int, offset *big.Int, masks []*big.Int, audited bool) ([]*big.Int, error) {
	encMasks, err := p.encryptVec(masks)
	if err != nil {
		return nil, err
	}
	var maskProofs []*big.Int
	if audited && p.audit != nil && p.ID != p.Super {
		maskProofs, err = p.audit.proveMasks(encMasks, masks)
		if err != nil {
			return nil, err
		}
	}

	// Super aggregates [e] = [x + offset + Σ r_i] and broadcasts it for
	// threshold decryption.
	var encE []*paillier.Ciphertext
	if p.ID == p.Super {
		encE = make([]*paillier.Ciphertext, count)
		for j := range encE {
			acc := p.pk.AddPlain(cts[j], offset)
			acc = p.pk.Add(acc, encMasks[j])
			encE[j] = acc
		}
		for c := 0; c < p.M; c++ {
			if c == p.Super {
				continue
			}
			theirs, err := p.recvCtsChunked(c, count)
			if err != nil {
				return nil, err
			}
			if audited && p.audit != nil {
				if err := p.audit.verifyMasks(c, theirs); err != nil {
					return nil, err
				}
			}
			encE = p.pk.AddVec(encE, theirs, p.cfg.Workers)
		}
		p.Stats.HEOps += int64(count * p.M)
		if err := p.broadcastCtsChunked(encE); err != nil {
			return nil, err
		}
	} else {
		if err := p.sendCtsChunked(p.Super, encMasks); err != nil {
			return nil, err
		}
		if audited && p.audit != nil {
			if err := transport.SendInts(p.ep, p.Super, maskProofs); err != nil {
				return nil, err
			}
		}
		encE, err = p.recvCtsChunked(p.Super, count)
		if err != nil {
			return nil, err
		}
	}
	return p.jointDecryptTo(p.Super, encE)
}

// encToShares is Algorithm 2, batched and made sign-safe: each ciphertext
// [x] with |x| < 2^(kStat-1) becomes a secretly shared ⟨x⟩.  Every client
// adds an encrypted statistical mask, the masked sum is threshold-decrypted
// to the super client, and shares are the masks' negations.  The ciphertexts
// must be known to the super client (callers ship them there first).
func (p *Party) encToShares(cts []*paillier.Ciphertext, count int, kStat uint) ([]mpc.Share, error) {
	if count == 0 {
		return nil, nil
	}
	es, masks, offset, err := p.convertMasked(cts, count, kStat, true)
	if err != nil {
		return nil, err
	}

	shares := make([]mpc.Share, count)
	for j := range shares {
		var v *big.Int
		if p.ID == p.Super {
			v = new(big.Int).Sub(es[j], masks[j])
		} else {
			v = new(big.Int).Neg(masks[j])
		}
		shares[j] = mpc.Share{V: mpc.ElemFromBig(v)}
	}
	// Remove the sign offset inside the field.
	negOff := new(big.Int).Neg(offset)
	for j := range shares {
		shares[j] = p.eng.AddConst(shares[j], negOff)
	}
	if p.cfg.Malicious {
		return p.authenticateShares(shares)
	}
	return shares, nil
}

// authenticateShares re-inputs raw conversion shares through the
// authenticated input protocol so the SPDZ MACs cover them (§9.1.1,
// "modified MPC conversion": the shares are committed before use).
func (p *Party) authenticateShares(raw []mpc.Share) ([]mpc.Share, error) {
	count := len(raw)
	sum := make([]mpc.Share, count)
	for c := 0; c < p.M; c++ {
		vals := make([]*big.Int, count)
		if p.ID == c {
			for j := range vals {
				vals[j] = raw[j].V.Big()
			}
		}
		in := p.eng.InputVec(c, vals)
		for j := range in {
			sum[j] = p.eng.Add(sum[j], in[j])
		}
	}
	return sum, nil
}

// encToIntShares runs the conversion but returns plain *integer* additive
// shares of x + 2^(kStat-1) (exact over ℤ, not mod Q).  These integers can
// be used as exponents on ciphertexts — the trick behind the enhanced
// protocol's encrypted mask update, Eqn (10).
func (p *Party) encToIntShares(cts []*paillier.Ciphertext, kStat uint) ([]*big.Int, *big.Int, error) {
	count := len(cts)
	es, masks, offset, err := p.convertMasked(cts, count, kStat, false)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*big.Int, count)
	for j := range out {
		if p.ID == p.Super {
			out[j] = new(big.Int).Sub(es[j], masks[j])
		} else {
			out[j] = new(big.Int).Neg(masks[j])
		}
	}
	return out, offset, nil
}

// shareToEnc converts secretly shared values (|x| < 2^(kStat-1)) into
// threshold-Paillier ciphertexts held by every client: the shares are masked
// by dealer integers, opened, and the combiner strips the encrypted masks
// (§5.2 "each client encrypts her own share ... summing up these encrypted
// shares", with integer masking so no modular wrap occurs).
func (p *Party) shareToEnc(shares []mpc.Share, kStat uint, combiner int) ([]*paillier.Ciphertext, error) {
	return p.shareToEncSeg(shares, kStat, []int{len(shares)}, []int{combiner})
}

// shareToEncSeg is shareToEnc over concatenated segments with a per-segment
// combiner: the masked opening is one OpenVec for the whole batch, every
// client encrypts all its mask pieces in one parallel pass, and each
// distinct combiner assembles and broadcasts only its own segments — one
// chunked message per (client, combiner) pair instead of one exchange per
// segment.  The level-wise batched model update uses it to convert every
// frontier node's [λ] in a single conversion, grouped by best-split owner.
func (p *Party) shareToEncSeg(shares []mpc.Share, kStat uint, segLens []int, combiners []int) ([]*paillier.Ciphertext, error) {
	count := len(shares)
	if count == 0 {
		return nil, nil
	}
	// Flat positions per combiner, every client deriving the same layout
	// from the (public) segment structure.
	pos := make([][]int, p.M)
	off := 0
	for s, l := range segLens {
		c := combiners[s]
		for j := off; j < off+l; j++ {
			pos[c] = append(pos[c], j)
		}
		off += l
	}
	if off != count {
		return nil, p.errf("share conversion: segments cover %d of %d shares", off, count)
	}

	maskW := kStat + p.cfg.Kappa
	offset := new(big.Int).Lsh(big.NewInt(1), kStat-1)
	masks := p.eng.EncMasks(count, maskW)
	masked := make([]mpc.Share, count)
	for j := range masked {
		masked[j] = p.eng.Add(p.eng.AddConst(shares[j], offset), masks[j].Share)
	}
	// Exact integers: x + offset + Σ R_i < (M+1)·2^maskW < Q, a public
	// bound, so the opening packs several values per field element.
	ws := p.eng.OpenVecBounded(masked, maskW+uint(bits.Len(uint(p.M)))+1)

	plains := make([]*big.Int, count)
	for j := range plains {
		plains[j] = masks[j].Plain
	}
	encMine, err := p.encryptVec(plains)
	if err != nil {
		return nil, err
	}
	out := make([]*paillier.Ciphertext, count)

	// Ship my encrypted mask pieces to every other combiner.
	for c := 0; c < p.M; c++ {
		if c == p.ID || len(pos[c]) == 0 {
			continue
		}
		seg := make([]*paillier.Ciphertext, len(pos[c]))
		for i, j := range pos[c] {
			seg[i] = encMine[j]
		}
		if err := p.sendCtsChunked(c, seg); err != nil {
			return nil, err
		}
	}

	// Assemble and broadcast the segments I combine.
	if idxs := pos[p.ID]; len(idxs) > 0 {
		mine := make([]*paillier.Ciphertext, len(idxs))
		for i, j := range idxs {
			w := new(big.Int).Sub(ws[j], offset)
			w.Sub(w, masks[j].Plain)
			ct, err := p.pk.Encrypt(rand.Reader, w)
			if err != nil {
				return nil, err
			}
			mine[i] = ct
		}
		p.Stats.Encryptions += int64(len(idxs))
		for c := 0; c < p.M; c++ {
			if c == p.ID {
				continue
			}
			theirs, err := p.recvCtsChunked(c, len(idxs))
			if err != nil {
				return nil, err
			}
			mine = p.pk.SubVec(mine, theirs, p.cfg.Workers)
		}
		p.Stats.HEOps += int64(len(idxs) * p.M)
		if err := p.broadcastCtsChunked(mine); err != nil {
			return nil, err
		}
		for i, j := range idxs {
			out[j] = mine[i]
		}
	}

	// Receive the other combiners' assembled segments.
	for c := 0; c < p.M; c++ {
		if c == p.ID || len(pos[c]) == 0 {
			continue
		}
		cts, err := p.recvCtsChunked(c, len(pos[c]))
		if err != nil {
			return nil, err
		}
		for i, j := range pos[c] {
			out[j] = cts[i]
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Timing

// timed runs fn and adds its duration to the given phase bucket.
func timed(bucket *time.Duration, fn func() error) error {
	start := time.Now()
	err := fn()
	*bucket += time.Since(start)
	return err
}

// timedWire is timed plus wire-wait attribution: the endpoint's blocked-
// receive time accrued while fn ran lands in the wire bucket.  Exact on
// the barrier path; under the pipelined driver concurrent lanes share the
// endpoint counter, so overlapped phases split the wait approximately.
func (p *Party) timedWire(bucket, wire *time.Duration, fn func() error) error {
	st := p.ep.Stats()
	w0 := st.RecvWaitNs.Load()
	start := time.Now()
	err := fn()
	*bucket += time.Since(start)
	*wire += time.Duration(st.RecvWaitNs.Load() - w0)
	return err
}

// gatherStats folds the transport and engine counters into p.Stats.
func (p *Party) gatherStats() {
	p.Stats.MPC = p.eng.Stats
	p.Stats.InFlightPeak = p.eng.InFlightPeak()
	p.Stats.Traffic = p.ep.Stats().Snapshot()
	p.Stats.BytesSent = p.Stats.Traffic.BytesSent
	p.Stats.MessagesSent = p.Stats.Traffic.MsgsSent
}

func (p *Party) errf(format string, args ...any) error {
	return fmt.Errorf("client %d: %w", p.ID, fmt.Errorf(format, args...))
}
