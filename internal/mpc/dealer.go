package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/transport"
)

// The dealer is an extra party (index n on an n+1 party network) that plays
// the role of SPDZ's offline phase: it deals Beaver triples, shared random
// bits, input masks and encryption masks.  Its traffic is excluded from the
// protocol timings, mirroring the paper's online-phase-only benchmarks.
//
// Request flow: compute party 0 sends a request on behalf of everyone (the
// protocols are SPMD, so all parties reach the request point together), and
// the dealer answers every compute party with its slice of the material.
// The engines ask ahead of need (material.go), so a response may wait unread
// while the online rounds run; the dealer serves each request as it comes.

// Request kinds.
const (
	reqTriples = iota
	reqBits
	reqInputMasks
	reqEncMasks
	reqHello
	reqShutdown
	reqBoundedTriples
	reqCheckpoint
	reqMasks
)

type triple struct {
	a, b, c Share
}

type inputMask struct {
	share Share
	plain Elem // only set at the owner
}

// DealerConfig configures the offline-phase dealer.
type DealerConfig struct {
	// Seed makes dealt material deterministic for reproducible runs.
	Seed int64
	// Authenticated enables SPDZ MACs on all dealt material.
	Authenticated bool
	// Store, when set, receives the dealer's snapshot each time party 0
	// requests a checkpoint (reqCheckpoint).
	Store *DealerCheckpointStore
	// Resume, when set, restarts the dealer at a snapshot instead of from
	// the seed: the MAC key shares are replayed verbatim and the PRG
	// resumes at the recorded cursor, so the material stream continues
	// exactly where the checkpoint left it.
	Resume *DealerState
}

// dealer is the offline phase's state: the material PRG, the MAC key, and
// one outgoing frame per compute party, written share by share as the
// material is drawn and reused from request to request.
type dealer struct {
	g           *prg
	n           int // compute parties
	auth        bool
	stride      int // elements one dealt share occupies: value, plus MAC share
	alpha       Elem
	alphaShares []Elem
	frames      [][]byte
	vals        []Elem // the secrets of the request being served
}

func newDealer(n int, cfg DealerConfig) (*dealer, error) {
	d := &dealer{n: n, auth: cfg.Authenticated, stride: shareStride(cfg.Authenticated), frames: make([][]byte, n)}
	if cfg.Resume != nil {
		// Resume: replay the saved hello (no PRG draws — the shares were
		// dealt before the snapshot) and continue the PRG at its cursor.
		st := cfg.Resume.clone()
		if len(st.AlphaShares) != n {
			return nil, fmt.Errorf("mpc: dealer resume state has %d alpha shares, want %d", len(st.AlphaShares), n)
		}
		d.g, d.alpha, d.alphaShares = prgFromState(st.PRG), st.Alpha, st.AlphaShares
		return d, nil
	}
	d.g = newPRG([]byte(fmt.Sprintf("pivot-dealer-%d", cfg.Seed)))
	if d.auth {
		d.alpha = d.g.fieldElem()
	}
	d.alphaShares = make([]Elem, n)
	var sum Elem
	for p := 0; p < n-1; p++ {
		d.alphaShares[p] = d.g.fieldElem()
		sum = sum.Add(d.alphaShares[p])
	}
	d.alphaShares[n-1] = d.alpha.Sub(sum)
	return d, nil
}

// RunDealer serves offline material on ep (which must be the endpoint with
// the highest index) until every compute party has disconnected logically,
// i.e. until it receives a shutdown request.  Run it in its own goroutine.
func RunDealer(ep transport.Endpoint, cfg DealerConfig) error {
	d, err := newDealer(ep.N()-1, cfg)
	if err != nil {
		return err
	}
	// Hello: send each party its MAC key share.
	for p := 0; p < d.n; p++ {
		if err := ep.Send(p, appendElems(nil, d.alphaShares[p:p+1])); err != nil {
			return err
		}
	}

	// On a tag-multiplexed endpoint the dealer serves every lane: requests
	// from any lane of party 0 arrive in order through RecvTagged, and the
	// response goes out on the lane the request came in on, so each lane's
	// engines (across all parties) see a private, consistent dealer stream.
	// Material is still drawn from the single PRG in arrival order — lanes
	// get disjoint material, which is all correctness needs.
	tagged, _ := ep.(transport.TaggedEndpoint)

	for {
		lane := ep
		var raw []byte
		if tagged != nil {
			var tag uint32
			tag, raw, err = tagged.RecvTagged(0)
			lane = tagged.Lane(tag)
		} else {
			raw, err = ep.Recv(0)
		}
		if err != nil {
			return err
		}
		req, err := parseDealerRequest(raw, d.n, d.stride)
		if err != nil {
			return err
		}
		switch req.kind {
		case reqShutdown:
			return nil
		case reqCheckpoint:
			// Snapshot the PRG cursor *after* all previously requested
			// material (the request channel is FIFO from party 0, so
			// everything the engines buffered is already served), then ack
			// every party — the ack doubles as the barrier that tells each
			// engine its own snapshot may commit.
			var ok Elem
			if cfg.Store != nil {
				cfg.Store.put((&DealerState{Alpha: d.alpha, AlphaShares: d.alphaShares, PRG: d.g.state()}).clone())
				ok = Elem{1}
			}
			d.begin(1)
			for p := range d.frames {
				d.frames[p] = appendElem(d.frames[p], ok)
			}
		case reqTriples:
			d.dealTriples(req.count)
		case reqBoundedTriples:
			d.dealBoundedTriples(req.count, uint(req.a), uint(req.b))
		case reqBits:
			d.dealBits(req.count)
		case reqMasks:
			d.dealMasks(req.count, uint(req.a))
		case reqInputMasks:
			d.dealInputMasks(req.count, req.a)
		case reqEncMasks:
			d.dealEncMasks(req.count, uint(req.a))
		}
		for p, f := range d.frames {
			if err := lane.Send(p, f); err != nil {
				return err
			}
		}
	}
}

// ErrBadDealerRequest is returned (wrapped, naming the request) when the
// dealer receives a request it will not serve: not a vector of small
// integers, an unknown kind, the wrong number of arguments for its kind, or
// a count or width out of range.
var ErrBadDealerRequest = errors.New("mpc: bad dealer request")

// dealerRequest is a validated request: the kind, the item count, and the
// kind's remaining arguments (owner; width; wa, wb).
type dealerRequest struct {
	kind, count, a, b int
}

// maxWireElem is the encoded size of the largest field element.
const maxWireElem = 33

// parseDealerRequest decodes and validates one request.  Counts are bounded
// by what a single response frame may carry (transport.MaxFrameSize): a
// larger response could not be delivered, and an unchecked count is an
// allocation of the sender's choosing.
func parseDealerRequest(raw []byte, n, stride int) (dealerRequest, error) {
	bad := func(format string, args ...any) (dealerRequest, error) {
		return dealerRequest{}, fmt.Errorf("%w: %s", ErrBadDealerRequest, fmt.Sprintf(format, args...))
	}
	if len(raw) > 1+4*maxWireElem {
		return bad("%d bytes, longer than any request", len(raw))
	}
	fields, _, err := parseElems(raw)
	if err != nil {
		return bad("%v", err)
	}
	nf := len(fields)
	if nf < 1 || nf > 4 {
		return bad("%d fields", nf)
	}
	var f [4]int
	for i, x := range fields {
		if x[1]|x[2]|x[3] != 0 || x[0] > transport.MaxFrameSize {
			return bad("field %d out of range", i)
		}
		f[i] = int(x[0])
	}
	req := dealerRequest{kind: f[0], count: f[1], a: f[2], b: f[3]}
	// Per kind: its name, its argument count, and the bytes one item adds
	// to the largest response frame.
	var name string
	var nargs, itemBytes int
	switch req.kind {
	case reqShutdown:
		name = "shutdown"
	case reqCheckpoint:
		name = "checkpoint"
	case reqTriples:
		name, nargs, itemBytes = "triples", 1, 3*stride*maxWireElem
	case reqBits:
		name, nargs, itemBytes = "bits", 1, stride*maxWireElem
	case reqMasks:
		name, nargs, itemBytes = "masks", 2, stride*maxWireElem
	case reqInputMasks:
		name, nargs, itemBytes = "input-masks", 2, (stride+1)*maxWireElem
	case reqBoundedTriples:
		name, nargs, itemBytes = "bounded-triples", 3, 3*stride*maxWireElem
	case reqEncMasks:
		name, nargs, itemBytes = "enc-masks", 2, (req.a+7)/8+binary.MaxVarintLen32+(stride-1)*maxWireElem
	default:
		return bad("unknown kind %d", req.kind)
	}
	if nf != 1+nargs {
		return bad("%s request %v: %d arguments, want %d", name, f[1:nf], nf-1, nargs)
	}
	if nargs > 0 && (req.count < 1 || req.count > (transport.MaxFrameSize-binary.MaxVarintLen32)/itemBytes) {
		return bad("%s request %v: count outside [1, what one response frame holds]", name, f[1:nf])
	}
	switch req.kind {
	case reqInputMasks:
		if req.a >= n {
			return bad("%s request %v: owner is not a compute party", name, f[1:nf])
		}
	case reqBoundedTriples:
		// The masks must be canonical field elements.
		if req.a > 254 || req.b > 254 {
			return bad("%s request %v: mask wider than 254 bits", name, f[1:nf])
		}
	case reqMasks:
		if req.a < 1 || req.a > 254 {
			return bad("%s request %v: width outside [1, 254]", name, f[1:nf])
		}
	}
	return req, nil
}

// begin starts a response of count elements for every party.
func (d *dealer) begin(count int) {
	for p := range d.frames {
		d.beginFrame(p, count)
	}
}

// beginFrame starts party p's response frame.
func (d *dealer) beginFrame(p, count int) {
	d.frames[p] = binary.AppendUvarint(d.frames[p][:0], uint64(count))
}

// share splits v into n additive shares, appending share p to frame p.
func (d *dealer) share(v Elem) {
	var sum Elem
	for p := 0; p < d.n-1; p++ {
		s := d.g.fieldElem()
		sum = sum.Add(s)
		d.frames[p] = appendElem(d.frames[p], s)
	}
	d.frames[d.n-1] = appendElem(d.frames[d.n-1], v.Sub(sum))
}

// shareMAC deals the MAC share of v, if MACs are on.
func (d *dealer) shareMAC(v Elem) {
	if d.auth {
		d.share(d.alpha.Mul(v))
	}
}

// dealValues shares each secret in d.vals into the frames; with MACs, the
// MAC shares follow each value's shares.
func (d *dealer) dealValues() {
	for _, v := range d.vals {
		d.share(v)
		d.shareMAC(v)
	}
}

// dealTriplesOf deals count Beaver triples whose masks come from draw.
func (d *dealer) dealTriplesOf(count int, draw func() (a, b Elem)) {
	d.vals = d.vals[:0]
	for i := 0; i < count; i++ {
		a, b := draw()
		d.vals = append(d.vals, a, b, a.Mul(b))
	}
	d.begin(3 * count * d.stride)
	d.dealValues()
}

func (d *dealer) dealTriples(count int) {
	d.dealTriplesOf(count, func() (Elem, Elem) { return d.g.fieldElem(), d.g.fieldElem() })
}

// dealBoundedTriples deals Beaver triples whose masks are uniform in
// [0, 2^wa) × [0, 2^wb) instead of the full field; the compute parties use
// them to open bounded Beaver differences in packed form (MulVecBounded).
func (d *dealer) dealBoundedTriples(count int, wa, wb uint) {
	d.dealTriplesOf(count, func() (Elem, Elem) {
		return limbsFromBytes(d.g.intnBytes(wa)), limbsFromBytes(d.g.intnBytes(wb))
	})
}

func (d *dealer) dealBits(count int) {
	d.vals = d.vals[:0]
	for i := 0; i < count; i++ {
		d.vals = append(d.vals, Elem{uint64(d.g.bit())})
	}
	d.begin(count * d.stride)
	d.dealValues()
}

// dealMasks deals count sharings of values uniform in [0, 2^width): the
// statistical masks of the comparison ladders' openings, which the parties
// use whole.  The dealer knows every bit it deals, so a mask dealt as a value
// tells it nothing a mask summed from its bits did not.
func (d *dealer) dealMasks(count int, width uint) {
	d.vals = d.vals[:0]
	for i := 0; i < count; i++ {
		d.vals = append(d.vals, limbsFromBytes(d.g.intnBytes(width)))
	}
	d.begin(count * d.stride)
	d.dealValues()
}

func (d *dealer) dealInputMasks(count, owner int) {
	d.vals = d.vals[:0]
	for i := 0; i < count; i++ {
		d.vals = append(d.vals, d.g.fieldElem())
	}
	// The owner additionally learns the plain mask values.
	d.begin(count * d.stride)
	d.beginFrame(owner, count*d.stride+count)
	d.dealValues()
	for _, v := range d.vals {
		d.frames[owner] = appendElem(d.frames[owner], v)
	}
}

// dealEncMasks deals, per mask, a plain integer piece R_p in [0, 2^width) to
// every party; the party's field share of R = Σ_p R_p is R_p itself.  Only
// the MAC shares (if any) need explicit dealing.  Pieces are integers of the
// caller's width, which may exceed the field's, and go from the PRG to the
// frames as bytes.
func (d *dealer) dealEncMasks(count int, width uint) {
	d.begin(count * d.stride)
	var total, piece big.Int
	for i := 0; i < count; i++ {
		total.SetUint64(0)
		for p := 0; p < d.n; p++ {
			b := d.g.intnBytes(width)
			d.frames[p] = binary.AppendUvarint(d.frames[p], uint64(len(b)))
			d.frames[p] = append(d.frames[p], b...)
			if d.auth {
				total.Add(&total, piece.SetBytes(b))
			}
		}
		d.shareMAC(ElemFromBig(&total))
	}
}
