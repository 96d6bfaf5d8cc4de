package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"

	"repro/internal/paillier"
)

// Node is one node of a trained Pivot tree.  Which fields are populated
// depends on the protocol: the basic protocol (§4) releases Threshold and
// Label in plaintext; the enhanced protocol (§5) ships them as threshold
// Paillier ciphertexts instead, and only the owner + feature of each
// internal node are public.
type Node struct {
	Leaf bool

	// Internal nodes.
	Owner      int // client that holds the split feature
	Feature    int // local feature index at the owner
	Threshold  float64
	SplitIndex int // candidate-split index s* (basic protocol only)
	Left       int // child indices into Model.Nodes
	Right      int

	// Leaves.
	Label   float64
	LeafPos int // position in the leaf-label vector z (prediction order)

	// Enhanced protocol ciphertexts (nil under the basic protocol).
	EncThreshold *paillier.Ciphertext
	EncLabel     *paillier.Ciphertext

	// Hide-level extension (§5.2 discussion).  When the split feature j* is
	// concealed (Feature == -1), EncFeatSel[c] holds client c's encrypted
	// one-hot feature selector [φ^c]; prediction uses it to obliviously
	// select the feature value to compare.  Under HideFeature only the
	// owner's entry is non-nil; under HideClient (Owner == -1) every
	// client's entry is populated.
	EncFeatSel [][]*paillier.Ciphertext
}

// Model is a trained Pivot decision tree, replicated at every client.
type Model struct {
	Nodes    []Node
	Classes  int // 0 for regression
	Protocol Protocol
	Hide     HideLevel // what the enhanced protocol concealed
	Leaves   int
}

// InternalNodes returns the paper's t (number of internal nodes).
func (m *Model) InternalNodes() int {
	c := 0
	for _, n := range m.Nodes {
		if !n.Leaf {
			c++
		}
	}
	return c
}

// Depth returns the tree height.
func (m *Model) Depth() int {
	if len(m.Nodes) == 0 {
		return 0
	}
	var walk func(i int) int
	walk = func(i int) int {
		n := m.Nodes[i]
		if n.Leaf {
			return 0
		}
		l, r := walk(n.Left), walk(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}

// LeafLabels returns the leaf label vector z in LeafPos order (basic
// protocol: plaintext labels).
func (m *Model) LeafLabels() []float64 {
	z := make([]float64, m.Leaves)
	for _, n := range m.Nodes {
		if n.Leaf {
			z[n.LeafPos] = n.Label
		}
	}
	return z
}

// PredictPlain evaluates the public tree on a fully assembled sample (all
// features in global order is not required — the model stores owner-local
// indices, so the caller passes a per-client feature matrix).  Used by
// tests as a reference and by the non-private distributed baseline.
func (m *Model) PredictPlain(featuresByClient [][]float64) (float64, error) {
	if m.Protocol != Basic {
		return 0, fmt.Errorf("core: plaintext prediction requires the basic protocol model")
	}
	i := 0
	for !m.Nodes[i].Leaf {
		n := m.Nodes[i]
		if n.Owner >= len(featuresByClient) || n.Feature >= len(featuresByClient[n.Owner]) {
			return 0, fmt.Errorf("core: sample is missing feature %d of client %d", n.Feature, n.Owner)
		}
		if featuresByClient[n.Owner][n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
	return m.Nodes[i].Label, nil
}

// modelJSON is the serialization schema.
type modelJSON struct {
	Classes  int        `json:"classes"`
	Protocol string     `json:"protocol"`
	Hide     int        `json:"hide,omitempty"`
	Leaves   int        `json:"leaves"`
	Nodes    []nodeJSON `json:"nodes"`
}

type nodeJSON struct {
	Leaf         bool       `json:"leaf"`
	Owner        int        `json:"owner,omitempty"`
	Feature      int        `json:"feature,omitempty"`
	Threshold    float64    `json:"threshold,omitempty"`
	SplitIndex   int        `json:"split_index,omitempty"`
	Left         int        `json:"left,omitempty"`
	Right        int        `json:"right,omitempty"`
	Label        float64    `json:"label,omitempty"`
	LeafPos      int        `json:"leaf_pos,omitempty"`
	EncThreshold string     `json:"enc_threshold,omitempty"`
	EncLabel     string     `json:"enc_label,omitempty"`
	EncFeatSel   [][]string `json:"enc_feat_sel,omitempty"`
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.encode())
}

// encode lowers the model to its serialization schema (shared by Save and
// the multi-family SavePredictor envelope).
func (m *Model) encode() modelJSON {
	out := modelJSON{Classes: m.Classes, Protocol: m.Protocol.String(), Hide: int(m.Hide), Leaves: m.Leaves}
	for _, n := range m.Nodes {
		nj := nodeJSON{
			Leaf: n.Leaf, Owner: n.Owner, Feature: n.Feature, Threshold: n.Threshold,
			SplitIndex: n.SplitIndex, Left: n.Left, Right: n.Right, Label: n.Label, LeafPos: n.LeafPos,
		}
		if n.EncThreshold != nil {
			nj.EncThreshold = n.EncThreshold.C.Text(62)
		}
		if n.EncLabel != nil {
			nj.EncLabel = n.EncLabel.C.Text(62)
		}
		if n.EncFeatSel != nil {
			nj.EncFeatSel = make([][]string, len(n.EncFeatSel))
			for c, phi := range n.EncFeatSel {
				if phi == nil {
					continue
				}
				nj.EncFeatSel[c] = make([]string, len(phi))
				for j, ct := range phi {
					nj.EncFeatSel[c][j] = ct.C.Text(62)
				}
			}
		}
		out.Nodes = append(out.Nodes, nj)
	}
	return out
}

// LoadModel reads a model written by Save.
func LoadModel(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	return decodeModel(in)
}

// decodeModel raises the serialization schema back to a model.
func decodeModel(in modelJSON) (*Model, error) {
	m := &Model{Classes: in.Classes, Hide: HideLevel(in.Hide), Leaves: in.Leaves}
	if in.Protocol == Enhanced.String() {
		m.Protocol = Enhanced
	}
	for _, nj := range in.Nodes {
		n := Node{
			Leaf: nj.Leaf, Owner: nj.Owner, Feature: nj.Feature, Threshold: nj.Threshold,
			SplitIndex: nj.SplitIndex, Left: nj.Left, Right: nj.Right, Label: nj.Label, LeafPos: nj.LeafPos,
		}
		if nj.EncThreshold != "" {
			c, ok := new(big.Int).SetString(nj.EncThreshold, 62)
			if !ok {
				return nil, fmt.Errorf("core: bad enc_threshold")
			}
			n.EncThreshold = &paillier.Ciphertext{C: c}
		}
		if nj.EncLabel != "" {
			c, ok := new(big.Int).SetString(nj.EncLabel, 62)
			if !ok {
				return nil, fmt.Errorf("core: bad enc_label")
			}
			n.EncLabel = &paillier.Ciphertext{C: c}
		}
		if nj.EncFeatSel != nil {
			n.EncFeatSel = make([][]*paillier.Ciphertext, len(nj.EncFeatSel))
			for c, strs := range nj.EncFeatSel {
				if strs == nil {
					continue
				}
				n.EncFeatSel[c] = make([]*paillier.Ciphertext, len(strs))
				for j, s := range strs {
					v, ok := new(big.Int).SetString(s, 62)
					if !ok {
						return nil, fmt.Errorf("core: bad enc_feat_sel")
					}
					n.EncFeatSel[c][j] = &paillier.Ciphertext{C: v}
				}
			}
		}
		m.Nodes = append(m.Nodes, n)
	}
	if err := m.checkShape(); err != nil {
		return nil, err
	}
	return m, nil
}

// ErrBadModel is returned (wrapped, with the reason) for a model file whose
// node graph is not a tree this package writes.
var ErrBadModel = errors.New("core: bad model")

// checkShape refuses a node graph no trainer writes.  Every writer appends a
// node before its children (breadth-first training, the preorder oracle; the
// incremental update clones a trained structure), so a child's index exceeds
// its parent's, and with one parent per non-root node every walk from the
// root terminates.  Each leaf owns a distinct LeafPos below Leaves, which
// counts the leaves; an Owner or Feature of −1 is concealed.
func (m *Model) checkShape() error {
	n := len(m.Nodes)
	parented := make([]bool, n)
	posTaken := make([]bool, n)
	leaves := 0
	for i, nd := range m.Nodes {
		switch {
		case nd.Owner < -1 || nd.Feature < -1:
			return fmt.Errorf("%w: node %d: owner %d, feature %d", ErrBadModel, i, nd.Owner, nd.Feature)
		case nd.Leaf:
			if nd.LeafPos < 0 || nd.LeafPos >= min(m.Leaves, n) || posTaken[nd.LeafPos] {
				return fmt.Errorf("%w: node %d: leaf_pos %d out of range or repeated", ErrBadModel, i, nd.LeafPos)
			}
			posTaken[nd.LeafPos] = true
			leaves++
		default:
			for _, c := range []int{nd.Left, nd.Right} {
				if c <= i || c >= n || parented[c] {
					return fmt.Errorf("%w: node %d: child %d not after it, out of range or shared", ErrBadModel, i, c)
				}
				parented[c] = true
			}
		}
	}
	if n == 0 || leaves != m.Leaves || slices.Contains(parented[1:], false) {
		return fmt.Errorf("%w: %d nodes, %d of them leaves (leaves = %d), or a node without a parent", ErrBadModel, n, leaves, m.Leaves)
	}
	return nil
}
