package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// badTrees are node graphs no trainer writes, each the smallest tree for
// one refusal of checkShape.  The committed FuzzLoadPredictor corpus holds
// each of them in a dt envelope, plus badEnvelopes.
var badTrees = map[string]string{
	"no-nodes":          `{"leaves":0,"nodes":[]}`,
	"root-left-zero":    `{"leaves":1,"nodes":[{"leaf":false,"left":0,"right":1},{"leaf":true}]}`,
	"leaf-pos-7":        `{"leaves":1,"nodes":[{"leaf":true,"leaf_pos":7}]}`,
	"child-before":      `{"leaves":2,"nodes":[{"left":2,"right":3},{"leaf":true},{"left":1,"right":3},{"leaf":true,"leaf_pos":1}]}`,
	"child-past-end":    `{"leaves":2,"nodes":[{"left":1,"right":5},{"leaf":true},{"leaf":true,"leaf_pos":1}]}`,
	"shared-child":      `{"leaves":1,"nodes":[{"left":1,"right":1},{"leaf":true}]}`,
	"unreached-node":    `{"leaves":2,"nodes":[{"leaf":true},{"leaf":true,"leaf_pos":1}]}`,
	"leaf-pos-twice":    `{"leaves":2,"nodes":[{"left":1,"right":2},{"leaf":true},{"leaf":true}]}`,
	"leaves-miscount":   `{"leaves":3,"nodes":[{"left":1,"right":2},{"leaf":true},{"leaf":true,"leaf_pos":1}]}`,
	"owner-minus-two":   `{"leaves":2,"nodes":[{"owner":-2,"left":1,"right":2},{"leaf":true},{"leaf":true,"leaf_pos":1}]}`,
	"feature-minus-two": `{"leaves":2,"nodes":[{"feature":-2,"left":1,"right":2},{"leaf":true},{"leaf":true,"leaf_pos":1}]}`,
}

// badEnvelopes hide a bad tree behind a good one, or inside a forest.
var badEnvelopes = map[string]string{
	"rf-second-tree": `{"kind":"rf","trees":[{"leaves":1,"nodes":[{"leaf":true}]},{"leaves":1,"nodes":[{"leaf":true,"leaf_pos":7}]}]}`,
	"gbdt-forest":    `{"kind":"gbdt","forests":[[{"leaves":1,"nodes":[{"left":0,"right":1},{"leaf":true}]}]]}`,
}

// TestBadModelRefused: every hostile node graph is refused with ErrBadModel
// through both decoders, and the trees a trainer writes — a concealed owner
// and feature included — still load.
func TestBadModelRefused(t *testing.T) {
	files := make(map[string]string)
	for name, file := range badEnvelopes {
		files[name] = file
	}
	for name, tree := range badTrees {
		if _, err := LoadModel(strings.NewReader(tree)); !errors.Is(err, ErrBadModel) {
			t.Errorf("%s: LoadModel = %v, want ErrBadModel", name, err)
		}
		files[name] = `{"kind":"dt","trees":[` + tree + `]}`
	}
	for name, file := range files {
		if _, err := LoadPredictor(strings.NewReader(file)); !errors.Is(err, ErrBadModel) {
			t.Errorf("%s: LoadPredictor = %v, want ErrBadModel", name, err)
		}
	}
	hidden := `{"protocol":"enhanced","hide":2,"leaves":2,"nodes":[{"owner":-1,"feature":-1,"left":1,"right":2},{"leaf":true},{"leaf":true,"leaf_pos":1}]}`
	if _, err := LoadModel(strings.NewReader(hidden)); err != nil {
		t.Fatalf("concealed-owner tree refused: %v", err)
	}
}

// FuzzLoadPredictor feeds arbitrary bytes to LoadPredictor, the decoder
// behind model files (LoadModel shares its tree decoder) and the serving
// registry's journal.  Whatever it accepts must survive the walks the
// package runs on a loaded model, and reach every node from the root.
func FuzzLoadPredictor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		mdl, err := LoadPredictor(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, tree := range predictorTrees(mdl) {
			for pos, path := range leafPaths(tree) {
				if len(path) == 0 && len(tree.Nodes) > 1 {
					t.Fatalf("leaf %d of a %d-node tree is not reached from the root", pos, len(tree.Nodes))
				}
			}
			tree.LeafLabels()
			tree.Depth()
			_ = tree.String()
		}
	})
}
