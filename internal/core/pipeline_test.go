package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// The pipelined driver must be bit-identical to the barrier driver: masks
// and triples cancel, so overlapping independent round chains can change
// scheduling and ciphertext randomness but never a decrypted value.  Each
// equivalence test trains the same fixed-seed workload with Pipeline on
// and off and compares the rendered models.

// TestPipelineActive pins which configurations select the overlapped
// driver: Auto needs a transport with real per-round cost, and every
// variant without an overlapped implementation — a checkpoint store among
// them — gets the barrier driver even under PipelineOn.
func TestPipelineActive(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want bool
	}{
		{"memory", func(c *Config) {}, false},
		{"tcp", func(c *Config) { c.TCPLoopback = true }, true},
		{"delay", func(c *Config) { c.NetDelay = time.Millisecond }, true},
		{"jitter", func(c *Config) { c.NetJitter = time.Millisecond }, true},
		{"memory/on", func(c *Config) { c.Pipeline = PipelineOn }, true},
		{"tcp/off", func(c *Config) { c.TCPLoopback, c.Pipeline = true, PipelineOff }, false},
		{"tcp/checkpoint", func(c *Config) { c.TCPLoopback, c.Checkpoint = true, &CheckpointStore{} }, false},
		{"delay/checkpoint", func(c *Config) { c.NetDelay, c.Checkpoint = time.Millisecond, &CheckpointStore{} }, false},
		{"on/checkpoint", func(c *Config) { c.Pipeline, c.Checkpoint = PipelineOn, &CheckpointStore{} }, false},
		{"tcp/malicious", func(c *Config) { c.TCPLoopback, c.Malicious = true, true }, false},
		{"tcp/dp", func(c *Config) { c.TCPLoopback, c.DP = true, &DPConfig{Epsilon: 1} }, false},
		{"on/nopack", func(c *Config) { c.Pipeline, c.NoPack = PipelineOn, true }, false},
	} {
		cfg := DefaultConfig()
		tc.set(&cfg)
		if got := cfg.pipelineActive(); got != tc.want {
			t.Errorf("%s: pipelineActive() = %v, want %v", tc.name, got, tc.want)
		}
	}

	// The per-node oracle is chosen per call, not by Config: a session that
	// overlaps by default still runs TrainSpec{PerNode: true} on the barrier
	// driver.
	parts, err := dataset.VerticalPartition(smallClassification(8), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.TCPLoopback, cfg.Pipeline = true, PipelineOn
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Each(func(p *Party) error {
		defer func() { p.perNode = false }()
		for _, perNode := range []bool{false, true} {
			p.perNode = perNode
			if got := p.pipelined(); got == perNode {
				return fmt.Errorf("tcp/on, per-node %v: pipelined() = %v", perNode, got)
			}
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
}

func trainPipelineBoth(t *testing.T, ds *dataset.Dataset, m int, cfg Config) (on, off *Model) {
	t.Helper()
	cfgOn := cfg
	cfgOn.Pipeline = PipelineOn
	_, _, on = trainSession(t, ds, m, cfgOn)
	cfgOff := cfg
	cfgOff.Pipeline = PipelineOff
	_, _, off = trainSession(t, ds, m, cfgOff)
	return on, off
}

func TestPipelineEquivalenceDT(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	on, off := trainPipelineBoth(t, smallClassification(40), 2, testConfig())
	if on.String() != off.String() {
		t.Fatalf("pipelined tree differs from barrier tree:\nbarrier:\n%s\npipelined:\n%s", off, on)
	}
	if off.InternalNodes() == 0 {
		t.Fatal("degenerate comparison: barrier tree did not split")
	}
}

func TestPipelineEquivalenceEnhanced(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	cfg := testConfig()
	cfg.Protocol = Enhanced
	on, off := trainPipelineBoth(t, smallClassification(40), 2, cfg)
	if on.String() != off.String() {
		t.Fatalf("pipelined enhanced tree differs from barrier tree:\nbarrier:\n%s\npipelined:\n%s", off, on)
	}
}

func TestPipelineEquivalenceHidden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	// HideClient opens no winner identifiers at all, so the pipelined tail
	// overlaps the leaf lane purely with the update chain.
	cfg := testConfig()
	cfg.Protocol = Enhanced
	cfg.Hide = HideClient
	on, off := trainPipelineBoth(t, smallClassification(40), 2, cfg)
	if on.String() != off.String() {
		t.Fatalf("pipelined hidden tree differs from barrier tree:\nbarrier:\n%s\npipelined:\n%s", off, on)
	}
}

func renderForest(fm *ForestModel) string {
	var b strings.Builder
	for _, tree := range fm.Trees {
		b.WriteString(tree.String())
		b.WriteString("\n---\n")
	}
	return b.String()
}

func trainRFWith(t *testing.T, ds *dataset.Dataset, m int, cfg Config) *ForestModel {
	t.Helper()
	parts, err := dataset.VerticalPartition(ds, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	var fm *ForestModel
	if err := s.Each(func(p *Party) error {
		m, err := p.TrainRF()
		if p.ID == 0 && err == nil {
			fm = m
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return fm
}

func TestPipelineEquivalenceRF(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(40)
	cfg := testConfig()
	cfg.NumTrees = 3
	cfgOn := cfg
	cfgOn.Pipeline = PipelineOn
	cfgOff := cfg
	cfgOff.Pipeline = PipelineOff
	on := trainRFWith(t, ds, 2, cfgOn)
	off := trainRFWith(t, ds, 2, cfgOff)
	if got, want := renderForest(on), renderForest(off); got != want {
		t.Fatalf("pipelined forest differs from barrier forest:\nbarrier:\n%s\npipelined:\n%s", want, got)
	}
}

func TestPipelineEquivalenceGBDT(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(40)
	cfg := testConfig()
	cfg.NumTrees = 2

	trainGBDT := func(mode PipelineMode) *BoostModel {
		c := cfg
		c.Pipeline = mode
		parts, err := dataset.VerticalPartition(ds, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(parts, c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		var bm *BoostModel
		if err := s.Each(func(p *Party) error {
			m, err := p.TrainGBDT()
			if p.ID == 0 && err == nil {
				bm = m
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return bm
	}

	on := trainGBDT(PipelineOn)
	off := trainGBDT(PipelineOff)
	var gotB, wantB strings.Builder
	for f := range on.Forests {
		gotB.WriteString(renderForest(&ForestModel{Trees: on.Forests[f]}))
	}
	for f := range off.Forests {
		wantB.WriteString(renderForest(&ForestModel{Trees: off.Forests[f]}))
	}
	if gotB.String() != wantB.String() {
		t.Fatalf("pipelined GBDT differs from barrier GBDT:\nbarrier:\n%s\npipelined:\n%s", wantB.String(), gotB.String())
	}
}

// TestPipelineOverlapFloor pins the tentpole's mechanism, not just its
// result: with two forest lanes over a delayed wire, at least two MPC
// rounds must genuinely be in flight at once at some point.
func TestPipelineOverlapFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(40)
	cfg := testConfig()
	cfg.NumTrees = 2
	cfg.NetDelay = 2 * time.Millisecond
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.Each(func(p *Party) error {
		_, err := p.TrainRF()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if peak := s.Stats().InFlightPeak; peak < 2 {
		t.Fatalf("in-flight rounds peak = %d, want >= 2 (no overlap happened)", peak)
	}
}
