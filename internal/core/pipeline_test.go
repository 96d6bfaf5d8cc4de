package core

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// The pipelined driver must be bit-identical to the barrier driver: masks
// and triples cancel, so overlapping independent round chains can change
// scheduling and ciphertext randomness but never a decrypted value.  The
// transport picks the driver, so each equivalence test trains the same
// fixed-seed workload on the memory network (barrier) and over loopback TCP
// (overlapped) and compares the rendered models.

// TestPipelineActive pins which configurations select the overlapped
// driver: a transport with real per-round cost, and a protocol variant with
// an overlapped implementation.  A checkpoint store does not change it.
func TestPipelineActive(t *testing.T) {
	transports := []struct {
		name string
		set  func(*Config)
	}{
		{"memory", func(c *Config) {}},
		{"tcp", func(c *Config) { c.TCPLoopback = true }},
		{"delay", func(c *Config) { c.NetDelay = time.Millisecond }},
		{"jitter", func(c *Config) { c.NetJitter = time.Millisecond }},
	}
	variants := []struct {
		name     string
		set      func(*Config)
		overlaps bool
	}{
		{"plain", func(c *Config) {}, true},
		{"malicious", func(c *Config) { c.Malicious = true }, false},
		{"dp", func(c *Config) { c.DP = &DPConfig{Epsilon: 1} }, false},
		{"store", func(c *Config) { c.Checkpoint = &CheckpointStore{} }, true},
	}
	for i, tr := range transports {
		for _, v := range variants {
			cfg := DefaultConfig()
			tr.set(&cfg)
			v.set(&cfg)
			want := i > 0 && v.overlaps
			if got := cfg.pipelineActive(); got != want {
				t.Errorf("%s/%s: pipelineActive() = %v, want %v", tr.name, v.name, got, want)
			}
		}
	}

	// The per-node oracle is chosen per call, not by Config: a session that
	// overlaps still runs TrainSpec{PerNode: true} on the barrier driver.
	parts, err := dataset.VerticalPartition(smallClassification(8), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.TCPLoopback = true
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
				return fmt.Errorf("tcp, per-node %v: pipelined() = %v", perNode, got)
			}
		}
		return nil
	}); err != nil {
		t.Error(err)
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

// trainPipelineBoth trains kind with cfg on the memory network and over
// loopback TCP, checks that only the TCP session overlaps, and fails the
// test unless both render the same model.  The TCP session trains twice: the
// second training forks its lanes on the tags the first one's retired lanes
// used, so a dealer response a lane left unread would be taken there as
// material.  It returns the barrier model.
func trainPipelineBoth(t *testing.T, ds *dataset.Dataset, m int, cfg Config, kind ModelKind) Predictor {
	t.Helper()
	parts, err := dataset.VerticalPartition(ds, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []Predictor
	var driven []driverEntry
	for _, tcp := range []bool{false, true} {
		c := cfg
		c.TCPLoopback = tcp
		s, err := NewSession(parts, c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if got := s.parties[0].pipelined(); got != tcp {
			t.Fatalf("tcp %v: pipelined() = %v", tcp, got)
		}
		trains := 1
		if tcp {
			trains = 2
		}
		for k := 0; k < trains; k++ {
			mdl, err := Train(s, TrainSpec{Model: kind})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, mdl)
			if tcp {
				st := s.Stats()
				dealer := st.Traffic.Peers[len(st.Traffic.Peers)-1]
				e := driverEntry{MPCRounds: st.MPC.Rounds, Messages: st.Traffic.MsgsRecv - dealer.MsgsRecv}
				for _, tree := range predictorTrees(mdl) {
					e.Outlines = append(e.Outlines, tree.String())
				}
				driven = append(driven, e)
			}
		}
	}
	checkGolden(t, "testdata/driver_golden.json", driven)
	bar := renderForest(&ForestModel{Trees: predictorTrees(out[0])})
	for _, pipelined := range out[1:] {
		if pip := renderForest(&ForestModel{Trees: predictorTrees(pipelined)}); bar != pip {
			t.Fatalf("pipelined %s differs from barrier %s:\nbarrier:\n%s\npipelined:\n%s", kind, kind, bar, pip)
		}
	}
	return out[0]
}

// driverEntry is one training of a pipelined session: each tree's rendering
// and the session's cumulative MPC rounds and messages after it.  Messages
// are counted where they are received, from the parties only: a party has
// read every frame sent to it when its training returns, while a TCP
// writer may count its last frames after that.  Bytes are not recorded:
// minimal-length encodings of randomly drawn ciphertexts move them from run
// to run.
type driverEntry struct {
	Outlines  []string `json:"outlines"`
	MPCRounds int64    `json:"mpc_rounds"`
	Messages  int64    `json:"messages"`
}

// checkGolden fails the test, printing got, unless got equals what file
// records under the test's name.  testdata/driver_golden.json holds the TCP
// trainings of the pipeline equivalence tests, recorded from the overlapped
// driver before its overlaps were folded onto one fork primitive: the lanes
// may reorder chains, but never add a round or a message, or grow another
// tree.  testdata/counters_golden.json holds costEntry rows.
func checkGolden[T any](t *testing.T, file string, got T) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var recorded map[string]json.RawMessage
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	var want T
	if err := json.Unmarshal(recorded[t.Name()], &want); err != nil || !reflect.DeepEqual(got, want) {
		out, _ := json.MarshalIndent(map[string]T{t.Name(): got}, "", "  ")
		t.Errorf("%s differs from the entry %s records; this tree produces:\n%s", t.Name(), file, out)
	}
}

// costEntry is what one leg of a golden test cost: MPC rounds at the super
// client and messages sent between the parties (the dealer link excluded,
// as in every golden).
type costEntry struct {
	Leg          string `json:"leg"`
	MPCRounds    int64  `json:"mpc_rounds"`
	MessagesSent int64  `json:"messages_sent"`
}

func costOf(leg string, st RunStats) costEntry {
	return costEntry{Leg: leg, MPCRounds: st.MPC.Rounds, MessagesSent: st.MessagesSent}
}

// statsSince is what s has counted since before: MPC rounds, messages,
// encryptions and decryption shares.
func statsSince(s *Session, before RunStats) RunStats {
	now := s.Stats()
	var d RunStats
	d.MPC.Rounds = now.MPC.Rounds - before.MPC.Rounds
	d.MessagesSent = now.MessagesSent - before.MessagesSent
	d.Encryptions = now.Encryptions - before.Encryptions
	d.DecShares = now.DecShares - before.DecShares
	return d
}

func TestPipelineEquivalenceDT(t *testing.T) {
	bar := trainPipelineBoth(t, smallClassification(40), 2, testConfig(), KindDT)
	if bar.(*Model).InternalNodes() == 0 {
		t.Fatal("degenerate comparison: barrier tree did not split")
	}
}

func TestPipelineEquivalenceEnhanced(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	cfg := testConfig()
	cfg.Protocol = Enhanced
	trainPipelineBoth(t, smallClassification(40), 2, cfg, KindDT)
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
	trainPipelineBoth(t, smallClassification(40), 2, cfg, KindDT)
}

// TestPipelineEquivalenceRF is not -short-skipped: with
// TestPipelineOverlapFloor it is where the short race leg runs forked lanes
// concurrently (three tree lanes, each forking leaf lanes of its own).
func TestPipelineEquivalenceRF(t *testing.T) {
	cfg := testConfig()
	cfg.NumTrees = 3
	trainPipelineBoth(t, smallClassification(40), 2, cfg, KindRF)
}

func TestPipelineEquivalenceGBDT(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	cfg := testConfig()
	cfg.NumTrees = 2
	trainPipelineBoth(t, smallClassification(40), 2, cfg, KindGBDT)
}

// TestPipelineOverlapFloor pins the tentpole's mechanism, not just its
// result: with two forest lanes over a delayed wire, at least two MPC
// rounds must genuinely be in flight at once at some point.  Not
// -short-skipped, like TestPipelineEquivalenceRF.
func TestPipelineOverlapFloor(t *testing.T) {
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
