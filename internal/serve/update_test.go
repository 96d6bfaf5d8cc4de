package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// updateFixture carves a synthetic classification set into a 16-row
// training base and a 4-row append batch (flat rows + labels, as the wire
// carries them).
func updateFixture(t *testing.T) (*dataset.Dataset, []*dataset.Partition, [][]float64, []float64) {
	t.Helper()
	ds := dataset.SyntheticClassification(20, 4, 2, 3.0, 9)
	base := &dataset.Dataset{X: ds.X[:16], Y: ds.Y[:16], Classes: ds.Classes, Names: ds.Names}
	parts, err := dataset.VerticalPartition(base, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ds, parts, ds.X[16:], ds.Y[16:]
}

// updateService starts a lanes-wide service over the update fixture's
// training base with a DT trained on lane 0 registered as "dt".
func updateService(t *testing.T, parts []*dataset.Partition, lanes int, cfg Config) (*Service, core.Predictor) {
	t.Helper()
	svc := startService(t, parts, lanes, cfg, testFactory(parts, nil, -1), true)
	mdl, err := core.Train(svc.LaneSession(0), core.TrainSpec{Model: core.KindDT})
	if err == nil {
		_, err = svc.Register("dt", mdl)
	}
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	return svc, mdl
}

// TestUpdate drives the absorb path at both widths: validation, version
// bump, journal hook, stats, and served predictions equal to the offline
// pipeline on the refreshed model.  The chain runs on one reserved lane and
// the other lanes' partitions sync afterwards; the second absorb (which may
// land on any lane) proves the sync held.
func TestUpdate(t *testing.T) {
	for _, lanes := range widths {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			ds, parts, newRows, newLabels := updateFixture(t)
			var mu sync.Mutex
			var journaled []*Entry
			svc, mdl := updateService(t, parts, lanes, Config{
				Window: 5 * time.Millisecond, MaxBatch: 4,
				Journal: func(e *Entry) { mu.Lock(); journaled = append(journaled, e); mu.Unlock() },
			})
			defer svc.Close()

			if _, err := svc.Update("nope", newRows, newLabels, 0); err == nil {
				t.Fatal("unknown model must refuse the update")
			}
			if _, err := svc.Update("dt", newRows, newLabels[:2], 0); err == nil {
				t.Fatal("label/sample count mismatch must refuse the update")
			}
			if _, err := svc.Update("dt", nil, nil, 0); err == nil {
				t.Fatal("empty append must refuse the update")
			}

			ne, err := svc.Update("dt", newRows, newLabels, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ne.Version != 2 {
				t.Fatalf("absorb installed version %d, want 2", ne.Version)
			}
			upd, ok := ne.Model.(*core.Model)
			if !ok {
				t.Fatalf("absorb returned %T, want *core.Model", ne.Model)
			}
			if orig := mdl.(*core.Model); len(upd.Nodes) != len(orig.Nodes) {
				t.Fatalf("DT absorb changed topology: %d nodes, had %d", len(upd.Nodes), len(orig.Nodes))
			}

			// Served predictions on the refreshed model must match the
			// offline batched pipeline bit for bit.
			queryParts, err := dataset.VerticalPartition(ds, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			rows := flatRows(queryParts, svc.Width())
			oracle, err := core.PredictAll(svc.LaneSession(0), ne.Model, queryParts)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range rows {
				if got, err := svc.Predict("dt", row); err != nil || got != oracle[i] {
					t.Fatalf("sample %d: served %v, %v, oracle %v", i, got, err, oracle[i])
				}
			}

			// A second absorb stacks on the first: every lane's partitions
			// grew, so the append log and indicator extensions must stay
			// consistent whichever lane it lands on.
			ne2, err := svc.Update("dt", newRows, newLabels, 0)
			if err != nil {
				t.Fatalf("second absorb (lane sync check): %v", err)
			}
			if ne2.Version != 3 {
				t.Fatalf("second absorb installed version %d, want 3", ne2.Version)
			}
			// Every lane keeps serving the refreshed model.
			oracle, err = core.PredictAll(svc.LaneSession(0), ne2.Model, queryParts)
			if err != nil {
				t.Fatal(err)
			}
			got, errs := predictAll(svc, "dt", rows)
			for i := range rows {
				if errs[i] != nil || got[i] != oracle[i] {
					t.Fatalf("post-absorb sample %d: served %v, %v, oracle %v", i, got[i], errs[i], oracle[i])
				}
			}

			if st := svc.Stats(); st.Serve == nil || st.Serve.Updates != 2 {
				t.Fatalf("stats counted %+v updates, want 2", st.Serve)
			}
			mu.Lock()
			if len(journaled) != 2 || journaled[0].Version != 2 || journaled[1].Version != 3 {
				t.Fatalf("journal saw %d installs", len(journaled))
			}
			mu.Unlock()

			svc.Drain()
			if _, err := svc.Update("dt", newRows, newLabels, 0); !errors.Is(err, ErrDraining) {
				t.Fatalf("post-drain update returned %v", err)
			}
		})
	}
}

// TestUpdateRefusalKeepsLane sends a wire update whose label is out of
// range for the two-class DT: the service refuses it, and the refusal comes
// before the lane's session runs anything, so the one lane stays healthy
// and the next prediction answers at the unchanged version.
func TestUpdateRefusalKeepsLane(t *testing.T) {
	_, parts, newRows, newLabels := updateFixture(t)
	svc, _ := updateService(t, parts, 1, Config{Window: 2 * time.Millisecond})
	srv, err := NewServer(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	rows := flatRows(parts, svc.Width())
	want, err := cli.Predict("dt", rows)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]float64(nil), newLabels...)
	bad[0] = 7
	if _, err := cli.Update("dt", newRows, bad, 0); err == nil || !strings.Contains(err.Error(), "label") {
		t.Fatalf("out-of-range label: update returned %v, want a label refusal", err)
	}
	if h, err := cli.Health(); err != nil || !h.Healthy || h.LanesHealthy != 1 {
		t.Fatalf("after the refused update: health %+v, %v", h, err)
	}
	got, version, err := cli.PredictVersioned("dt", rows, 0)
	if err != nil {
		t.Fatalf("predict after the refused update: %v", err)
	}
	if version != 1 {
		t.Fatalf("refused update moved the model to version %d", version)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v after the refused update, %v before", i, got[i], want[i])
		}
	}

	if err := cli.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestUpdateUnderBacklog parks an Update behind a standing backlog of
// single-sample chains on a one-lane service: the update must take the next
// lane to free, not lose it to the scheduler until the backlog has drained.
func TestUpdateUnderBacklog(t *testing.T) {
	_, parts, newRows, newLabels := updateFixture(t)
	svc, _ := updateService(t, parts, 1, Config{MaxBatch: 1})
	defer svc.Close()

	rows := flatRows(parts, svc.Width())
	backlog := append(append([][]float64{}, rows...), rows...) // 32 chains
	entry, err := svc.Lookup("dt")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := svc.submitEntry(entry, backlog, time.Time{})
	if err != nil {
		t.Fatal(err)
	}

	ne, err := svc.Update("dt", newRows, newLabels, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ne.Version != 2 {
		t.Fatalf("absorb installed version %d, want 2", ne.Version)
	}
	last := reqs[len(reqs)-1]
	select {
	case r := <-last.res:
		t.Fatalf("update installed only after the whole backlog was served (last: %+v)", r)
	default:
	}
	for i, rq := range reqs {
		if r := <-rq.res; r.err != nil {
			t.Fatalf("backlog request %d: %v", i, r.err)
		}
	}
}

// TestServeUpdateNoTornReads hammers a daemon with concurrent predictions
// while an absorb is in flight: every response must be answered by exactly
// version N or N+1 — the whole response on one version's model, never a
// mix — and versions observed on one connection never go backwards.
// Nightly (race suite) only.
func TestServeUpdateNoTornReads(t *testing.T) {
	if testing.Short() {
		t.Skip("nightly: concurrent update/predict consistency")
	}
	for _, lanes := range widths {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { testNoTornReads(t, lanes) })
	}
}

func testNoTornReads(t *testing.T, lanes int) {
	_, parts, newRows, newLabels := updateFixture(t)
	svc, _ := updateService(t, parts, lanes, Config{Window: 2 * time.Millisecond, MaxBatch: 8})
	srv, err := NewServer(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	rows := flatRows(parts, svc.Width())
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	oracleV1, version, err := cli.PredictVersioned("dt", rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Fatalf("pre-absorb version %d", version)
	}

	type obs struct {
		version int
		preds   []float64
	}
	const probers = 4
	observed := make([][]obs, probers)
	perr := make([]error, probers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < probers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pc, err := Dial(srv.Addr())
			if err != nil {
				perr[g] = err
				return
			}
			defer pc.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				preds, v, err := pc.PredictVersioned("dt", rows, 0)
				if err != nil {
					perr[g] = err
					return
				}
				observed[g] = append(observed[g], obs{version: v, preds: preds})
			}
		}(g)
	}

	v2, err := cli.Update("dt", newRows, newLabels, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("absorb installed version %d, want 2", v2)
	}
	// Let the probers observe the installed version before stopping.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	for g, err := range perr {
		if err != nil {
			t.Fatalf("prober %d: %v", g, err)
		}
	}

	oracleV2, version, err := cli.PredictVersioned("dt", rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Fatalf("post-absorb version %d", version)
	}

	oracles := map[int][]float64{1: oracleV1, 2: oracleV2}
	total := 0
	for g := range observed {
		last := 0
		for i, o := range observed[g] {
			total++
			if o.version < last {
				t.Fatalf("prober %d response %d: version went backwards %d -> %d", g, i, last, o.version)
			}
			last = o.version
			oracle, ok := oracles[o.version]
			if !ok {
				t.Fatalf("prober %d response %d: impossible version %d", g, i, o.version)
			}
			for s := range o.preds {
				if o.preds[s] != oracle[s] {
					t.Fatalf("prober %d response %d: torn read — version %d sample %d served %v, that version's model says %v",
						g, i, o.version, s, o.preds[s], oracle[s])
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("probers observed no responses")
	}

	if err := cli.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRebuildDuringUpdate lands an Update while a dead lane's respawn is
// replaying the absorb log: the Update skips the still-unhealthy lane in
// its sync, so the rebuild must pick the new batch up before the lane goes
// live.  The respawned session comes back with a phase held open, which
// parks rebuildLane's replay after it has read the log; the batch absorbed
// meanwhile is the training base twice over with every label flipped, so a
// lane that missed it refines later models to the opposite leaf majorities.
// Retiring the other lane forces the next Update onto the rebuilt one, and
// its model must equal what a service that never lost a lane installs.
func TestRebuildDuringUpdate(t *testing.T) {
	_, parts, newRows, newLabels := updateFixture(t)
	base := flatRows(parts, 4)
	var floodRows [][]float64
	var floodLabels []float64
	for rep := 0; rep < 2; rep++ {
		for i, row := range base {
			floodRows = append(floodRows, row)
			floodLabels = append(floodLabels, 1-parts[0].Y[i])
		}
	}
	absorb := func(svc *Service, rows [][]float64, labels []float64) *Entry {
		t.Helper()
		e, err := svc.Update("dt", rows, labels, 0)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	saved := func(e *Entry) string {
		t.Helper()
		var sb strings.Builder
		if err := core.SavePredictor(&sb, e.Model); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	control, _ := updateService(t, parts, 1, Config{})
	defer control.Close()
	absorb(control, newRows, newLabels)
	absorb(control, floodRows, floodLabels)
	want := saved(absorb(control, newRows, newLabels))

	spawn := testFactory(parts, nil, -1)
	var up atomic.Bool // the initial lanes are up: later spawns are respawns
	parked := make(chan struct{})
	release := make(chan struct{})
	factory := func(lane int) (*core.Session, error) {
		if !up.Load() {
			return spawn(lane)
		}
		if lane == 0 {
			return nil, errors.New("lane 0 stays retired")
		}
		ns, err := spawn(lane)
		if err != nil {
			return nil, err
		}
		go ns.Each(func(p *core.Party) error {
			if p.ID == 0 {
				close(parked)
			}
			<-release
			return nil
		})
		<-parked
		return ns, nil
	}
	svc := startService(t, parts, 2, Config{}, factory, true)
	defer svc.Close()
	mdl, err := core.Train(svc.LaneSession(0), core.TrainSpec{Model: core.KindDT})
	if err == nil {
		_, err = svc.Register("dt", mdl)
	}
	if err != nil {
		t.Fatal(err)
	}
	up.Store(true)
	absorb(svc, newRows, newLabels) // a non-empty log for the replay to park on

	svc.LaneSession(1).Close()
	if h := svc.Health(); h.LanesHealthy != 1 { // reaps the corpse, starts the rebuild
		t.Fatalf("health with lane 1 dead: %+v", h)
	}
	<-parked
	absorb(svc, floodRows, floodLabels) // on lane 0, while lane 1 replays
	close(release)
	deadline := time.Now().Add(30 * time.Second)
	for svc.Health().LanesHealthy != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("lane 1 did not come back: %+v", svc.Health())
		}
		time.Sleep(20 * time.Millisecond)
	}

	svc.LaneSession(0).Close()
	if got := saved(absorb(svc, newRows, newLabels)); got != want {
		t.Fatal("the rebuilt lane refined over different rows than a lane that never died")
	}
}
