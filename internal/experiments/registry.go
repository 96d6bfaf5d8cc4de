package experiments

import "fmt"

// Experiment is one entry of the evaluation.  Exactly one of Run and
// Baseline is set: Run regenerates a paper table, figure or ablation;
// Baseline fills the record committed as BENCH_<ID>.json, from which the
// experiment's table is derived (Baseline.Table).
type Experiment struct {
	ID       string
	Title    string
	Run      func(Preset) (*Result, error)
	Baseline func(Preset) (*Baseline, error)
}

// Registry is every experiment, in the order `pivot-bench -exp all` runs
// them.  It is the only list: -exp, -list, -json, go test -bench and CI's
// baseline loop all read it, so registering an experiment here (and, for a
// baseline experiment, committing its BENCH_<ID>.json) is all it takes.
var Registry = []Experiment{
	{ID: "table2", Title: "cost model: predicted vs measured training time", Run: Table2},
	{ID: "table3", Title: "model accuracy vs non-private baselines", Run: Table3},
	{ID: "fig4a", Title: "training time vs m", Run: Fig4a},
	{ID: "fig4b", Title: "training time vs n", Run: Fig4b},
	{ID: "fig4c", Title: "training time vs d̄", Run: Fig4c},
	{ID: "fig4d", Title: "training time vs b", Run: Fig4d},
	{ID: "fig4e", Title: "training time vs h", Run: Fig4e},
	{ID: "fig4f", Title: "ensemble training time vs W", Run: Fig4f},
	{ID: "fig4g", Title: "prediction time vs m", Run: Fig4g},
	{ID: "fig4h", Title: "prediction time vs h", Run: Fig4h},
	{ID: "fig5a", Title: "training time: Pivot vs baselines, varying m", Run: Fig5a},
	{ID: "fig5b", Title: "training time: Pivot vs baselines, varying n", Run: Fig5b},
	{ID: "ablation-argmax", Title: "linear vs tournament oblivious argmax", Run: AblationArgmax},
	{ID: "ablation-pp", Title: "parallel threshold decryption speedup", Run: AblationParallelDecrypt},
	{ID: "ablation-hide", Title: "enhanced-protocol hide levels (§5.2 trade-off)", Run: AblationHideLevels},
	{ID: "ablation-criterion", Title: "gini vs entropy split criterion", Run: AblationCriterion},
	{ID: "psi", Title: "initialization: PSI alignment time", Run: PSIAlignment},
	{ID: "phases", Title: "per-phase training time", Run: PhaseBreakdown},
	{ID: "paillier", Title: "Paillier acceleration layer (ops/sec and train wall time)", Baseline: paillierBaseline},
	{ID: "levelwise", Title: "per-node vs level-wise training (depth-4 tree)", Baseline: levelwiseBaseline},
	{ID: "predict", Title: "per-sample vs batched prediction (enhanced protocol)", Baseline: predictBaseline},
	{ID: "serve", Title: "prediction serving: per-request vs micro-batched round chains (2ms WAN)", Baseline: serveBaseline},
	{ID: "servescale", Title: "sharded serving: throughput vs lane count (2ms WAN) + lane-kill failover", Baseline: serveScaleBaseline},
	{ID: "update", Title: "per-node vs level-wise model update (depth-4 multi-class GBDT)", Baseline: updateBaseline},
	{ID: "pipeline", Title: "barrier vs pipelined level execution (random forest, simulated WAN)", Baseline: pipelineBaseline},
	{ID: "recovery", Title: "crash-at-level resume vs retrain (decision tree)", Baseline: recoveryBaseline},
	{ID: "incremental", Title: "absorb +10% data vs full retrain", Baseline: incrementalBaseline},
}

// Lookup finds a registered experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Exec runs the experiment and returns its table; a baseline experiment
// also returns the record the table was derived from.
func (e Experiment) Exec(p Preset) (*Result, *Baseline, error) {
	var (
		res *Result
		rec *Baseline
		err error
	)
	if e.Baseline != nil {
		if rec, err = e.Baseline(p); err == nil {
			res = rec.Table()
		}
	} else {
		res, err = e.Run(p)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	res.ID, res.Title = e.ID, e.Title
	return res, rec, nil
}

// All runs every registered experiment (cmd/pivot-bench -exp all); on an
// error it returns the results completed so far.
func All(p Preset) ([]*Result, error) {
	var out []*Result
	for _, e := range Registry {
		res, _, err := e.Exec(p)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
