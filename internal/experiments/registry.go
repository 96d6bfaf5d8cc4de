package experiments

import "fmt"

// Experiment is one entry of the evaluation: Run regenerates a paper table,
// figure or ablation.
type Experiment struct {
	ID    string
	Title string
	Run   func(Preset) (*Result, error)
}

// Registry is every experiment, in the order `pivot-bench -exp all` runs
// them.  It is the only list: -exp, -list and go test -bench all read it,
// so registering an experiment here is all it takes.
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

// Exec runs the experiment and returns its table.
func (e Experiment) Exec(p Preset) (*Result, error) {
	res, err := e.Run(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	res.ID, res.Title = e.ID, e.Title
	return res, nil
}

// All runs every registered experiment (cmd/pivot-bench -exp all); on an
// error it returns the results completed so far.
func All(p Preset) ([]*Result, error) {
	var out []*Result
	for _, e := range Registry {
		res, err := e.Exec(p)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
