package experiments

import (
	"repro/internal/core"
	"repro/internal/costmodel"
)

// Table2 evaluates the theoretical cost model: it calibrates the
// per-operation constants, predicts training time for a sweep of n, and
// measures actual runs at the same points, reporting both series.  The
// reproduction target is the *shape* agreement (both near-flat for basic,
// both near-linear for enhanced), not the absolute ratio.
func Table2(p Preset) (*Result, error) {
	res := &Result{XLabel: "n", Unit: "seconds"}
	k, err := costmodel.Calibrate(p.KeyBits, p.M)
	if err != nil {
		return nil, err
	}
	for _, n := range p.Ns {
		pp := p
		pp.N = n
		ds := synth(pp, pp.M)
		params := costmodel.Params{
			M: pp.M, N: n, DBar: pp.DBar, D: pp.DBar * pp.M, B: pp.B,
			C: pp.Classes, T: costmodel.FullTree(pp.H),
		}
		row := Row{X: float64(n), Series: map[string]float64{}}
		row.Series["model-basic"] = costmodel.TrainBasic(params, k).Seconds()
		row.Series["model-enhanced"] = costmodel.TrainEnhanced(params, k).Seconds()
		for name, proto := range map[string]core.Protocol{"measured-basic": core.Basic, "measured-enhanced": core.Enhanced} {
			_, _, secs, err := trainKind(ds, pp.M, cfgFor(pp, proto, 1), core.KindDT)
			if err != nil {
				return nil, err
			}
			row.Series[name] = secs
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationArgmax compares the paper's linear oblivious-max scan with the
// tournament variant this implementation adds (not in the paper): same
// model output, different round structure.
func AblationArgmax(p Preset) (*Result, error) {
	res := &Result{XLabel: "b", Unit: "seconds"}
	for _, b := range p.Bs {
		pp := p
		pp.B = b
		ds := synth(pp, pp.M)
		row := Row{X: float64(b), Series: map[string]float64{}}
		for name, tournament := range map[string]bool{"linear (paper)": false, "tournament": true} {
			cfg := cfgFor(pp, core.Basic, 1)
			cfg.ArgmaxTournament = tournament
			_, _, secs, err := trainKind(ds, pp.M, cfg, core.KindDT)
			if err != nil {
				return nil, err
			}
			row.Series[name] = secs
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationParallelDecrypt isolates the "-PP" effect: enhanced-protocol
// training time at increasing worker counts (paper: up to 2.7x on 6 cores).
func AblationParallelDecrypt(p Preset) (*Result, error) {
	res := &Result{XLabel: "workers", Unit: "seconds"}
	ds := synth(p, p.M)
	for _, workers := range []int{1, 2, 4, 6} {
		_, _, secs, err := trainKind(ds, p.M, cfgFor(p, core.Enhanced, workers), core.KindDT)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{X: float64(workers), Series: map[string]float64{"Pivot-Enhanced": secs}})
	}
	return res, nil
}

// PhaseBreakdown reports per-phase time for one basic and one enhanced run,
// the decomposition behind Table 2's columns.
func PhaseBreakdown(p Preset) (*Result, error) {
	res := &Result{XLabel: "protocol (0=basic,1=enhanced)", Unit: "seconds"}
	ds := synth(p, p.M)
	for i, proto := range []core.Protocol{core.Basic, core.Enhanced} {
		_, stats, _, err := trainKind(ds, p.M, cfgFor(p, proto, 1), core.KindDT)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{X: float64(i), Series: map[string]float64{
			"local-computation": stats.Phases.LocalComputation.Seconds(),
			"conversion(Cd)":    stats.Phases.Conversion.Seconds(),
			"mpc-computation":   stats.Phases.MPCComputation.Seconds(),
			"model-update":      stats.Phases.ModelUpdate.Seconds(),
			"wire-wait":         stats.Phases.WireTotal().Seconds(),
		}})
	}
	return res, nil
}
