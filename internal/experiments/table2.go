package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/mpc"
	"repro/internal/transport"
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

// AblationArgmax compares the paper's linear oblivious-max scan
// (mpc.ArgmaxLinear) with the tournament the protocols run
// (mpc.ArgmaxTournament) on the engine alone: d·b split candidates with
// three identifier columns over a latency-wrapped memory mesh, where the
// difference in sequential rounds is the difference in seconds.  Both must
// name the same winner (the first maximum).
func AblationArgmax(p Preset) (*Result, error) {
	res := &Result{XLabel: "b", Unit: "seconds (rounds series: count)"}
	delay := p.NetDelay
	if delay == 0 {
		delay = time.Millisecond
	}
	for _, b := range p.Bs {
		cands := p.DBar * p.M * b
		row := Row{X: float64(b), Series: map[string]float64{}}
		var winners [2]int64
		for i, name := range []string{"linear (paper)", "tournament"} {
			rounds, secs, winner, err := argmaxLeg(p.M, cands, i == 1, delay, p.NetJitter)
			if err != nil {
				return nil, fmt.Errorf("%s b=%d: %w", name, b, err)
			}
			row.Series[name] = secs
			row.Series[name+" rounds"] = float64(rounds)
			winners[i] = winner
		}
		if winners[0] != winners[1] {
			return nil, fmt.Errorf("b=%d: linear scan picked candidate %d, tournament %d", b, winners[0], winners[1])
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// argmaxLeg runs one oblivious argmax over cands candidates on a fresh
// m-party engine mesh whose every send is delayed, and returns party 0's
// round count and wall time for the argmax alone, plus the opened winner.
func argmaxLeg(m, cands int, tournament bool, delay, jitter time.Duration) (rounds int64, secs float64, winner int64, err error) {
	eps := transport.NewMemoryNetwork(m+1, 8192)
	for i := range eps {
		eps[i] = transport.WithLatency(eps[i], delay, jitter, int64(i)+1)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	go func() { _ = mpc.RunDealer(eps[m], mpc.DealerConfig{Seed: 1}) }()
	// Public ids (owner, feature, split) and values with repeated maxima, so
	// the tie-break is exercised.
	ids := make([][]int64, cands)
	plain := make([]int64, cands)
	for t := range ids {
		ids[t] = []int64{int64(t % m), int64(t / m), int64(t)}
		plain[t] = int64(t*7919%1009) % 97
	}
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("party %d panic: %v", i, r)
				}
			}()
			eng, err := mpc.NewEngine(eps[i], mpc.DefaultConfig())
			if err != nil {
				errs[i] = err
				return
			}
			vals := make([]mpc.Share, cands)
			for t := range vals {
				vals[t] = eng.ConstInt64(plain[t])
			}
			before := eng.Stats.Rounds
			start := time.Now()
			best := eng.Argmax(vals, ids, 38, tournament)
			elapsed := time.Since(start).Seconds()
			after := eng.Stats.Rounds
			id := eng.OpenSigned(best.IDs[2]).Int64()
			if i == 0 {
				rounds, secs, winner = after-before, elapsed, id
				eng.Shutdown()
			}
		}(i)
	}
	wg.Wait()
	return rounds, secs, winner, errors.Join(errs...)
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
