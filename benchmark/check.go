package main

import (
	"fmt"
	"math"

	pivot "repro"
)

// gbdtTolerance bounds |federated − plaintext| for a boosted regression:
// the protocol sums fixed-point leaf·rate products (16 fractional bits).
const gbdtTolerance = 1.0 / 4096

// plainPredict is the benchmark's own walk of a released basic-protocol
// model: the tree itself, the majority vote of a forest (lowest class wins
// a tie, like the protocol's linear oblivious argmax), or base + Σ rate·leaf
// of a boosted regression.
func plainPredict(mdl pivot.Predictor, sample [][]float64) (float64, error) {
	switch m := mdl.(type) {
	case *pivot.Model:
		return m.PredictPlain(sample)
	case *pivot.ForestModel:
		if m.Classes == 0 {
			return 0, fmt.Errorf("plain walk: regression forests are not part of the benchmark")
		}
		votes := make([]int, m.Classes)
		for _, t := range m.Trees {
			l, err := t.PredictPlain(sample)
			if err != nil {
				return 0, err
			}
			if l < 0 || int(l) >= m.Classes {
				return 0, fmt.Errorf("plain walk: forest tree voted %v of %d classes", l, m.Classes)
			}
			votes[int(l)]++
		}
		best := 0
		for k, v := range votes {
			if v > votes[best] {
				best = k
			}
		}
		return float64(best), nil
	case *pivot.BoostModel:
		if m.Classes != 0 {
			return 0, fmt.Errorf("plain walk: boosted classification is not part of the benchmark")
		}
		out := m.Base
		for _, t := range m.Forests[0] {
			l, err := t.PredictPlain(sample)
			if err != nil {
				return 0, err
			}
			out += m.LearningRate * l
		}
		return out, nil
	}
	return 0, fmt.Errorf("plain walk: unknown predictor %T", mdl)
}

// agrees reports whether a federated prediction equals the plaintext walk.
func agrees(mdl pivot.Predictor, got, want float64) bool {
	if mdl.Kind() == pivot.KindGBDT {
		return math.Abs(got-want) <= gbdtTolerance
	}
	return got == want
}

// plainAll walks mdl over rows given in global column order.
func plainAll(mdl pivot.Predictor, parts []*pivot.Partition, rows [][]float64) ([]float64, error) {
	X := byClient(parts, rows)
	out := make([]float64, len(rows))
	sample := make([][]float64, len(parts))
	for t := range rows {
		for c := range parts {
			sample[c] = X[c][t]
		}
		v, err := plainPredict(mdl, sample)
		if err != nil {
			return nil, err
		}
		out[t] = v
	}
	return out, nil
}

// quality scores predictions against labels.
//
// accuracy is the share of rows predicted right: the class for a
// classifier; within one standard deviation of the labels for a
// regressor.  nmse is the mean squared error divided by
// the variance of the labels, so 1 is what predicting their mean scores; a
// class counts as its one-hot vector, so a wrong class costs 2 whichever
// class it is and the variance is Σ p_k(1−p_k) over the class shares p_k.
func quality(classes int, preds, y []float64) (accuracy, nmse float64) {
	n := float64(len(preds))
	if classes > 0 {
		hit := 0
		share := make([]float64, classes)
		for i, p := range preds {
			if p == y[i] {
				hit++
			}
			share[int(y[i])] += 1 / n
		}
		var variance float64
		for _, p := range share {
			variance += p * (1 - p)
		}
		accuracy = float64(hit) / n
		return accuracy, 2 * (1 - accuracy) / variance
	}
	hit := 0
	var se float64
	sd := stddev(y)
	for i, p := range preds {
		if math.Abs(p-y[i]) <= sd {
			hit++
		}
		se += (p - y[i]) * (p - y[i])
	}
	return float64(hit) / n, se / n / (sd * sd)
}

func stddev(xs []float64) float64 {
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Margins of the non-private comparison (the paper's Table 3 claim).
const (
	accuracyMargin = 0.03
	mseFactor      = 1.15
)

// closeToNonPrivate applies them: a classifier may lose accuracyMargin of
// accuracy, a regressor may have mseFactor times the error.
func closeToNonPrivate(classes int, acc, nmse, npAcc, npNmse float64) bool {
	if classes > 0 {
		return acc >= npAcc-accuracyMargin
	}
	return nmse <= mseFactor*npNmse
}
