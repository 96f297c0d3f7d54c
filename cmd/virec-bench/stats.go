package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// summary is the spread of one metric's samples: the median, the
// quartiles, a seeded bootstrap 95% interval of the median, and n.
type summary struct {
	Median float64    `json:"median"`
	Q1     float64    `json:"q1"`
	Q3     float64    `json:"q3"`
	CI95   [2]float64 `json:"ci95"`
	N      int        `json:"n"`
}

// summarize computes the summary of xs. The bootstrap resamples with a
// fixed seed, so the same samples always give the same interval.
func summarize(xs []float64, seed uint64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q := quartiles(xs)
	lo, hi := bootstrapCI(xs, seed)
	return summary{Median: median(xs), Q1: q[0], Q3: q[2], CI95: [2]float64{lo, hi}, N: len(xs)}
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for even n); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters, by the
// same exclusive method as Python's statistics.quantiles(xs, n=4), so the
// spreads printed here match the ones an outside check computes. A single
// sample is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// reportablePercentiles are the tail percentiles the percentile rule picks
// from, highest first.
var reportablePercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile applies the percentile rule: the highest percentile that
// still has at least ten samples beyond it. ok is false when n is too
// small for any of them, and only the median may be reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range reportablePercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// bootstrapResamples is the number of bootstrap resamples behind every
// interval.
const bootstrapResamples = 2000

// bootstrapCI returns the 2.5th and 97.5th percentiles of the medians of
// resamples of xs drawn with replacement from a generator seeded with seed.
func bootstrapCI(xs []float64, seed uint64) (lo, hi float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	meds := make([]float64, bootstrapResamples)
	buf := make([]float64, n)
	for b := range meds {
		for i := range buf {
			buf[i] = xs[rng.IntN(n)]
		}
		meds[b] = median(buf)
	}
	return percentile(meds, 2.5), percentile(meds, 97.5)
}
