package main

import "sort"

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile reads the p-th percentile (0..100) of an ascending slice
// by nearest rank.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(float64(len(asc))*p/100+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailCandidates are the percentiles a latency report may quote.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile picks the highest candidate percentile that still has
// at least ten of the n samples beyond it; 0 when even the median has
// fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4), the rule
// the acceptance check uses; it needs two values or more.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
