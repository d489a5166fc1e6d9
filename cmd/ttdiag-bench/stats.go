package main

import "sort"

// summary describes a metric's samples: median, quartiles, extremes, count.
type summary struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{Values: []float64{}}
	}
	q1, q3 := quartiles(s)
	return summary{Values: values, Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// relSpread is the quartile distance as a share of the median.
func (s summary) relSpread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func mean(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// median of sorted values.
func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles of sorted values by the exclusive method, as Python's
// statistics.quantiles(values, n=4) computes them; a single value is its
// own quartiles.
func quartiles(s []float64) (q1, q3 float64) {
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
