package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile for it to count as measured (choosing-metrics §1): p99 needs
// at least 1,000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of samples
// and how many samples lie beyond it. It returns 0, 0 for no samples.
// samples is not modified.
func percentile(samples []float64, q float64) (v float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	samples = append([]float64(nil), samples...)
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return samples[rank-1], n - rank
}

// tail is percentile plus the ≥minBeyond rule: ok reports whether the
// sample supports the percentile.
func tail(samples []float64, q float64) (v float64, beyond int, ok bool) {
	v, beyond = percentile(samples, q)
	return v, beyond, beyond >= minBeyond
}

// median is the nearest-rank median.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

// hdMedian is the Harrell–Davis estimate of the median of vals: a
// weighted sum of all order statistics, the i-th of n weighted by the
// Beta((n+1)/2, (n+1)/2) probability of ((i-1)/n, i/n]. Unlike the
// sample median of a small sample it moves smoothly when neighbouring
// values trade places. vals is not modified; it returns 0 for no values.
func hdMedian(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	a := float64(n+1) / 2
	var sum, prev float64
	for i, v := range d {
		cur := regIncBeta(float64(i+1)/float64(n), a, a)
		sum += (cur - prev) * v
		prev = cur
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), by
// its continued fraction (Numerical Recipes §6.4).
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of regIncBeta by Lentz's method.
func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

// quartiles returns the first quartile, median and third quartile of vals
// by the method of Python's statistics.quantiles(vals, n=4) (the default
// "exclusive" method), so spreads computed here match the ones the
// benchmark's acceptance is judged by. vals is not modified.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return vals[0], vals[0], vals[0]
	}
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		return (d[lo]*float64(4-delta) + d[hi]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// quantileLine renders a sample's p25/p50/p75/p90/p99 for reports.
func quantileLine(samples []float64) string {
	var out []string
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
		v, _ := percentile(samples, q)
		out = append(out, fmt.Sprintf("p%g %.3f", 100*q, v))
	}
	return strings.Join(out, " ")
}
