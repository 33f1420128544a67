package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported percentile must have above it
// before it counts as measured rather than as the slowest few samples.
const minBeyond = 10

// percentile returns the Harrell–Davis estimate of the p-quantile
// (0 < p < 1) of xs, and the number of samples ranked above rank
// ⌈(n−1)·p⌉, the upper of the two samples around the plain sample
// quantile. The estimate is a weighted mean of all the sorted samples,
// the i-th weighted by how much of a Beta((n+1)p, (n+1)(1−p)) density
// falls in [(i−1)/n, i/n]. Unlike the sample quantile, which reads one
// or two samples, it moves smoothly when the samples near the quantile
// are far apart, as when units of different sizes, or requests that met
// a slow and a fast host, trade places between runs. xs is not modified.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := float64(len(s))
	a, b := p*(n+1), (1-p)*(n+1)
	below := 0.0
	for i, x := range s {
		upTo := betaInc(a, b, float64(i+1)/n)
		v += (upTo - below) * x
		below = upTo
	}
	return v, len(s) - 1 - int(math.Ceil(p*(n-1)))
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4, evaluated on the side of
// x where it converges fast.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates betaInc's continued fraction by the modified Lentz
// method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	guard := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/guard(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / guard(1+num*d)
		c = guard(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / guard(1+num*d)
		c = guard(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 by the rule Python's
// statistics.quantiles(xs, n=4) uses (the "exclusive" method), so the
// steadiness check's spread matches one computed in Python.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
