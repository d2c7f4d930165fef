// Package prob provides the failure-model probability utilities of the
// paper: independent Bernoulli link/node failures and the binomial tail
// bound of §7.1 that picks the minimum failure budget k guaranteeing
// that ignoring scenarios with more than k failures loses at most the
// requested imprecision.
package prob

import "math"

// LinkModel describes independent link failures.
type LinkModel struct {
	// PDown is the probability that any given link is down.
	PDown float64
}

// NodeModel describes independent node failures layered on top of link
// failures: a link behaves as down when it is down itself or either
// endpoint node is down (§6.4, "node failures (dependent link
// failures)").
type NodeModel struct {
	PLinkDown float64
	PNodeDown float64
}

// BinomialTail returns P(X > k) for X ~ Binomial(n, p).
func BinomialTail(n, k int, p float64) float64 {
	if k >= n {
		return 0
	}
	switch {
	case math.IsNaN(p) || p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	// Sum P(X = m) for m in [0, k], in log space for stability, then
	// complement.
	cum := 0.0
	logC := 0.0 // log C(n, 0)
	for m := 0; m <= k; m++ {
		if m > 0 {
			logC += math.Log(float64(n-m+1)) - math.Log(float64(m))
		}
		cum += math.Exp(logC + float64(m)*math.Log(p) + float64(n-m)*math.Log1p(-p))
	}
	if cum > 1 {
		cum = 1
	}
	return 1 - cum
}

// KForImprecision returns the minimum k such that the probability of
// more than k simultaneous failures among n independent elements, each
// failing with probability pDown, is below imprecision (§7.1). Analyses
// that prune scenarios with more than k failures then under-estimate
// probabilities by less than imprecision.
func KForImprecision(n int, pDown, imprecision float64) int {
	for k := 0; k < n; k++ {
		if BinomialTail(n, k, pDown) < imprecision {
			return k
		}
	}
	return n
}
