package stats_test

import (
	"fmt"

	"cottage/internal/stats"
)

// ExampleFitGamma fits a Gamma distribution to a score sample the way the
// Taily baseline models per-term score distributions.
func ExampleFitGamma() {
	scores := []float64{1, 1, 2, 2, 2, 3, 3, 4, 5, 9}
	g, err := stats.FitGamma(scores)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean %.1f, P(X > 6) = %.3f\n", g.Mean(), g.TailProb(6))
	// Output:
	// mean 3.2, P(X > 6) = 0.112
}
