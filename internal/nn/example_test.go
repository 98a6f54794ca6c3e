package nn_test

import (
	"fmt"

	"cottage/internal/nn"
)

// Example trains a tiny classifier on a linearly separable problem and
// classifies a held-out point. Training is deterministic given the seeds,
// so the example output is stable.
func Example() {
	// Class 0: x < 0; class 1: x > 0.
	var xs [][]float64
	var ys []int
	for i := -20; i < 20; i++ {
		x := float64(i) + 0.5
		xs = append(xs, []float64{x})
		if x > 0 {
			ys = append(ys, 1)
		} else {
			ys = append(ys, 0)
		}
	}
	net := nn.New(nn.Config{InputDim: 1, Hidden: []int{8}, NumClasses: 2, Seed: 1})
	if _, err := net.Train(xs, ys, nn.DefaultTrainConfig(200)); err != nil {
		panic(err)
	}
	p := net.NewPredictor(1)
	fmt.Println("class of -3.3:", p.Classify([]float64{-3.3}))
	fmt.Println("class of +7.1:", p.Classify([]float64{7.1}))
	// Output:
	// class of -3.3: 0
	// class of +7.1: 1
}
