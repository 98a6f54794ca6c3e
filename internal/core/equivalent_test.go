package core

import "testing"

func TestQueueBacklogMS(t *testing.T) {
	cases := []struct {
		depth int
		avg   float64
		want  float64
	}{
		{0, 5, 0},
		{-1, 5, 0},
		{3, 0, 0},
		{3, -2, 0},
		{4, 2.5, 10},
		{1, 0.25, 0.25},
	}
	for _, c := range cases {
		if got := QueueBacklogMS(c.depth, c.avg); got != c.want {
			t.Errorf("QueueBacklogMS(%d, %g) = %g, want %g", c.depth, c.avg, got, c.want)
		}
	}
}
