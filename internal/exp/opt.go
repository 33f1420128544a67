package exp

// The static-optimizer experiment: measure what the model-optimization
// pipeline (internal/gcl/opt — COI slicing, constant propagation, range
// narrowing) buys end to end on the two shipped model families. The
// pipeline must be invisible to the logic: every off/on pair is required
// to agree on its verdict, and the reductions (state variables, commands,
// encoding bits) are reported next to the wall-clock effect.

import "ttastartup/internal/campaign"

// OptCompare checks hub safety and liveness and bus safety on the symbolic
// engine with the pipeline off and on. It errors out if any off/on pair
// disagrees on a verdict.
func OptCompare(scale Scale, n int) ([]Row, string, error) {
	hub, bus := hubAndBus(scale, n)
	var rows []Row
	for _, c := range []struct {
		label string
		job   campaign.Job
		lemma string
	}{{"hub", hub, "safety"}, {"hub", hub, "liveness"}, {"bus", bus, "safety"}} {
		c.job.Lemma = c.lemma
		for _, on := range []bool{false, true} {
			opts := scale.options()
			opts.Opt = on
			row, _, err := cell{c.label, c.job, opts}.run(mPeak)
			if err != nil {
				return nil, "", err
			}
			rows = append(rows, row)
		}
	}
	notes, err := offOn(rows, "the pipeline")
	if err != nil {
		return nil, "", err
	}
	return rows, renderTable("Static model optimization — COI slicing, constant propagation, range narrowing ("+scale.String()+" scale)", rows, notes...), nil
}
