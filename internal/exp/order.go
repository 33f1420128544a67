package exp

// The variable-ordering experiment: measure what dynamic pair-grouped
// sifting (internal/bdd's Reorder) buys on the two shipped model families.
// The static interleaved order the compiler emits is already good — the
// interesting question is how much head-room sifting finds on top of it,
// and whether it ever changes a verdict (it must not).

import "ttastartup/internal/campaign"

// orderReorderStart is the node-count threshold that arms the first sifting
// pass in this experiment. It is far below the library default (1<<14 is
// the default ReorderStart) so that reordering demonstrably fires even at
// Quick scale, where the hub fixpoint peaks around a few hundred thousand
// nodes but crosses 4k within the first iterations.
const orderReorderStart = 4096

// OrderCompare runs the hub safety check and the bus safety check with
// dynamic variable reordering off and on, and reports wall time, peak live
// BDD nodes and the number of sifting passes. It errors out if the two
// variants ever disagree on a verdict.
func OrderCompare(scale Scale, n int) ([]Row, string, error) {
	hub, bus := hubAndBus(scale, n)
	var rows []Row
	for _, job := range []campaign.Job{hub, bus} {
		job.Lemma = "safety"
		for _, on := range []bool{false, true} {
			opts := scale.options()
			if on {
				opts.Symbolic.BDD.AutoReorder = true
				opts.Symbolic.BDD.ReorderStart = orderReorderStart
			}
			row, _, err := cell{job.Topology, job, opts}.run(mPeak)
			if err != nil {
				return nil, "", err
			}
			rows = append(rows, row)
		}
	}
	notes, err := offOn(rows, "reordering")
	if err != nil {
		return nil, "", err
	}
	return rows, renderTable("Dynamic variable reordering — pair-grouped sifting ("+scale.String()+" scale)", rows, notes...), nil
}
