package campaign

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// SpecFlags is the spec-axis flag group of the campaign front ends
// (ttacampaign, ttactl submit): -n, -topologies, -bigbang, -degrees,
// -lemmas, -engines and -delta-init. Its defaults expand to the same jobs
// as the zero Spec.
type SpecFlags struct {
	ns, topologies, bigBang, degrees, lemmas, engines string
	deltaInit                                         int
}

// BindSpecFlags declares the spec-axis flags on fs.
func BindSpecFlags(fs *flag.FlagSet) *SpecFlags {
	f := &SpecFlags{}
	fs.StringVar(&f.ns, "n", "3", "comma-separated cluster sizes")
	fs.StringVar(&f.topologies, "topologies", TopologyHub, "comma-separated topologies: hub, bus")
	fs.StringVar(&f.bigBang, "bigbang", "on", "hub big-bang variants: on, off, both")
	fs.StringVar(&f.degrees, "degrees", "1,2,3,4,5,6", "comma-separated fault degrees")
	fs.StringVar(&f.lemmas, "lemmas", "safety,liveness,timeliness,safety_2", "comma-separated lemmas")
	fs.StringVar(&f.engines, "engines", "symbolic", "comma-separated engines: symbolic, explicit, bmc, induction, ic3")
	fs.IntVar(&f.deltaInit, "delta-init", 0, "power-on window in slots (0: each model's default)")
	return f
}

// Spec returns the spec the parsed flags describe. A malformed integer
// list or -bigbang value is an error naming its flag; the axes' values
// are checked by Spec.Jobs.
func (f *SpecFlags) Spec() (Spec, error) {
	spec := Spec{
		Topologies: splitList(f.topologies),
		Lemmas:     splitList(f.lemmas),
		Engines:    splitList(f.engines),
		DeltaInit:  f.deltaInit,
	}
	var err error
	if spec.Ns, err = ParseInts(f.ns); err != nil {
		return Spec{}, fmt.Errorf("-n: %w", err)
	}
	if spec.Degrees, err = ParseInts(f.degrees); err != nil {
		return Spec{}, fmt.Errorf("-degrees: %w", err)
	}
	switch f.bigBang {
	case "on":
		spec.BigBang = []bool{true}
	case "off":
		spec.BigBang = []bool{false}
	case "both":
		spec.BigBang = []bool{true, false}
	default:
		return Spec{}, fmt.Errorf("-bigbang: want on, off or both, got %q", f.bigBang)
	}
	return spec, nil
}

// JobFlags is the single-job flag group of ttamc and ttalint: -n,
// -faulty-node, -faulty-hub, -degree, -delta-init, the five design
// switches and -restartable. The topology, lemma and engine are the
// caller's.
type JobFlags struct {
	fs        *flag.FlagSet
	job       Job
	noBigBang bool
}

// BindJobFlags declares the single-job flags on fs.
func BindJobFlags(fs *flag.FlagSet) *JobFlags {
	f := &JobFlags{fs: fs}
	j := &f.job
	fs.IntVar(&j.N, "n", 3, "cluster size (number of nodes)")
	fs.IntVar(&j.FaultyNode, "faulty-node", -1, "inject a faulty node with this id (-1: none)")
	fs.IntVar(&j.FaultyHub, "faulty-hub", -1, "inject a faulty hub on this channel (-1: none, hub topology only)")
	fs.IntVar(&j.Degree, "degree", 0, "fault degree δ_failure (hub: 1..6, Fig. 3; bus: 1..3; unset: the topology's highest)")
	fs.IntVar(&j.DeltaInit, "delta-init", 0, "power-on window in slots (0: the paper's default)")
	fs.BoolVar(&j.NoFeedback, "no-feedback", false, "disable the feedback state-space reduction")
	fs.BoolVar(&f.noBigBang, "no-big-bang", false, "disable the big-bang mechanism (Section 5.2 variant)")
	fs.BoolVar(&j.NoInterlinks, "no-interlinks", false, "sever the guardian interlinks (the conclusion's future-work variant)")
	fs.BoolVar(&j.NoCSPriority, "no-cs-priority", false, "ablation: drop valid-cs preference in guardian arbitration")
	fs.BoolVar(&j.NoCSWindow, "no-cs-window", false, "ablation: drop the nodes' cold-start acceptance window")
	fs.BoolVar(&j.NoWatchdog, "no-watchdog", false, "ablation: drop the guardians' ACTIVE silence watchdog")
	fs.BoolVar(&j.Restartable, "restartable", false, "allow one transient restart per correct node (the Section 2.1 restart problem)")
	return f
}

// Job returns the job the parsed flags describe on topology. Big-bang is
// on unless -no-big-bang (the bus has none), and an unset -degree is the
// topology's highest fault degree: 6 on the hub, 3 on the bus.
func (f *JobFlags) Job(topology string) Job {
	j := f.job
	j.Topology = topology
	j.BigBang = topology == TopologyHub && !f.noBigBang
	degreeSet := false
	f.fs.Visit(func(fl *flag.Flag) { degreeSet = degreeSet || fl.Name == "degree" })
	if !degreeSet {
		j.Degree = maxHubDegree
		if topology == TopologyBus {
			j.Degree = maxBusDegree
		}
	}
	return j
}

// ParseInts parses a comma-separated integer list; empty items are
// skipped.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitList splits a comma-separated list, trimming spaces and skipping
// empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
