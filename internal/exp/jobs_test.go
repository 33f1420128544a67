package exp

import (
	"encoding/json"
	"testing"

	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
)

// TestJobIdentityGolden pins the identity of every job shape the store and
// the verification service's verdict cache already hold: Spec-expanded hub
// and bus jobs, and the Fig. 4, Fig. 6 and IC3 sweeps. Job.ID is the store
// key, the JSON is the record's "job" field, and JobModelDigest is the
// model half of the cache key; a new Job field must leave all three
// byte-identical for jobs that do not set it.
func TestJobIdentityGolden(t *testing.T) {
	spec, err := campaign.Spec{
		Ns: []int{3}, Topologies: []string{campaign.TopologyHub, campaign.TopologyBus},
		Degrees: []int{1, 3}, Lemmas: []string{"safety", "liveness", "safety_2"}, DeltaInit: 4,
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs := []campaign.Job{spec[0], spec[len(spec)-1]}
	for _, j := range spec {
		if j.Lemma == "safety_2" {
			jobs = append(jobs, j)
			break
		}
	}
	def, err := campaign.Spec{}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, def[0])
	f4 := fig4Jobs(Quick, 3, nil)
	jobs = append(jobs, f4[0], f4[len(f4)-1])
	jobs = append(jobs, fig6Jobs(Quick, core.LemmaTimeliness, []int{3})...)
	jobs = append(jobs, fig6Jobs(Quick, core.LemmaSafety2, []int{4})...)
	ic := ic3Pairs(Quick, []int{3})
	jobs = append(jobs, ic[0], ic[len(ic)-1])

	want := []struct{ id, json, digest string }{
		{"hub/n=3/bb=on/fnode=1/deg=1/di=4/safety/symbolic",
			`{"topology":"hub","n":3,"big_bang":true,"faulty_node":1,"faulty_hub":-1,"degree":1,"delta_init":4,"lemma":"safety","engine":"symbolic"}`,
			"dc331de6cc1b969dfce9880c25df7b52e5abe418707ef9a4d73f8a8361febcd6"},
		{"bus/n=3/fnode=1/deg=3/di=4/liveness/symbolic",
			`{"topology":"bus","n":3,"big_bang":false,"faulty_node":1,"faulty_hub":-1,"degree":3,"delta_init":4,"lemma":"liveness","engine":"symbolic"}`,
			"c766853b72f11ae854a1394910cc2f9f22d7adbef5fd2055d2788eeb8e702550"},
		{"hub/n=3/bb=on/fhub=0/di=4/safety_2/symbolic",
			`{"topology":"hub","n":3,"big_bang":true,"faulty_node":-1,"faulty_hub":0,"degree":0,"delta_init":4,"lemma":"safety_2","engine":"symbolic"}`,
			"0eb5d0a33d2f8945526ce7c91efc76eb515e84e9957d1046b4ad9c40f3a223c9"},
		{"hub/n=3/bb=on/fnode=1/deg=1/safety/symbolic",
			`{"topology":"hub","n":3,"big_bang":true,"faulty_node":1,"faulty_hub":-1,"degree":1,"lemma":"safety","engine":"symbolic"}`,
			"e12fae426ec2e04fb5d844737ad568e2ad62caa9523aeaf04777458d88176d0a"},
		{"hub/n=3/bb=on/fnode=1/deg=1/di=4/safety/symbolic",
			`{"topology":"hub","n":3,"big_bang":true,"faulty_node":1,"faulty_hub":-1,"degree":1,"delta_init":4,"lemma":"safety","engine":"symbolic"}`,
			"dc331de6cc1b969dfce9880c25df7b52e5abe418707ef9a4d73f8a8361febcd6"},
		{"hub/n=3/bb=on/fnode=1/deg=5/di=4/timeliness/symbolic",
			`{"topology":"hub","n":3,"big_bang":true,"faulty_node":1,"faulty_hub":-1,"degree":5,"delta_init":4,"lemma":"timeliness","engine":"symbolic"}`,
			"334f0b3a2708c8f84727a1f4f3c55704ada08ccbf1adf2f78788f5450c3ad360"},
		{"hub/n=3/bb=on/fnode=1/deg=6/di=4/timeliness/symbolic",
			`{"topology":"hub","n":3,"big_bang":true,"faulty_node":1,"faulty_hub":-1,"degree":6,"delta_init":4,"lemma":"timeliness","engine":"symbolic"}`,
			"7e27758bd2c9af2b2d8e690cd4d07071a0033fe7750bb1c45981a3f75d2686f7"},
		{"hub/n=4/bb=on/fhub=0/di=5/safety_2/symbolic",
			`{"topology":"hub","n":4,"big_bang":true,"faulty_node":-1,"faulty_hub":0,"degree":0,"delta_init":5,"lemma":"safety_2","engine":"symbolic"}`,
			"9bc8d6daa49c8b9e6caba290e9d23aed2d7a7488f5bd14b9d48e3fde9ef853b2"},
		{"bus/n=3/fnode=1/deg=1/di=4/safety/ic3",
			`{"topology":"bus","n":3,"big_bang":false,"faulty_node":1,"faulty_hub":-1,"degree":1,"delta_init":4,"lemma":"safety","engine":"ic3"}`,
			"66dc3ead0362903662fc8d82fd12885b62839f1144a34753a31e2a0b4a8cef03"},
		{"hub/n=3/bb=off/fhub=0/di=4/safety/ic3",
			`{"topology":"hub","n":3,"big_bang":false,"faulty_node":-1,"faulty_hub":0,"degree":0,"delta_init":4,"lemma":"safety","engine":"ic3"}`,
			"13ee505146bd86b2a2a7bc6431ef141fda508bb92a582683719c94230a734264"},
	}
	if len(jobs) != len(want) {
		t.Fatalf("%d jobs, %d golden entries", len(jobs), len(want))
	}
	for i, j := range jobs {
		w := want[i]
		if id := j.ID(); id != w.id {
			t.Errorf("job %d: ID %q, want %q", i, id, w.id)
		}
		data, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != w.json {
			t.Errorf("job %s: JSON\n got %s\nwant %s", w.id, data, w.json)
		}
		digest, err := campaign.JobModelDigest(j)
		if err != nil {
			t.Fatal(err)
		}
		if digest != w.digest {
			t.Errorf("job %s: model digest %s, want %s", w.id, digest, w.digest)
		}
	}
}
