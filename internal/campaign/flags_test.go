package campaign

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// parseSpecFlags binds the spec flags on a fresh flag set, parses args and
// returns the spec they describe.
func parseSpecFlags(t *testing.T, args ...string) (Spec, error) {
	t.Helper()
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := BindSpecFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return f.Spec()
}

// TestSpecFlagsDefaults: the flags' defaults expand to exactly the zero
// Spec's job list.
func TestSpecFlagsDefaults(t *testing.T) {
	spec, err := parseSpecFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	got, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Spec{}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("default flags expand to %d jobs, the zero Spec to %d", len(got), len(want))
	}
}

// TestSpecFlagsAxes: list flags split on commas, -bigbang names its
// variants, and malformed values are errors naming their flag.
func TestSpecFlagsAxes(t *testing.T) {
	spec, err := parseSpecFlags(t, "-n", "3, 4", "-bigbang", "both", "-topologies", "hub,bus", "-delta-init", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Ns, []int{3, 4}) || !reflect.DeepEqual(spec.BigBang, []bool{true, false}) ||
		!reflect.DeepEqual(spec.Topologies, []string{TopologyHub, TopologyBus}) || spec.DeltaInit != 4 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec, _ = parseSpecFlags(t, "-bigbang", "off"); !reflect.DeepEqual(spec.BigBang, []bool{false}) {
		t.Fatalf("-bigbang off: BigBang = %v", spec.BigBang)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "3,x"}, `-n: bad integer "x"`},
		{[]string{"-degrees", "1,two"}, `-degrees: bad integer "two"`},
		{[]string{"-bigbang", "maybe"}, `-bigbang: want on, off or both, got "maybe"`},
	} {
		if _, err := parseSpecFlags(t, c.args...); err == nil || err.Error() != c.want {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestJobFlagsDegreeDefault: an unset -degree is the topology's highest
// fault degree; a set one is kept as given, even where it is out of range.
func TestJobFlagsDegreeDefault(t *testing.T) {
	for _, c := range []struct {
		args     []string
		topology string
		want     int
	}{
		{nil, TopologyHub, 6},
		{nil, TopologyBus, 3},
		{[]string{"-degree", "2"}, TopologyBus, 2},
		{[]string{"-degree", "0"}, TopologyHub, 0},
	} {
		fs := flag.NewFlagSet("job", flag.ContinueOnError)
		f := BindJobFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if got := f.Job(c.topology).Degree; got != c.want {
			t.Errorf("%v on %s: degree %d, want %d", c.args, c.topology, got, c.want)
		}
	}
}
