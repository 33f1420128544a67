package exp

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestMatrixMatchesCommittedBench pins the opt and order experiments to
// their committed BENCH files: every field except cpu_ms — verdicts, peak
// nodes, sifting passes, optimizer reductions — must come back identical,
// row by row.
func TestMatrixMatchesCommittedBench(t *testing.T) {
	for _, tc := range []struct {
		file string
		run  func() ([]Row, string, error)
	}{
		{"../../BENCH_opt.json", func() ([]Row, string, error) { return OptCompare(Quick, 4) }},
		{"../../BENCH_order.json", func() ([]Row, string, error) { return OrderCompare(Quick, 3) }},
	} {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		var want struct {
			Scale string `json:"scale"`
			Rows  []Row  `json:"rows"`
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		rows, table, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if want.Scale != Quick.String() || len(rows) != len(want.Rows) {
			t.Fatalf("%s: %d %s rows, fresh run has %d:\n%s", tc.file, len(want.Rows), want.Scale, len(rows), table)
		}
		for i := range rows {
			got, w := rows[i], want.Rows[i]
			got.CPUMS, w.CPUMS = 0, 0
			if !reflect.DeepEqual(got, w) {
				t.Errorf("%s row %d:\n got %+v\nwant %+v", tc.file, i, got, w)
			}
		}
	}
}
