package exp

import (
	"bytes"
	"encoding/csv"
	"testing"
	"time"

	"vmalloc/internal/workload"
)

func sampleResultSet() *ResultSet {
	return &ResultSet{
		Scenarios: []workload.Scenario{
			{Hosts: 4, Services: 10, COV: 0, Slack: 0.5, Seed: 1},
			{Hosts: 4, Services: 10, COV: 0.5, Slack: 0.5, Seed: 2},
		},
		Algos: []string{"A", "REF"},
		ByAlgo: map[string][]Outcome{
			"A":   {{Solved: true, MinYield: 0.5, Elapsed: time.Millisecond}, {Solved: false}},
			"REF": {{Solved: true, MinYield: 0.6, Elapsed: 2 * time.Millisecond}, {Solved: true, MinYield: 0.7}},
		},
	}
}

func TestWriteResultsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleResultSet().WriteResultsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + 2 algos × 2 scenarios.
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][6] != "algorithm" {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][6] != "A" || rows[1][7] != "true" {
		t.Fatalf("row 1 = %v", rows[1])
	}
	if rows[2][7] != "false" {
		t.Fatalf("row 2 = %v", rows[2])
	}
}

func TestWriteErrorCurvesCSV(t *testing.T) {
	curves := []ErrorCurves{
		{MaxErr: 0, Ideal: 0.5, ZeroKnowledge: 0.1, Caps: 0.5, Instances: 3,
			Weight: map[float64]float64{0: 0.5, 0.1: 0.45},
			Equal:  map[float64]float64{0: 0.4, 0.1: 0.42}},
	}
	var buf bytes.Buffer
	if err := WriteErrorCurvesCSV(&buf, curves, []float64{0, 0.1}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != 4+4+1 {
		t.Fatalf("shape = %dx%d", len(rows), len(rows[0]))
	}
	if rows[1][len(rows[1])-1] != "3" {
		t.Fatalf("instances column = %v", rows[1])
	}
}
