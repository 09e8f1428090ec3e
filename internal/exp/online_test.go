package exp

import (
	"strings"
	"testing"

	"vmalloc/internal/platform"
)

func TestOnlineSweep(t *testing.T) {
	spec := OnlineSpec{
		Hosts: 4, COV: 0.5,
		Rates:   []float64{1, 4},
		Horizon: 40, Epoch: 4,
		MaxErr: 0.2, Threshold: platform.AdaptiveThreshold,
		Seeds: []int64{1, 2},
	}
	rows, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if rows[0].Rate != 1 || rows[1].Rate != 4 {
		t.Fatalf("rates %v/%v", rows[0].Rate, rows[1].Rate)
	}
	// Higher churn hosts more services on the same platform.
	if rows[1].MeanServices <= rows[0].MeanServices {
		t.Fatalf("rate 4 hosts %.1f services, rate 1 hosts %.1f — churn axis broken",
			rows[1].MeanServices, rows[0].MeanServices)
	}
	for _, r := range rows {
		if r.MeanMinYield < 0 || r.MeanMinYield > 1 {
			t.Fatalf("mean min yield %v out of range", r.MeanMinYield)
		}
		if r.RejectionRate < 0 || r.RejectionRate > 1 {
			t.Fatalf("rejection rate %v out of range", r.RejectionRate)
		}
	}
	table := OnlineTable(rows)
	if !strings.Contains(table, "min yield") || len(strings.Split(strings.TrimSpace(table), "\n")) != 3 {
		t.Fatalf("malformed table:\n%s", table)
	}
}

func TestOnlineSweepBadConfig(t *testing.T) {
	if _, err := (OnlineSpec{Rates: []float64{1}}).Run(); err == nil {
		t.Fatal("zero hosts must error")
	}
}
