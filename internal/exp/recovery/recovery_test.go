package recovery

import (
	"strings"
	"testing"
)

func TestSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("durable-tier sweep in short mode")
	}
	spec := Spec{
		Hosts:         4,
		Ops:           []int{60, 150},
		SnapshotEvery: []int{-1, 32},
	}
	rows, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byKey := map[[2]int]Row{}
	for _, r := range rows {
		if r.Records == 0 {
			t.Fatalf("cell ops=%d snap=%d journaled nothing", r.Ops, r.SnapshotEvery)
		}
		if r.RecoveryTime <= 0 {
			t.Fatalf("cell ops=%d snap=%d has no recovery time", r.Ops, r.SnapshotEvery)
		}
		byKey[[2]int{r.Ops, r.SnapshotEvery}] = r
	}
	// Without snapshots, recovery replays the full log; with them, less.
	for _, ops := range spec.Ops {
		never := byKey[[2]int{ops, -1}]
		snap := byKey[[2]int{ops, 32}]
		if never.Replayed != int(never.Records) {
			t.Fatalf("snapshot-free recovery replayed %d of %d records", never.Replayed, never.Records)
		}
		if snap.Replayed >= never.Replayed {
			t.Fatalf("checkpointing did not shorten replay: %d vs %d", snap.Replayed, never.Replayed)
		}
		if never.Services != snap.Services {
			t.Fatalf("recovered service counts disagree: %d vs %d", never.Services, snap.Services)
		}
	}

	table := Table(rows)
	for _, want := range []string{"ops", "snap every", "recovery", "never"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
