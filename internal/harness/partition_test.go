package harness

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestPartitionExperiment(t *testing.T) {
	sc := microScale()
	sc.Measure = 300 * time.Millisecond // three phases of 150 ms
	tables, err := experiment(t, "partition").Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 engines x 3 phases)", len(tab.Rows))
	}
	// Every phase reports its own counters, and only HA-POCC sessions fall back.
	const engine, blocked, fallbacks = 0, 4, 5
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %v under columns %v", row, tab.Columns)
		}
		for _, col := range []int{blocked, fallbacks} {
			if _, err := strconv.ParseUint(row[col], 10, 64); err != nil {
				t.Errorf("row %v: %s is not a count: %v", row, tab.Columns[col], err)
			}
		}
		if row[engine] != cluster.HAPOCC.String() && row[fallbacks] != "0" {
			t.Errorf("row %v: only HA-POCC sessions fall back", row)
		}
	}
}
