package harness

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// microScale keeps harness tests fast: tiny cluster, tiny windows.
func microScale() Scale {
	return Scale{
		DCs: 2, Partitions: 2, KeysPerPartition: 8, ValueSize: 8,
		ThinkTime: 200 * time.Microsecond, LatencyScale: 0.005, JitterFrac: 0.1,
		Warmup: 30 * time.Millisecond, Measure: 120 * time.Millisecond,
		ClientsPerPart: 4, Seed: 7,
	}
}

// TestFreshness is the paper's central claim, run through the one load
// driver: a POCC GET returns the head of its chain, so no read is old, while
// Cure* hides the versions its stabilization has not yet declared stable.
// microScale's latency is too small for a stabilization round to lag behind
// replication, so this one point raises it (and the think time with it).
func TestFreshness(t *testing.T) {
	sc := microScale()
	sc.LatencyScale, sc.ThinkTime = 0.2, 500*time.Microsecond
	load := Load{GetsPerPut: 2, ClientsPerPart: sc.ClientsPerPart, ThinkTime: sc.ThinkTime}
	old := map[cluster.Engine]float64{}
	for _, engine := range []cluster.Engine{cluster.Cure, cluster.POCC} {
		pt, err := run(context.Background(), sc, sc.config(engine), load)
		if err != nil {
			t.Fatal(err)
		}
		old[engine] = pt.GetStale.PercentOld()
	}
	if old[cluster.POCC] != 0 || old[cluster.Cure] <= 0 {
		t.Fatalf("old GETs: POCC %.3f%%, Cure* %.3f%%; want 0 and > 0", old[cluster.POCC], old[cluster.Cure])
	}
}

func experiment(t *testing.T, id string) Experiment {
	t.Helper()
	for _, e := range Experiments() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("Experiments() has no %q", id)
	return Experiment{}
}

// microTables measures every sweep of Experiments() once per test binary, at
// microScale with its axis cut to the first value — the wiring, not the
// curve — and keys the tables by figure id. The two entries that are not
// sweeps are run by partition_test.go and visibility_test.go.
var microTables = sync.OnceValues(func() (map[string]*Table, error) {
	tables := map[string]*Table{}
	for _, e := range Experiments() {
		if e.rows != nil {
			continue
		}
		axis := e.Axis
		e.Axis = func(sc Scale) []int { return axis(sc)[:1] }
		ts, err := e.Run(context.Background(), microScale())
		if err != nil {
			return nil, err
		}
		for _, tab := range ts {
			tables[tab.ID] = tab
		}
	}
	return tables, nil
})

// microTable returns one figure of microTables with its single row.
func microTable(t *testing.T, id string) *Table {
	t.Helper()
	tables, err := microTables()
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[id]
	if tab == nil {
		t.Fatalf("no table %q", id)
	}
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != len(tab.Columns) {
		t.Fatalf("%s: want one row with one cell per column, got %+v", id, tab)
	}
	return tab
}

func TestEveryExperiment(t *testing.T) {
	sweeps, figures := map[string]bool{}, map[string]string{}
	for _, e := range Experiments() {
		if sweeps[e.ID] {
			t.Errorf("sweep id %q used twice", e.ID)
		}
		sweeps[e.ID] = true
		if len(e.Views) == 0 || (e.rows != nil && len(e.Views) != 1) {
			t.Errorf("%s: %d views", e.ID, len(e.Views))
		}
		for _, v := range e.Views {
			if by, dup := figures[v.ID]; dup {
				t.Errorf("figure id %q used by %s and %s", v.ID, by, e.ID)
			}
			figures[v.ID] = e.ID
			if e.rows != nil {
				continue
			}
			if tab := microTable(t, v.ID); tab.Title != v.Title || !slices.Equal(tab.Columns, v.Columns) {
				t.Errorf("%s: table %q %v under view %q %v", v.ID, tab.Title, tab.Columns, v.Title, v.Columns)
			}
		}
	}
	for id, by := range figures {
		if sweeps[id] && by != id {
			t.Errorf("figure %q of %s is also the id of another sweep", id, by)
		}
	}
	for _, id := range []string{"fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig3d"} {
		if figures[id] == "" {
			t.Errorf("the paper's %s is in no experiment", id)
		}
	}
}

// TestSweepAxes pins the axes the table computes from a scale, and that no
// value asks for more than the deployment has (or for no clients at all).
func TestSweepAxes(t *testing.T) {
	clientsCI, clientsPaper := []int{4, 8, 16, 32}, []int{16, 32, 64, 128}
	for _, tc := range []struct {
		id         string
		ci, paper  []int
		partitions bool // the axis counts partitions: the deployment bounds it
	}{
		{"fig1a", []int{2, 4}, []int{2, 4, 8, 16, 24, 32}, true},
		{"fig3a", []int{1, 2, 4}, []int{1, 2, 4, 8, 16, 24, 32}, true},
		{"getput-sweep", clientsCI, clientsPaper, false},
		{"tx-sweep", clientsCI, clientsPaper, false},
	} {
		e := experiment(t, tc.id)
		if ci, paper := e.Axis(CIScale()), e.Axis(PaperScale()); !slices.Equal(ci, tc.ci) || !slices.Equal(paper, tc.paper) {
			t.Errorf("%s: axis %v at CI scale and %v at paper scale, want %v and %v", tc.id, ci, paper, tc.ci, tc.paper)
		}
		for _, sc := range []Scale{microScale(), CIScale(), MediumScale(), PaperScale()} {
			axis := e.Axis(sc)
			if len(axis) == 0 || slices.Min(axis) < 1 || (tc.partitions && slices.Max(axis) > sc.Partitions) {
				t.Errorf("%s: axis %v on %d partitions", tc.id, axis, sc.Partitions)
			}
		}
	}
}

func TestRunProducesThroughput(t *testing.T) {
	sc := microScale()
	pt, err := run(context.Background(), sc, sc.config(cluster.POCC),
		Load{GetsPerPut: 2, ClientsPerPart: sc.ClientsPerPart, ThinkTime: sc.ThinkTime})
	if err != nil {
		t.Fatal(err) // includes any failed operation
	}
	if pt.Throughput <= 0 {
		t.Fatalf("throughput = %v", pt.Throughput)
	}
	if pt.MeanResp <= 0 {
		t.Fatal("mean response time must be positive")
	}
	if pt.Messages == 0 {
		t.Fatal("replication traffic must be counted")
	}
}

func TestRunTxWorkload(t *testing.T) {
	e := Experiment{
		ID: "tx", Axis: fixed(2), Arms: []Arm{{Engine: cluster.Cure}},
		At: func(fanout int, _ *cluster.Config, l *Load) { l.TxPartitions = fanout },
	}
	grid, err := e.Points(context.Background(), microScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 1 || len(grid[0]) != 1 {
		t.Fatalf("grid = %+v, want one value x one arm", grid)
	}
	pt := grid[0][0]
	if pt.Throughput <= 0 {
		t.Fatal("no transactional throughput")
	}
	if pt.TxResp <= 0 {
		t.Fatal("RO-TX latency not recorded")
	}
	if pt.TxStale.Reads == 0 {
		t.Fatal("transactional staleness not recorded")
	}
}

func TestFig1aTableShape(t *testing.T) {
	if tab := microTable(t, "fig1a"); tab.Rows[0][0] != "2" {
		t.Fatalf("table = %+v", tab)
	}
}

func TestFig1cTableShape(t *testing.T) {
	if tab := microTable(t, "fig1c"); tab.Rows[0][0] != "32:1" {
		t.Fatalf("table = %+v", tab)
	}
}

func TestSweepsAndDerivedTables(t *testing.T) {
	if arms := experiment(t, "getput-sweep").Arms; len(arms) != 2 || arms[cure].Engine != cluster.Cure || arms[pocc].Engine != cluster.POCC {
		t.Fatal("sweep must measure (Cure*, POCC) pairs")
	}
	for _, id := range []string{"fig1b", "fig2a", "fig2b"} {
		microTable(t, id)
	}
}

func TestTxSweepAndDerivedTables(t *testing.T) {
	for _, id := range []string{"fig3b", "fig3c", "fig3d"} {
		microTable(t, id)
	}
}

func TestAblations(t *testing.T) {
	for id, first := range map[string]string{
		"ablation-stab": "1.000", "ablation-hb": "0.500", "ablation-skew": "0.000", "ablation-think": "0.100",
	} {
		if tab := microTable(t, id); tab.Rows[0][0] != first {
			t.Errorf("%s: first row %v, want it at %s ms", id, tab.Rows[0], first)
		}
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	var sb strings.Builder
	tab.Fprint(&sb)
	if out := sb.String(); out != "== x — demo ==\na  bb\n1  2\n" {
		t.Fatalf("rendered table: %q", out)
	}
}

func TestScalesAreSane(t *testing.T) {
	for _, sc := range []Scale{CIScale(), MediumScale(), PaperScale()} {
		if sc.DCs < 2 || sc.Partitions < 1 || sc.KeysPerPartition < 1 {
			t.Fatalf("scale %+v", sc)
		}
		if sc.Measure <= 0 || sc.ClientsPerPart <= 0 {
			t.Fatalf("scale %+v", sc)
		}
	}
}
