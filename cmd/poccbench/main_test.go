package main

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
)

// None of these runs a sweep: -list, id resolution and argument errors all
// return before the first measurement.

func TestListNamesEverySweepOnce(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 || errOut.Len() != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, errOut.String())
	}
	lines := strings.Split(out.String(), "\n")
	for _, e := range harness.Experiments() {
		n := 0
		for _, line := range lines {
			if strings.HasPrefix(line, e.ID+" ") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("-list opens %d lines with sweep %s, want 1", n, e.ID)
		}
		for _, v := range e.Views {
			if !strings.Contains(out.String(), " "+v.ID+" ") {
				t.Errorf("-list does not show figure %s of %s", v.ID, e.ID)
			}
		}
	}
}

func TestResolve(t *testing.T) {
	exps := harness.Experiments()
	// Every id the tool accepted before its list moved into harness.Experiments.
	for _, id := range []string{
		"fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "getput-sweep",
		"fig3a", "fig3b", "fig3c", "fig3d", "tx-sweep", "partition",
		"ablation-stab", "ablation-hb", "ablation-skew", "visibility", "ablation-think",
	} {
		if figures, err := resolve(exps, id); err != nil || len(figures) != 1 {
			t.Errorf("resolve(%q) = %v, %v; want one sweep", id, figures, err)
		}
	}

	all, err := resolve(exps, "all")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		if len(all[e.ID]) != len(e.Views) {
			t.Errorf("all selects %d of %s's %d figures", len(all[e.ID]), e.ID, len(e.Views))
		}
	}

	// A figure id selects its sweep and that figure only; two figures of one
	// sweep select it once.
	for arg, want := range map[string][]string{
		"fig2a":        {"fig2a"},
		"fig1b, fig2a": {"fig1b", "fig2a"},
		"getput-sweep": {"fig1b", "fig2a", "fig2b"},
	} {
		figures, err := resolve(exps, arg)
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Sorted(maps.Keys(figures["getput-sweep"])); len(figures) != 1 || !slices.Equal(got, want) {
			t.Errorf("resolve(%q) = %v, want getput-sweep: %v", arg, figures, want)
		}
	}
}

func TestUnknownArgumentsExit2(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		offender string
	}{
		{[]string{"-experiment", "fig1a,fig9z"}, `unknown experiments: fig9z`},
		{[]string{"-scale", "huge"}, `unknown scale "huge"`},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), tc.offender) {
			t.Errorf("%v: exit %d, stderr %q; want 2 and %q", tc.args, code, errOut.String(), tc.offender)
		}
		if out.Len() != 0 {
			t.Errorf("%v: ran something: %q", tc.args, out.String())
		}
	}
}
