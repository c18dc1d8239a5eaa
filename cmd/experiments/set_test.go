package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"gncg/internal/constructions"
	"gncg/internal/poa"
	"gncg/internal/report"
	"gncg/internal/sweep"
)

// runChild runs the experiments CLI (this test binary in child mode) and
// returns its exit code, stdout and stderr.
func runChild(t *testing.T, args ...string) (int, []byte, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GNCG_EXPERIMENTS_CHILD=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.Bytes(), stderr.String()
}

// TestSetOverrideLowerBounds drives `-set` end to end on the PoA
// lower-bound figures at sizes and prices outside their declared ladders
// (fig6 beyond greedyVerifyLimit, so the unchecked tier runs on a lazy
// host): every cell must carry exactly the row poa.VerifyLowerBound
// computes for the same construction.
func TestSetOverrideLowerBounds(t *testing.T) {
	type want struct {
		lb    *constructions.LowerBound
		limit float64
	}
	build := func(exp string, n int, alpha float64) want {
		var lb *constructions.LowerBound
		var err error
		limit := (alpha + 2) / 2
		switch exp {
		case "fig3":
			if alpha == 1 {
				lb, err = constructions.Thm8AlphaOne(n)
				limit = 1.5
			} else {
				lb, err = constructions.Thm8HalfToOne(n, alpha)
				limit = 3 / (alpha + 2)
			}
		case "fig6":
			lb, err = constructions.Thm15Star(n, alpha)
		case "fig9":
			lb, err = constructions.Lemma8Path(n, alpha)
		case "fig10":
			lb, err = constructions.Thm19CrossPolytope(n, alpha)
		}
		if err != nil {
			t.Fatal(err)
		}
		return want{lb, limit}
	}
	runs := []struct {
		args  []string
		cells int
	}{
		{[]string{"-run", "fig3,fig6,fig9,fig10", "-set", "n=3,7", "-set", "alpha=0.55,0.9,1"}, 24},
		{[]string{"-run", "fig6,fig10", "-set", "alpha=2.5", "-set", "n=11,2100"}, 4},
	}
	tiers := map[string]int{}
	for _, run := range runs {
		code, stdout, stderr := runChild(t, append(run.args, "-tables=false", "-out", "-")...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", run.args, code, stderr)
		}
		rs, err := sweep.DecodeJSON(bytes.NewReader(stdout))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Cells) != run.cells {
			t.Fatalf("%v: %d cells, want %d", run.args, len(rs.Cells), run.cells)
		}
		for _, c := range rs.Cells {
			n, alpha := c.Cell.Int("n"), c.Cell.Float("alpha")
			w := build(c.Experiment, n, alpha)
			row := poa.VerifyLowerBound(w.lb, n)
			expect := map[string]any{
				"ratio": row.Ratio, "tier": row.Tier.String(), "stable": report.Check(row.Stable),
			}
			switch c.Experiment {
			case "fig3":
				expect["limit"] = w.limit
			case "fig6", "fig10":
				expect["predicted"], expect["limit"] = row.Predicted, w.limit
			}
			rec := c.Records[0]
			for key, v := range expect {
				got, ok := rec.Get(key)
				if !ok || report.JSONValue(got) != report.JSONValue(v) {
					t.Errorf("%s n=%d alpha=%v: %s = %v, want %v", c.Experiment, n, alpha, key, got, v)
				}
			}
			tiers[row.Tier.String()]++
		}
	}
	for _, tier := range []string{"NE-exact", "GE-checked", "unchecked"} {
		if tiers[tier] == 0 {
			t.Errorf("no cell verified at tier %s (tiers %v)", tier, tiers)
		}
	}
}

// TestSetOverrideErrors: every malformed override exits 2 with a
// message naming the fault, before any cell runs.
func TestSetOverrideErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-run", "fig6,thm18", "-set", "n=3"}, `experiment "thm18" has no axis "n"`},
		{[]string{"-run", "fig6", "-set", "n=1.5"}, `"1.5" is not a valid int`},
		{[]string{"-run", "fig6", "-set", "n=3,x"}, `"x" is not a valid int`},
		{[]string{"-run", "fig6", "-set", "alpha=NaN"}, "not finite"},
		{[]string{"-run", "fig6", "-set", "alpha=+Inf"}, "not finite"},
		{[]string{"-run", "fig6", "-set", "alpha=-inf"}, "not finite"},
		{[]string{"-run", "fig6", "-set", "alpha=1e999"}, "not a valid float64"},
		{[]string{"-run", "fig6", "-set", "n="}, "empty value list"},
		{[]string{"-run", "fig6", "-set", "n=3,,4"}, `"" is not a valid int`},
		{[]string{"-run", "fig6", "-set", "n"}, "want axis=v1,v2"},
		{[]string{"-run", "fig6", "-set", "n=3", "-set", "n=4"}, `axis "n" given twice`},
		{[]string{"-list", "-run", "fig6", "-set", "seed=1"}, `experiment "fig6" has no axis "seed"`},
	} {
		code, _, stderr := runChild(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.msg) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, stderr, tc.msg)
		}
	}
}

// TestSetOverrideList: -list reports the overridden cell counts.
func TestSetOverrideList(t *testing.T) {
	code, stdout, stderr := runChild(t, "-list", "-quick", "-run", "fig6,fig10", "-set", "n=3,7,2100")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, name := range []string{"fig6", "fig10"} {
		if !regexp.MustCompile(`(?m)^` + name + `\s.*cells=6\s`).Match(stdout) {
			t.Errorf("-list output lacks %s with 6 cells:\n%s", name, stdout)
		}
	}
}
