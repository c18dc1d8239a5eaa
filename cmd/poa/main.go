// Command poa sweeps the paper's Price-of-Anarchy lower-bound families
// over α grids and size ladders, printing the measured ratio, the
// closed-form prediction and the verification tier per cell. It is the
// focused companion to cmd/experiments for regenerating Figures 3, 6, 9
// and 10 at custom resolutions.
//
// Usage:
//
//	poa -family thm15 -alphas 0.5,1,2,4 -sizes 4,8,16,64
//	poa -family thm19 -alphas 1,4 -sizes 1,2,5,10,25
//	poa -family thm8a1 -sizes 2,4,8
//	poa -family thm8half -alphas 0.5,0.75,0.9 -sizes 2,4,8
//	poa -family lemma8 -alphas 1,3 -sizes 3,5,8
//	poa -family thm15 -sizes 1000,2500,4000 -verify-workers 0
//
// Hosts are lazy, so size ladders extend to thousands of agents in O(n)
// memory (e.g. `poa -family thm15 -sizes 1000,2500,5000`); instances
// beyond the verification tiers' reach report their measured ratio with
// tier "unchecked" instead of launching a quadratic stability check.
// -verify-workers shards the equilibrium checks (0 = GOMAXPROCS): the
// greedy tier's size cutoff scales ~√workers, so multi-core runs verify
// rungs a single worker would leave unchecked, with verdicts identical
// to the serial check. The cert_skipped column counts agents whose
// gain-bound certificate proved them stable without a candidate scan.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gncg/internal/poa"
	"gncg/internal/report"
)

var csvOut = flag.Bool("csv", false, "emit CSV instead of aligned tables")

func main() {
	family := flag.String("family", "thm15", "thm15 | thm19 | thm8a1 | thm8half | lemma8")
	alphasFlag := flag.String("alphas", "1,4", "comma-separated alpha grid")
	sizesFlag := flag.String("sizes", "4,8,16", "comma-separated size ladder (n, d or N per family)")
	verifyWorkers := flag.Int("verify-workers", 1, "equilibrium-verification workers per cell (0 = GOMAXPROCS); raises the greedy tier's size cutoff ~sqrt(workers)")
	flag.Parse()
	if *csvOut {
		fmt.Println("family,alpha,size,ratio,predicted,tier,stable,verify_workers,cert_skipped")
	}

	alphas, err := parseFloats(*alphasFlag)
	if err != nil {
		fail(err)
	}
	sizes, err := parseInts(*sizesFlag)
	if err != nil {
		fail(err)
	}

	sweep := func(title string, alpha float64) {
		rows, err := poa.SweepFamily(*family, alpha, sizes, *verifyWorkers)
		if err != nil {
			fail(err)
		}
		render(title, rows)
	}

	switch *family {
	case "thm15":
		for _, a := range alphas {
			sweep(fmt.Sprintf("Thm 15 T-GNCG star, alpha=%g (limit %.4f)", a, (a+2)/2), a)
		}
	case "thm19":
		for _, a := range alphas {
			sweep(fmt.Sprintf("Thm 19 l1 cross-polytope, alpha=%g (limit %.4f)", a, (a+2)/2), a)
		}
	case "thm8a1":
		sweep("Thm 8 1-2 clique-of-stars, alpha=1 (limit 1.5)", 1)
	case "thm8half":
		for _, a := range alphas {
			if a < 0.5 || a >= 1 {
				fail(fmt.Errorf("thm8half requires 0.5 <= alpha < 1, got %g", a))
			}
			sweep(fmt.Sprintf("Thm 8 1-2 clique-of-stars, alpha=%g (limit %.4f)", a, 3/(a+2)), a)
		}
	case "lemma8":
		for _, a := range alphas {
			sweep(fmt.Sprintf("Lemma 8 path-vs-star, alpha=%g", a), a)
		}
	default:
		fail(fmt.Errorf("unknown family %q", *family))
	}
}

func render(title string, rows []poa.Row) {
	if *csvOut {
		w := csv.NewWriter(os.Stdout)
		for _, r := range rows {
			rec := []string{
				title,
				strconv.FormatFloat(r.Alpha, 'g', -1, 64),
				strconv.Itoa(r.Size),
				strconv.FormatFloat(r.Ratio, 'g', 10, 64),
				strconv.FormatFloat(r.Predicted, 'g', 10, 64),
				r.Tier.String(),
				strconv.FormatBool(r.Stable),
				strconv.Itoa(r.VerifyWorkers),
				strconv.Itoa(r.CertSkipped),
			}
			if err := w.Write(rec); err != nil {
				fail(err)
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			fail(err)
		}
		return
	}
	t := report.NewTable(title, "size", "ratio", "predicted", "tier", "stable", "workers", "cert_skipped")
	for _, r := range rows {
		stable, workers, skipped := "-", "-", "-"
		if r.Tier != poa.TierNone {
			stable = report.Check(r.Stable)
			workers = strconv.Itoa(r.VerifyWorkers)
		}
		if r.Tier == poa.TierGreedy {
			skipped = strconv.Itoa(r.CertSkipped)
		}
		t.AddRow(r.Size, r.Ratio, r.Predicted, r.Tier.String(), stable, workers, skipped)
	}
	t.Render(os.Stdout)
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad int %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "poa:", err)
	os.Exit(1)
}
