package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"

	"gncg/internal/report"
	"gncg/internal/sweep"
)

// goldenPath is the pinned quick-sweep output, relative to the repository
// root.
var goldenPath = filepath.Join("cmd", "experiments", "testdata", "golden_quick.json")

// goldenCell names one cell of the pinned quick sweep.
type goldenCell struct {
	experiment, host string
	n                int
	// withLB also compares opt_lb: only cells whose bound comes from
	// opt.LowerBound, as the workload's does.
	withLB bool
}

func (c goldenCell) String() string { return fmt.Sprintf("%s %s n=%d", c.experiment, c.host, c.n) }

// record returns the cell's first record as a field map.
func (c goldenCell) record(root string) (map[string]any, error) {
	f, err := os.Open(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs, err := sweep.DecodeJSON(f)
	if err != nil {
		return nil, err
	}
	for _, cell := range rs.Cells {
		host, _ := cell.Cell.Lookup("host")
		n, _ := cell.Cell.Lookup("n")
		if cell.Experiment != c.experiment || host != c.host || n != c.n || len(cell.Records) == 0 {
			continue
		}
		out := map[string]any{}
		for _, f := range cell.Records[0].Fields {
			out[f.Key] = f.Value
		}
		return out, nil
	}
	return nil, fmt.Errorf("golden cell %s not found in %s", c, goldenPath)
}

// compare checks every field of got against the pinned record, in the
// sweep's own number formatting.
func (c goldenCell) compare(want, got map[string]any, ck *checks) {
	for k, v := range got {
		w, ok := want[k]
		ck.expect(ok && report.JSONValue(w) == report.JSONValue(v),
			"golden cell %s: %s = %s, pinned %s", c, k, report.JSONValue(v), report.JSONValue(w))
	}
}

var cellLine = regexp.MustCompile(`^    \{"seq": (\d+), "experiment": "([^"]*)"`)

// expectedSweep derives, from the pinned quick-sweep output, the exact
// bytes a sweep over the same cells minus the skipped experiments writes:
// the remaining cells keep their bytes and are renumbered in order. It
// also returns the remaining experiment names, in sweep order.
func expectedSweep(golden []byte, skip map[string]bool) ([]byte, []string, error) {
	const head, tail = "{\n  \"cells\": [", "\n  ]\n}\n"
	if !bytes.HasPrefix(golden, []byte(head)) || !bytes.HasSuffix(golden, []byte(tail)) {
		return nil, nil, fmt.Errorf("%s: unexpected framing", goldenPath)
	}
	body := golden[len(head) : len(golden)-len(tail)]
	var out bytes.Buffer
	out.WriteString(head)
	var exps []string
	seq := 0
	for _, line := range bytes.Split(body, []byte(",\n")) {
		line = bytes.TrimPrefix(line, []byte("\n"))
		m := cellLine.FindSubmatchIndex(line)
		if m == nil {
			return nil, nil, fmt.Errorf("%s: unexpected cell line %.60q", goldenPath, line)
		}
		exp := string(line[m[4]:m[5]])
		if skip[exp] {
			continue
		}
		if len(exps) == 0 || exps[len(exps)-1] != exp {
			exps = append(exps, exp)
		}
		if seq > 0 {
			out.WriteByte(',')
		}
		out.WriteString("\n")
		out.Write(line[:m[2]])
		out.WriteString(strconv.Itoa(seq))
		out.Write(line[m[3]:])
		seq++
	}
	out.WriteString(tail)
	return out.Bytes(), exps, nil
}
