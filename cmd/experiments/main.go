// Command experiments regenerates the quantitative content of every table
// and figure in "Geometric Network Creation Games" (SPAA 2019) through the
// sharded sweep engine (internal/sweep): the results matrix (Table 1), the
// model hierarchy (Fig. 1), the hardness gadgets (Figs. 2, 4, 7), the PoA
// lower-bound families (Figs. 3, 6, 9, 10 and Thms 8, 15, 18, 19, 20), the
// dynamics non-convergence witnesses (Figs. 5, 8, the cycle census), and
// the structural lemmas (Lemmas 1-2, Thms 2-3, Cor. 2).
//
// Usage:
//
//	experiments                        # run everything, print tables
//	experiments -run fig6,thm18        # run selected experiments by name
//	experiments -run poa               # ...or by tag
//	experiments -list                  # list experiment ids, tags, cell counts
//	experiments -quick                 # smaller size ladders (CI-friendly)
//	experiments -run fig6 -set alpha=0.5,2 -set n=10,2500
//	                                   # replace axes of the selected experiments
//	experiments -out results.json      # deterministic JSON results
//	experiments -csv results.csv       # long-format CSV results
//	experiments -wide dir/             # wide-format CSV, one file per experiment
//	experiments -shards 8 -shard 0     # run shard 0 of 8
//	experiments -workers 4             # bound cell-level parallelism
//
//	experiments merge -out merged.json shard0.json shard1.json ...
//	                                   # combine shard outputs (sweep.Merge)
//	experiments serve -job dir/ -shards 4 -out merged.json
//	                                   # durable work-stealing run: journal,
//	                                   # lease protocol, /status endpoint
//	experiments serve -job dir/ -resume
//	                                   # continue a crashed/interrupted job
//	experiments work -connect 127.0.0.1:PORT
//	                                   # join a running job as an extra shard
//
// Sharded runs of the same selection are deterministic: the merged output
// of all K shards is byte-identical to an unsharded run, for any K and
// any worker count; -set overrides change which cells there are, not
// that contract. The merge subcommand decodes shard JSON files,
// deduplicates and reorders cells by global sequence number (failing
// loudly if the inputs disagree on a cell's parameters), and re-encodes —
// no manual JSON surgery required. The serve subcommand runs the whole
// workflow in one invocation: it launches local `work` shard processes
// that lease cells from a durable job store, and writes the merged
// output on completion.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"gncg/internal/sweep"
)

// registerOnce guards the global registry: main registers exactly once,
// and tests can call ensureRegistered freely.
var registerOnce sync.Once

func ensureRegistered() { registerOnce.Do(registerAll) }

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "merge":
			os.Exit(mergeMain(os.Args[2:], os.Stderr))
		case "serve":
			os.Exit(serveMain(os.Args[2:], os.Stderr))
		case "work":
			os.Exit(workMain(os.Args[2:], os.Stderr))
		}
	}
	list := flag.Bool("list", false, "list experiment ids, tags and cell counts, then exit")
	quick := flag.Bool("quick", false, "smaller size ladders")
	run := flag.String("run", "", "comma-separated experiment names and/or tags (default: all)")
	shards := flag.Int("shards", 1, "total number of shards the sweep is partitioned into")
	shard := flag.Int("shard", 0, "this process's shard index in [0, shards)")
	workers := flag.Int("workers", 0, "worker goroutines per shard (0 = GOMAXPROCS)")
	outPath := flag.String("out", "", "write deterministic JSON results to this file ('-' = stdout)")
	csvPath := flag.String("csv", "", "write long-format CSV results to this file ('-' = stdout)")
	widePath := flag.String("wide", "", "write wide-format CSV results (one <experiment>.csv per experiment) into this directory")
	tables := flag.Bool("tables", true, "render result tables to stdout")
	progress := flag.Bool("progress", false, "report per-cell progress on stderr")
	var sets []string
	flag.Func("set", "replace an axis of every selected experiment: axis=v1,v2,… (repeatable, one axis each)",
		func(s string) error { sets = append(sets, s); return nil })
	flag.Parse()

	ensureRegistered()

	// Positional arguments are accepted as extra selectors, preserving the
	// old `experiments fig6 thm18` invocation style.
	spec := *run
	if args := flag.Args(); len(args) > 0 {
		if spec != "" {
			spec += ","
		}
		spec += strings.Join(args, ",")
	}
	exps, err := sweep.Select(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (use -list)\n", err)
		os.Exit(2)
	}
	if exps, err = sweep.Override(exps, sets); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *list {
		for _, e := range exps {
			fmt.Printf("%-12s %-28s cells=%-3d %s\n",
				e.Name, "["+strings.Join(e.Tags, ",")+"]", len(e.Cells(*quick)), e.Title)
		}
		fmt.Printf("\ntags: %s\n", strings.Join(sweep.Tags(), ", "))
		return
	}

	if *outPath == "-" && *csvPath == "-" {
		fmt.Fprintln(os.Stderr, "-out - and -csv - cannot share stdout")
		os.Exit(2)
	}
	// Machine-readable output on stdout must not be interleaved with the
	// text tables; drop the tables unless the user explicitly forced them.
	if *outPath == "-" || *csvPath == "-" {
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "tables" })
		if !explicit {
			*tables = false
		}
	}

	cfg := sweep.Config{
		Quick: *quick, Workers: *workers,
		Shards: *shards, Shard: *shard,
	}
	if *progress {
		cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	rs, err := sweep.Run(exps, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *tables {
		sweep.RenderText(os.Stdout, rs)
	}
	if err := writeResults(rs, *outPath, *csvPath, *widePath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := rs.FirstErr(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// mergeMain implements the merge subcommand: decode shard JSON outputs,
// combine them with sweep.Merge and re-encode. Merging all K shards of a
// run reproduces the unsharded output byte-for-byte; inputs that
// disagree on a cell's parameters (shards of different runs or binaries)
// fail loudly instead of silently dropping a version.
func mergeMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outPath := fs.String("out", "-", "write merged JSON to this file ('-' = stdout)")
	csvPath := fs.String("csv", "", "write merged long-format CSV to this file ('-' = stdout)")
	widePath := fs.String("wide", "", "write merged wide-format CSV (one <experiment>.csv per experiment) into this directory")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: experiments merge [-out merged.json] [-csv merged.csv] [-wide dir] shard.json...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fs.Usage()
		return 2
	}
	if *outPath == "-" && *csvPath == "-" {
		fmt.Fprintln(stderr, "-out - and -csv - cannot share stdout")
		return 2
	}
	var sets []*sweep.ResultSet
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		rs, err := sweep.DecodeJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, err)
			return 1
		}
		sets = append(sets, rs)
	}
	merged, err := sweep.Merge(sets...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// The interchange format strips rendering metadata; wide-CSV schemas
	// come back from the registry.
	ensureRegistered()
	merged.AttachMeta()
	if err := writeResults(merged, *outPath, *csvPath, *widePath); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// lockedWriter serializes concurrent writers (serve's local shard
// subprocesses) onto one underlying stream.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// writeResults writes the selected encodings of one result set: JSON,
// long-format CSV, and the per-experiment wide-format CSV directory.
func writeResults(rs *sweep.ResultSet, outPath, csvPath, widePath string) error {
	if err := writeOut(outPath, rs.EncodeJSON); err != nil {
		return err
	}
	if err := writeOut(csvPath, rs.EncodeCSV); err != nil {
		return err
	}
	if widePath == "" {
		return nil
	}
	if err := os.MkdirAll(widePath, 0o755); err != nil {
		return err
	}
	for _, w := range rs.WideTables() {
		path := filepath.Join(widePath, w.Experiment+".csv")
		if err := writeOut(path, w.Table.EncodeCSV); err != nil {
			return err
		}
	}
	return nil
}

func writeOut(path string, encode func(w io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return encode(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
