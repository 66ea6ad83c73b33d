// Command calciom-experiments regenerates every table and figure of the
// CALCioM paper's evaluation on the simulated platforms and prints them as
// text tables (optionally also CSV files).
//
// Usage:
//
//	calciom-experiments                 # run everything to stdout
//	calciom-experiments -list           # list experiment IDs
//	calciom-experiments -run fig9       # run one experiment
//	calciom-experiments -out results/   # also write <id>.txt and <id>.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it writes the tables to stdout and returns the exit
// status — 2 when the command line is at fault, 1 when writing failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calciom-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	id := fs.String("run", "all", "experiment ID to run, or 'all'")
	out := fs.String("out", "", "directory to write <id>.txt and <id>.csv files")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-22s %s\n", e.ID, e.Paper)
		}
		return 0
	}

	selected := experiments.All()
	if *id != "all" {
		e := experiments.ByID(*id)
		if e == nil {
			fmt.Fprintf(stderr, "unknown experiment %q; try -list\n", *id)
			return 2
		}
		selected = []experiments.Experiment{*e}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	for _, e := range selected {
		tbl := e.Run()
		err := tbl.Render(stdout)
		fmt.Fprintln(stdout)
		if err == nil && *out != "" {
			err = writeFiles(*out, tbl.ID, tbl)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

func writeFiles(dir, id string, tbl *experiments.Table) error {
	txt, err := os.Create(filepath.Join(dir, id+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := tbl.Render(txt); err != nil {
		return err
	}
	csvf, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer csvf.Close()
	return tbl.WriteCSV(csvf)
}
