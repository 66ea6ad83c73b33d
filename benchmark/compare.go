package main

import (
	"fmt"
	"io"
	"math"
)

// verdict judges candidate b against baseline a under def's bounds. The
// relative difference is symmetric and zero-safe: it divides by the larger
// magnitude, so allocs_per_op going 0 -> 0 is "ok" and not NaN, and swapping
// the files flips improvements and regressions without changing their size.
func verdict(def metricDef, a, b float64) string {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return "unresolved"
	}
	worse := b - a
	if def.Better == "higher" {
		worse = a - b
	}
	if worse <= def.Abs {
		return "ok"
	}
	if worse/math.Max(math.Abs(a), math.Abs(b)) <= def.Rel {
		return "ok"
	}
	return "worse"
}

// untraced indexes a result file's tracing-off runs by workload.
func untraced(path string) (map[string]*result, error) {
	var rf resultFile
	if err := readJSON(path, &rf); err != nil {
		return nil, err
	}
	runs := map[string]*result{}
	for _, r := range rf.Runs {
		if !r.Traced {
			runs[r.Workload] = r
		}
	}
	return runs, nil
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// values, the ratio and its base, and the verdict; it reports whether every
// row was "ok".
func compareFiles(w io.Writer, pathA, pathB string) (clean bool, err error) {
	a, err := untraced(pathA)
	if err != nil {
		return false, err
	}
	b, err := untraced(pathB)
	if err != nil {
		return false, err
	}
	clean = true
	fmt.Fprintf(w, "a = %s\nb = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-20s %-20s %14s %14s %-10s %10s  %s\n", "workload", "metric", "a", "b", "unit", "b/a", "verdict")
	for _, name := range workloadNames {
		ra, rb := a[name], b[name]
		if ra != nil && rb != nil && ra.Env != rb.Env {
			fmt.Fprintf(w, "%-20s note: measured in different environments (%+v vs %+v)\n", name, ra.Env, rb.Env)
		}
		for _, def := range endToEndDefs {
			va, okA := lookup(ra, def.Name)
			vb, okB := lookup(rb, def.Name)
			if !okA && !okB && (ra == nil) == (rb == nil) {
				// Absent on both sides alike: a workload neither file ran,
				// or a metric the workload does not have (wire bytes offline).
				continue
			}
			v := "unresolved" // a value is missing on one side
			if okA && okB {
				v = verdict(def, va, vb)
			}
			ratioCol := "-"
			if okA && okB && va != 0 {
				ratioCol = fmt.Sprintf("%.4f", vb/va)
			}
			fmt.Fprintf(w, "%-20s %-20s %14.4f %14.4f %-10s %10s  %s (bound %.3g of max(|a|,|b|), floor %.3g)\n",
				name, def.Name, va, vb, def.Unit, ratioCol, v, def.Rel, def.Abs)
			clean = clean && v == "ok"
		}
	}
	return clean, nil
}

func lookup(r *result, name string) (float64, bool) {
	if r == nil {
		return math.NaN(), false
	}
	v, ok := r.Metrics[name]
	return v.Value, ok
}
