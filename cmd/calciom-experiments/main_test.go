package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: an unknown flag or experiment exits 2 before any table
// is printed.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-nonesuch"}, {"-run", "nonesuch"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("calciom-experiments %q: exit %d, want 2", args, code)
		}
		if stdout.Len() > 0 || stderr.Len() == 0 {
			t.Errorf("calciom-experiments %q printed %q to stdout and %q to stderr", args, stdout.String(), stderr.String())
		}
	}
}

// TestRunOne: -list names every experiment, and -run renders the one named.
func TestRunOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "ablation-network ") {
		t.Fatalf("-list: exit %d\n%s", code, stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-run", "ablation-network", "-out", t.TempDir()}, &stdout, &stderr); code != 0 || stdout.Len() == 0 {
		t.Fatalf("-run ablation-network: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
}
