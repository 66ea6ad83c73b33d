package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestUsageErrors: an unknown flag or policy exits 2 and an unreadable
// trace 1, before the study prints anything.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-nonesuch"}, 2},
		{[]string{"-policy", "nonesuch"}, 2},
		{[]string{"-file", filepath.Join(t.TempDir(), "missing.swf")}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("calciom-machine %q: exit %d, want %d", tc.args, code, tc.code)
		}
		if stdout.Len() > 0 || stderr.Len() == 0 {
			t.Errorf("calciom-machine %q printed %q to stdout and %q to stderr", tc.args, stdout.String(), stderr.String())
		}
	}
}
