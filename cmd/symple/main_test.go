package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFailureKeepsProfile: a run that fails still stops its CPU
// profile, so -profile leaves a complete gzip-compressed pprof file
// rather than an empty one.
func TestRunFailureKeepsProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	err := run([]string{"-profile", path, "-query", "NOPE"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown query "NOPE"`) {
		t.Fatalf("run: %v, want the unknown-query error", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	if len(b) == 0 {
		t.Fatal("profile is empty")
	}
}
