package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateExpected = flag.Bool("update", false, "rewrite testdata/expected.txt from the current output")

// TestOutputMatchesExpected runs the example and diffs what it prints
// against the committed testdata/expected.txt; -update rewrites it.
func TestOutputMatchesExpected(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "expected.txt")
	if *updateExpected {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from %s (rerun with -update to accept it):\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}
