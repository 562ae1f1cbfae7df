// Package fuzzseed manages the shared fuzz seed corpora under
// testdata/fuzz-seeds/ at the repository root. The corpora are committed
// files, one input per file, grouped by subcorpus directory:
//
//	records/   op streams and query-traffic records (FuzzWireRoundTrip)
//	segments/  encoded shuffle segments, valid and corrupt (FuzzSegmentDecode)
//	segment-files/  newline-delimited input files (FuzzReadSegments)
//
// Fuzz targets load a subcorpus with Load and f.Add every entry, so the
// interesting shapes discovered once are shared by every future run.
// Regenerate with `go test -run UpdateFuzzSeeds -update-fuzz-seeds` in
// the owning package; corrupt-* seeds double as regression inputs the
// decoder must reject.
package fuzzseed

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Seed is one corpus entry: the file's base name and raw contents.
type Seed struct {
	Name string
	Data []byte
}

// dir resolves the seed directory for a subcorpus by walking up from the
// working directory to the module root (the directory holding go.mod) —
// tests run with the package directory as cwd, so a fixed relative path
// would break the moment a package moves.
func dir(sub string) (string, error) {
	d, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return filepath.Join(d, "testdata", "fuzz-seeds", sub), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("fuzzseed: no go.mod above working directory")
		}
		d = parent
	}
}

// Load reads every file of a subcorpus in name order, ReadDir's. A
// missing subcorpus directory is an error: the corpora are committed, so
// absence means the checkout (or an -update run) is incomplete.
func Load(sub string) ([]Seed, error) {
	p, err := dir(sub)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(p)
	if err != nil {
		return nil, fmt.Errorf("fuzzseed: %w (regenerate with -update-fuzz-seeds)", err)
	}
	var seeds []Seed
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(p, ent.Name()))
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, Seed{Name: ent.Name(), Data: b})
	}
	return seeds, nil
}

// Update replaces a subcorpus with the given seeds: the directory is
// recreated so renamed or dropped entries don't linger.
func Update(sub string, seeds []Seed) error {
	p, err := dir(sub)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(p); err != nil {
		return err
	}
	if err := os.MkdirAll(p, 0o755); err != nil {
		return err
	}
	for _, s := range seeds {
		if s.Name == "" || strings.ContainsAny(s.Name, "/\\") {
			return fmt.Errorf("fuzzseed: bad seed name %q", s.Name)
		}
		if err := os.WriteFile(filepath.Join(p, s.Name), s.Data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
