package encdns_test

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsReached: every package under internal/ is
// imported, directly or not, by the non-test code of some cmd/ binary. A
// package only tests, examples or benchmarks reach is surface no binary
// ships, and belongs deleted or wired in, not parked. testutil is
// test-only by design. Imports are read with build.Default, so
// reachability is judged for the host GOOS/GOARCH with no extra build tags.
func TestEveryInternalPackageIsReached(t *testing.T) {
	const module = "encdns/"
	allowed := map[string]bool{module + "internal/testutil": true}

	reached := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module) || reached[imp] {
				continue
			}
			reached[imp] = true
			walk(filepath.FromSlash(strings.TrimPrefix(imp, module)))
		}
	}
	mains, err := filepath.Glob(filepath.Join("cmd", "*"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/ binaries found (%v)", err)
	}
	for _, dir := range mains {
		walk(dir)
	}

	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		pkg, err := build.ImportDir(path, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil // no Go files at all, e.g. testdata
			}
			return err
		}
		if len(pkg.GoFiles)+len(pkg.CgoFiles) == 0 {
			return nil // tests only: nothing a binary could import
		}
		if imp := module + filepath.ToSlash(path); !reached[imp] && !allowed[imp] {
			t.Errorf("%s: no cmd/ binary imports it", imp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
