package analysis

import (
	"path/filepath"
	"testing"
)

// TestCatalogsNameExistingPackages: every package a rule catalog names is a
// directory of Go files in this module. The stale-catalog check passes over
// a package that is not loaded, so an entry naming a deleted package would
// linger unnoticed while its rule matches nothing.
func TestCatalogsNameExistingPackages(t *testing.T) {
	root := mustAbs(t, filepath.Join("..", ".."))
	type entry struct{ catalog, pkg string }
	seen := map[entry]bool{}
	var entries []entry
	add := func(catalog string, pkgs ...string) {
		for _, p := range pkgs {
			if e := (entry{catalog, p}); !seen[e] {
				seen[e] = true
				entries = append(entries, e)
			}
		}
	}
	for _, c := range catalogNames() {
		add(c.catalog, c.pkgSuffix)
	}
	add("replayCriticalPkgs", replayCriticalPkgs...)
	add("spanPairPkgs", spanPairPkgs...)
	add("injectRandPkgs", injectRandPkgs...)
	add("errCheckedPkgs", errCheckedPkgs...)
	for _, e := range entries {
		files, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(e.pkg), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Errorf("%s names %s, which is not a directory of Go files in the module", e.catalog, e.pkg)
		}
	}
}
