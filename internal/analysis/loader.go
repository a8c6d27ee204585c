package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the tree under analysis.
type Package struct {
	// Path is the import path ("nestedenclave/internal/sgx").
	Path string
	// Name is the package name from the package clause.
	Name string
	// Fset is shared by every package of one load.
	Fset *token.FileSet
	// Files are the parsed non-test sources, in filename order.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
}

// ModulePathOf reads the module path from dir's go.mod.
func ModulePathOf(dir string) (string, error) {
	return modulePath(filepath.Join(dir, "go.mod"))
}

// LoadModule loads the Go module rooted at dir (the directory holding
// go.mod), reading the module path from go.mod.
func LoadModule(dir string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	return LoadTree(dir, modPath)
}

// LoadTree parses and type-checks every non-test package under root,
// treating root as the module directory for import path modPath. Test files,
// testdata trees, and dot/underscore directories are skipped: the analyzers
// guard product code, and tests legitimately use wall time and ad-hoc RNGs.
// Intra-module imports resolve against the loaded tree; everything else is
// type-checked from the standard library's source.
func LoadTree(root, modPath string) ([]*Package, error) {
	return LoadTreeOverlay(root, modPath, nil)
}

// LoadTreeOverlay is LoadTree with a file overlay: keys are paths relative to
// root (slash-separated), values replace the on-disk content, and a key whose
// file does not exist on disk adds a new file to its directory's package.
// Used by the fault-injection tests to plant a bug in the real module and
// prove the analyzers catch it, without touching the working tree.
func LoadTreeOverlay(root, modPath string, overlay map[string][]byte) ([]*Package, error) {
	fset := token.NewFileSet()
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	type parsed struct {
		path    string
		name    string
		files   []*ast.File
		imports []string
	}
	byPath := make(map[string]*parsed)
	var order []string
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		p := &parsed{path: path}
		names, err := goSources(d)
		if err != nil {
			return nil, err
		}
		// Overlay keys in this directory that name new files join the list.
		for key := range overlay {
			dir, base := filepath.ToSlash(filepath.Dir(key)), filepath.Base(key)
			if dir == "." {
				dir = ""
			}
			relSlash := filepath.ToSlash(rel)
			if relSlash == "." {
				relSlash = ""
			}
			if dir != relSlash {
				continue
			}
			found := false
			for _, n := range names {
				if n == base {
					found = true
				}
			}
			if !found {
				names = append(names, base)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			full := filepath.Join(d, name)
			var src any
			if overlay != nil {
				relFile, err := filepath.Rel(root, full)
				if err == nil {
					if b, ok := overlay[filepath.ToSlash(relFile)]; ok {
						src = b
					}
				}
			}
			f, err := parser.ParseFile(fset, full, src, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: parse: %w", err)
			}
			p.files = append(p.files, f)
			p.name = f.Name.Name
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					p.imports = append(p.imports, ip)
				}
			}
		}
		if len(p.files) == 0 {
			continue
		}
		byPath[path] = p
		order = append(order, path)
	}

	// Topological order over intra-module imports so dependencies are
	// type-checked before their importers.
	sorted, err := topoSort(order, func(path string) []string { return byPath[path].imports })
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		module: make(map[string]*types.Package),
		stdlib: importer.ForCompiler(fset, "source", nil),
	}

	// Type-check concurrently, topo order respected through per-package done
	// channels: a package starts once its intra-module imports are published.
	// The FileSet is internally synchronized; the importer synchronizes its
	// two caches itself. The semaphore is acquired only after the waits, so
	// there is no hold-and-wait deadlock.
	type job struct {
		done chan struct{}
		pkg  *Package
		err  error
	}
	jobs := make(map[string]*job, len(sorted))
	for _, path := range sorted {
		jobs[path] = &job{done: make(chan struct{})}
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, path := range sorted {
		wg.Add(1)
		go func(path string, j *job) {
			defer wg.Done()
			defer close(j.done)
			p := byPath[path]
			for _, dep := range p.imports {
				dj := jobs[dep]
				if dj == nil {
					continue // import outside the loaded tree
				}
				<-dj.done
				if dj.err != nil {
					j.err = fmt.Errorf("analysis: %s: dependency failed: %w", path, dj.err)
					return
				}
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			info := &types.Info{
				Types:      make(map[ast.Expr]types.TypeAndValue),
				Defs:       make(map[*ast.Ident]types.Object),
				Uses:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
				Implicits:  make(map[ast.Node]types.Object),
			}
			conf := types.Config{Importer: imp}
			tpkg, err := conf.Check(path, fset, p.files, info)
			if err != nil {
				j.err = fmt.Errorf("analysis: typecheck %s: %w", path, err)
				return
			}
			imp.publish(path, tpkg)
			j.pkg = &Package{
				Path:  path,
				Name:  p.name,
				Fset:  fset,
				Files: p.files,
				Types: tpkg,
				Info:  info,
			}
		}(path, jobs[path])
	}
	wg.Wait()

	pkgs := make([]*Package, 0, len(sorted))
	for _, path := range sorted {
		j := jobs[path]
		if j.err != nil {
			return nil, j.err
		}
		pkgs = append(pkgs, j.pkg)
	}
	return pkgs, nil
}

// moduleImporter serves already-checked module packages and defers the rest
// to the standard library's source importer. Both sides are synchronized:
// module packages behind an RWMutex, the stdlib source importer (whose
// package cache is not safe for concurrent use) behind its own mutex.
type moduleImporter struct {
	mu     sync.RWMutex
	module map[string]*types.Package

	stdMu  sync.Mutex
	stdlib types.Importer
}

func (m *moduleImporter) publish(path string, pkg *types.Package) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.module[path] = pkg
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	m.mu.RLock()
	p, ok := m.module[path]
	m.mu.RUnlock()
	if ok {
		return p, nil
	}
	m.stdMu.Lock()
	defer m.stdMu.Unlock()
	return m.stdlib.Import(path)
}

// packageDirs lists directories under root containing non-test Go sources.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		srcs, err := goSources(p)
		if err != nil {
			return err
		}
		if len(srcs) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func goSources(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func topoSort(paths []string, deps func(string) []string) ([]string, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(paths))
	known := make(map[string]bool, len(paths))
	for _, p := range paths {
		known[p] = true
	}
	var out []string
	var visit func(string) error
	visit = func(p string) error {
		switch color[p] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("analysis: import cycle through %s", p)
		}
		color[p] = grey
		for _, d := range deps(p) {
			if !known[d] {
				continue // import of a path outside the loaded tree
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		color[p] = black
		out = append(out, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}
