package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Reachability mode: doclint -reach MODULE-DIR ALLOWLIST fails on every
// function or method of the module that no program reaches and the
// allowlist does not name. The roots are the root package's exported
// functions and the exported methods of the types it names, every main and
// init, package-level initialisers, and each reference a _test.go file makes
// to another package. A call through an interface reaches that method on
// every type of the module that implements the interface, and every
// interface of an imported standard-library package counts as called. A
// module nested in MODULE-DIR (bench/) is more roots: the functions only it
// reaches are listed, and do not fail.

// maxAllow bounds the allowlist: an exemption is a reason, not a habit.
const maxAllow = 10

// unit is one type-checked package: a directory's files with its in-package
// tests, or its external _test package.
type unit struct {
	path   string // import path; an external test package ends in "_test"
	files  []*ast.File
	test   []bool // per file: a _test.go file
	nested bool   // in a nested module
	pkg    *types.Package
	info   *types.Info
}

type loader struct {
	fset  *token.FileSet
	units map[string]*unit
	std   types.Importer
	root  string // the root module's path
}

// load parses and type-checks every package under root, nested modules
// included.
func load(root string) (*loader, error) {
	l := &loader{fset: token.NewFileSet(), units: map[string]*unit{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	modPath := map[string]string{} // module dir -> module path
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != root && (n[0] == '.' || n[0] == '_' || n == "testdata") {
			return filepath.SkipDir
		}
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			first, _, _ := strings.Cut(string(b), "\n")
			modPath[dir] = strings.TrimSpace(strings.TrimPrefix(first, "module"))
		}
		mod := dir
		for modPath[mod] == "" {
			mod = filepath.Dir(mod)
		}
		path := modPath[mod]
		if rel, _ := filepath.Rel(mod, dir); rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		if err := l.add(path, dir, mod != root, bp.GoFiles, bp.TestGoFiles); err != nil {
			return err
		}
		return l.add(path+"_test", dir, mod != root, nil, bp.XTestGoFiles)
	})
	if err != nil {
		return nil, err
	}
	l.root = modPath[root]
	for path := range l.units {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *loader) add(path, dir string, nested bool, files, tests []string) error {
	if len(files)+len(tests) == 0 {
		return nil
	}
	u := &unit{path: path, nested: nested}
	for i, name := range append(files, tests...) {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		u.files = append(u.files, f)
		u.test = append(u.test, i >= len(files))
	}
	l.units[path] = u
	return nil
}

// Import type-checks a module package, after the packages it imports, and
// hands anything else to the standard-library importer.
func (l *loader) Import(path string) (*types.Package, error) {
	u := l.units[path]
	if u == nil {
		return l.std.Import(path)
	}
	if u.pkg == nil {
		u.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: l}).Check(strings.TrimSuffix(path, "_test"), l.fset, u.files, u.info)
		if err != nil {
			return nil, err
		}
		u.pkg = pkg
	}
	return u.pkg, nil
}

// graph holds every function declaration of the loaded packages, the
// functions each one's body names, and the roots.
type graph struct {
	decls    map[*types.Func]*ast.FuncDecl
	owner    map[*types.Func]*unit
	edges    map[*types.Func][]*types.Func
	roots    []*types.Func
	extRoots []*types.Func // roots in nested modules
	named    []types.Type  // each named non-interface type of the module, and its pointer
}

func funcOf(o types.Object) *types.Func {
	if fn, ok := o.(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

func (l *loader) graph() *graph {
	g := &graph{decls: map[*types.Func]*ast.FuncDecl{}, owner: map[*types.Func]*unit{}, edges: map[*types.Func][]*types.Func{}}
	ifaceRoots := func(o types.Object) { // a standard-library interface's methods
		if it, ok := o.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				g.roots = append(g.roots, it.Method(i))
			}
		}
	}
	ifaceRoots(types.Universe.Lookup("error"))
	for _, u := range l.units {
		root := func(fn *types.Func) {
			if u.nested {
				g.extRoots = append(g.extRoots, fn)
			} else {
				g.roots = append(g.roots, fn)
			}
		}
		refs := func(n ast.Node, add func(*types.Func)) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn := funcOf(u.info.Uses[id]); fn != nil {
						add(fn)
					}
				}
				return true
			})
		}
		for _, imp := range u.pkg.Imports() {
			for _, name := range imp.Scope().Names() {
				if o, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && l.units[imp.Path()] == nil && o.Exported() {
					ifaceRoots(o)
				}
			}
		}
		self := strings.TrimSuffix(u.path, "_test")
		if self == u.path {
			for _, name := range u.pkg.Scope().Names() {
				if tn, ok := u.pkg.Scope().Lookup(name).(*types.TypeName); ok && !types.IsInterface(tn.Type()) {
					g.named = append(g.named, tn.Type(), types.NewPointer(tn.Type()))
				}
			}
		}
		for i, f := range u.files {
			for _, d := range f.Decls {
				fd, isFunc := d.(*ast.FuncDecl)
				switch {
				case u.test[i]: // a test's reference to another package is a root
					refs(d, func(fn *types.Func) {
						if fn.Pkg() != nil && fn.Pkg().Path() != self {
							root(fn)
						}
					})
				case !isFunc: // package-level initialisers
					refs(d, root)
				default:
					fn := funcOf(u.info.Defs[fd.Name])
					g.decls[fn], g.owner[fn] = fd, u
					if fd.Body != nil {
						refs(fd.Body, func(to *types.Func) { g.edges[fn] = append(g.edges[fn], to) })
					}
					switch name := fd.Name.Name; {
					case fd.Recv == nil && (name == "init" || name == "main" && u.pkg.Name() == "main"):
						root(fn)
					case fd.Recv != nil && (name == "Unwrap" || name == "Is" || name == "As"):
						root(fn) // errors.Is and errors.As call these through unnamed interfaces
					}
				}
			}
		}
	}
	if u := l.units[l.root]; u != nil {
		for _, name := range u.pkg.Scope().Names() {
			switch o := u.pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				if o.Exported() {
					g.roots = append(g.roots, o)
				}
			case *types.TypeName:
				ms := types.NewMethodSet(types.NewPointer(o.Type()))
				for i := 0; i < ms.Len() && o.Exported(); i++ {
					if m := ms.At(i).Obj(); m.Exported() {
						g.roots = append(g.roots, funcOf(m))
					}
				}
			}
		}
	}
	return g
}

// reach returns every function reached from the roots. An interface method
// reaches its implementation on each module type that implements the
// interface.
func (g *graph) reach(roots ...[]*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	work := slices.Concat(roots...)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		work = append(work, g.edges[fn]...)
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || !types.IsInterface(recv.Type()) {
			continue
		}
		for _, t := range g.named {
			if types.Implements(t, recv.Type().Underlying().(*types.Interface)) {
				m, _, _ := types.LookupFieldOrMethod(t, false, fn.Pkg(), fn.Name())
				work = append(work, funcOf(m))
			}
		}
	}
	return seen
}

// key names a declaration as "internal/cluster.Cluster.State": its package
// path inside the module (the module path for the root package), then the
// receiver's type name, if any.
func key(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name = t.(*types.Named).Obj().Name() + "." + name
	}
	path := fn.Pkg().Path()
	if _, rel, ok := strings.Cut(path, "/"); ok {
		path = rel
	}
	return path + "." + name
}

// readAllow parses the allowlist: one "key reason..." line per entry, blank
// lines and '#' comments skipped.
func readAllow(file string) (map[string]bool, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		k, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s: %s has no reason", file, k)
		}
		allow[k] = true
	}
	if len(allow) > maxAllow {
		return nil, fmt.Errorf("%s: %d entries, at most %d", file, len(allow), maxAllow)
	}
	return allow, nil
}

func runReach(root, allowFile string) int {
	fails, extOnly, err := checkReach(root, allowFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint -reach:", err)
		return 2
	}
	if len(extOnly) > 0 {
		fmt.Printf("doclint -reach: %d function(s) only a nested module reaches:\n  %s\n",
			len(extOnly), strings.Join(extOnly, "\n  "))
	}
	if len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "%s\ndoclint -reach: %d problem(s)\n", strings.Join(fails, "\n"), len(fails))
		return 1
	}
	return 0
}

// checkReach returns one line per failure — an unreached function, an
// allowlist entry that is reached or names nothing — and one per function
// only a nested module reaches.
func checkReach(root, allowFile string) (fails, extOnly []string, err error) {
	allow, err := readAllow(allowFile)
	var l *loader
	if err == nil {
		l, err = load(root)
	}
	if err != nil {
		return nil, nil, err
	}
	g := l.graph()
	var allowed []*types.Func
	for fn, u := range g.owner {
		if !u.nested && allow[key(fn)] {
			allowed = append(allowed, fn)
			delete(allow, key(fn))
		}
	}
	unexempt := g.reach(g.roots, g.extRoots)
	own, all := g.reach(g.roots, allowed), g.reach(g.roots, allowed, g.extRoots)
	for k := range allow {
		fails = append(fails, fmt.Sprintf("%s: %s names no function", allowFile, k))
	}
	for fn, fd := range g.decls {
		if g.owner[fn].nested || fd.Recv == nil && (fn.Name() == "init" || fn.Name() == "main") {
			continue
		}
		start := fd.Pos()
		if fd.Doc != nil {
			start = fd.Doc.Pos()
		}
		pos := l.fset.Position(fd.Pos())
		line := fmt.Sprintf("%s:%d: %s (%d lines)", filepath.ToSlash(pos.Filename), pos.Line, key(fn),
			l.fset.Position(fd.End()).Line-l.fset.Position(start).Line+1)
		switch {
		case !all[fn]:
			fails = append(fails, line+" is reached by no program")
		case unexempt[fn] && slices.Contains(allowed, fn):
			fails = append(fails, line+" is reached: drop it from "+allowFile)
		case !own[fn]:
			extOnly = append(extOnly, line)
		}
	}
	sort.Strings(fails)
	sort.Strings(extOnly)
	return fails, extOnly, nil
}
