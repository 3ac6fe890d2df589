// Command doclint enforces the documentation contract of the public API:
// every exported identifier in the packages it is pointed at must carry a
// doc comment. It exists because the root eccheck package IS the operator
// surface — an undocumented export there is a hole in the manual.
//
// Usage:
//
//	doclint [package-dir ...]                # default: .
//	doclint -reach MODULE-DIR ALLOWLIST      # see reach.go
//
// Exits non-zero listing every exported const, var, func, type, method and
// struct field group that lacks a doc comment. Grouped declarations
// (const/var blocks) pass if either the group or the individual spec is
// documented; struct fields and interface methods are exempt, as Go's own
// conventions leave those to the enclosing type's comment.
//
// Beyond presence, doclint enforces the Go doc convention that a comment
// begins with the identifier it documents ("Config holds ...", optionally
// after a leading article), because go doc and pkg.go.dev render comments
// detached from their declaration — a comment that doesn't name its subject
// is ambiguous there. Block comments on grouped const/var declarations are
// exempt from the name check, since one comment covers several names.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) == 4 && os.Args[1] == "-reach" {
		return runReach(os.Args[2], os.Args[3])
	}
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	var problems []string
	for _, dir := range dirs {
		p, err := lintDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		problems = append(problems, p...)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d exported identifier(s) with missing or malformed doc comments\n", len(problems))
		return 1
	}
	return 0
}

// lintDir parses one package directory (tests excluded) and returns one
// line per undocumented exported identifier.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("doclint: %s: %w", dir, err)
	}
	var out []string
	report := func(pos token.Pos, kind, name, problem string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s %s",
			filepath.ToSlash(p.Filename), p.Line, kind, name, problem))
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		for _, file := range pkg.Files {
			lintFile(file, report)
		}
	}
	return out, nil
}

func lintFile(file *ast.File, report func(token.Pos, string, string, string)) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			kind, name := "function", d.Name.Name
			if d.Recv != nil {
				recv, exported := recvName(d.Recv)
				if !exported {
					continue // methods on unexported types are internal
				}
				kind, name = "method", recv+"."+d.Name.Name
			}
			if d.Doc == nil {
				report(d.Pos(), kind, name, "has no doc comment")
			} else if !leadsWithName(d.Doc, d.Name.Name) {
				report(d.Pos(), kind, name, nameProblem(d.Name.Name))
			}
		case *ast.GenDecl:
			lintGenDecl(d, report)
		}
	}
}

// lintGenDecl checks a const/var/type block: a doc comment on the block
// covers every spec inside it; otherwise each exported spec needs its own.
// Specs carrying their own doc comment must lead with their name; block
// comments are exempt from the name check since one comment covers several
// names.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string, string)) {
	kind := map[token.Token]string{
		token.CONST: "const", token.VAR: "var", token.TYPE: "type",
	}[d.Tok]
	if kind == "" {
		return // imports
	}
	blockDocumented := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			switch {
			case s.Doc != nil:
				// A spec-level comment must name its subject, even inside
				// a documented block.
				if !leadsWithName(s.Doc, s.Name.Name) {
					report(s.Pos(), kind, s.Name.Name, nameProblem(s.Name.Name))
				}
			case blockDocumented || s.Comment != nil:
				// Covered by the block comment or a trailing line comment.
			default:
				report(s.Pos(), kind, s.Name.Name, "has no doc comment")
			}
			// An unparenthesised `type X ...` attaches its comment to the
			// GenDecl, not the spec: apply the name check there too.
			if s.Doc == nil && d.Doc != nil && len(d.Specs) == 1 && !d.Lparen.IsValid() {
				if !leadsWithName(d.Doc, s.Name.Name) {
					report(s.Pos(), kind, s.Name.Name, nameProblem(s.Name.Name))
				}
			}
		case *ast.ValueSpec:
			if s.Doc != nil && len(s.Names) == 1 && s.Names[0].IsExported() {
				if !leadsWithName(s.Doc, s.Names[0].Name) {
					report(s.Pos(), kind, s.Names[0].Name, nameProblem(s.Names[0].Name))
				}
				continue
			}
			if blockDocumented || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(s.Pos(), kind, name.Name, "has no doc comment")
				}
			}
		}
	}
}

// nameProblem is the report suffix for a comment that fails leadsWithName.
func nameProblem(name string) string {
	return fmt.Sprintf("has a doc comment that does not begin with %q", name)
}

// leadsWithName reports whether the doc comment's first word is the
// identifier it documents, per the Go doc convention. A leading article
// ("A", "An", "The") and a "Deprecated:" marker are accepted before the
// name, matching what golint and pkg.go.dev tolerate.
func leadsWithName(doc *ast.CommentGroup, name string) bool {
	text := strings.TrimSpace(doc.Text())
	for _, prefix := range []string{"Deprecated:", "A ", "An ", "The "} {
		if rest, ok := strings.CutPrefix(text, prefix); ok {
			text = strings.TrimSpace(rest)
			break
		}
	}
	rest, ok := strings.CutPrefix(text, name)
	if !ok {
		return false
	}
	// The name must be a whole word: "Save" must not satisfy "SaveAsync".
	return rest == "" || !isWordChar(rune(rest[0]))
}

// isWordChar reports whether r can continue a Go identifier, which is what
// delimits the leading word of a doc comment.
func isWordChar(r rune) bool {
	return r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9')
}

// recvName extracts the receiver's type name and whether it is exported.
func recvName(recv *ast.FieldList) (string, bool) {
	if len(recv.List) == 0 {
		return "", false
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name, id.IsExported()
	}
	return "", false
}
