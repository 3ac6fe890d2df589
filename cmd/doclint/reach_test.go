package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeTree writes files (slash path -> content) under a fresh directory.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// reachModule is a module with one function of each kind the pass tells
// apart.
var reachModule = map[string]string{
	"go.mod": "module m\n",
	"api.go": `package m

import "m/internal/a"

// Exported is the root API.
func Exported() error { a.Used(); return a.Err{} }
`,
	"internal/a/a.go": `package a

import "fmt"

type Err struct{}

func (Err) Error() string { return fmt.Sprint(inner()) }
func (Err) Unwrap() error  { return nil }

type S struct{}

func (S) String() string { return "s" }

func init() { fromInit() }

type I interface{ M() }
type T struct{}

func (T) M()      {}
func CallsI(i I)  { i.M() }
func inner() int  { return 1 }
func Used()       { CallsI(T{}) }
func Dead()       {}
func OwnTestOnly() {}
func TestTool()   {}
func Kept()       {}
func BenchOnly()  {}
func fromInit()   {}
`,
	"internal/a/a_test.go":  "package a\n\nimport \"testing\"\n\nfunc TestOwn(t *testing.T) { OwnTestOnly() }\n",
	"internal/b/b.go":       "package b\n",
	"internal/b/b_test.go":  "package b\n\nimport (\n\t\"testing\"\n\n\t\"m/internal/a\"\n)\n\nfunc TestTool(t *testing.T) { a.TestTool() }\n",
	"bench/go.mod":          "module m/bench\n",
	"bench/main.go":         "package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.BenchOnly() }\n",
	"unreached.txt":         "# kept\ninternal/a.Kept checks another function\n",
	"cmd/tool/main.go":      "package main\n\nfunc main() {}\n",
	"internal/a/doc_x.go":   "//go:build ignore\n\npackage a\n\nfunc Ignored() {}\n",
	"internal/empty/README": "no Go here\n",
}

func TestCheckReach(t *testing.T) {
	root := writeTree(t, reachModule)
	fails, extOnly, err := checkReach(root, filepath.Join(root, "unreached.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range fails {
		got = append(got, f[strings.Index(f, ": ")+2:])
	}
	want := []string{
		"internal/a.Dead (1 lines) is reached by no program",
		"internal/a.OwnTestOnly (1 lines) is reached by no program",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fails:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if len(extOnly) != 1 || !strings.HasSuffix(extOnly[0], "internal/a.BenchOnly (1 lines)") {
		t.Errorf("nested-module-only = %q, want BenchOnly alone", extOnly)
	}
}

func TestCheckReachAllowlistRules(t *testing.T) {
	for _, tc := range []struct {
		name, allow, want string
	}{
		{"stale", "internal/a.Used is reached\n", "internal/a.Used (1 lines) is reached: drop it from"},
		{"unknown", "internal/a.Gone was deleted\n", "internal/a.Gone names no function"},
		{"no reason", "internal/a.Dead\n", "has no reason"},
		{"too long", tooLong(), "at most 10"},
	} {
		files := map[string]string{}
		for k, v := range reachModule {
			files[k] = v
		}
		files["unreached.txt"] = tc.allow
		root := writeTree(t, files)
		fails, _, err := checkReach(root, filepath.Join(root, "unreached.txt"))
		all := strings.Join(fails, "\n")
		if err != nil {
			all = err.Error()
		}
		if !strings.Contains(all, tc.want) {
			t.Errorf("%s: got\n%s\nwant a line containing %q", tc.name, all, tc.want)
		}
	}
}

// tooLong is an allowlist one entry past maxAllow.
func tooLong() string {
	var b strings.Builder
	for i := 0; i <= maxAllow; i++ {
		fmt.Fprintf(&b, "internal/a.F%d reason\n", i)
	}
	return b.String()
}
