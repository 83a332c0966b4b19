package netloc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestCommandUsageListsEveryFlag guards every command's usage header
// against flag drift: each name a cmd/*/main.go registers through
// flag.String, Int, Bool, Float64 or Duration must appear as -name in the
// doc comment above its package clause.
func TestCommandUsageListsEveryFlag(t *testing.T) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no cmd/*/main.go found: the test checks nothing")
	}
	registers := map[string]bool{"String": true, "Int": true, "Bool": true, "Float64": true, "Duration": true}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Doc == nil {
			t.Errorf("%s: no doc comment above package main", path)
			continue
		}
		header := f.Doc.Text()
		var flags []string
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registers[sel.Sel.Name] {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: flag.%s registers a name that is not a string literal", path, sel.Sel.Name)
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			flags = append(flags, name)
			return true
		})
		if len(flags) == 0 {
			t.Errorf("%s registers no flags: the test checks nothing there", path)
		}
		for _, name := range flags {
			if !regexp.MustCompile(`(^|\s)-` + regexp.QuoteMeta(name) + `(\s|$)`).MatchString(header) {
				t.Errorf("%s: usage header does not list -%s", path, name)
			}
		}
	}
}
