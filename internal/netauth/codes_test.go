package netauth

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"xorpuf/internal/telemetry"
)

// declaredCodes returns the value of every Code* string constant declared
// in the package's non-test sources, so a code added without a table entry
// is caught here rather than on the wire.
func declaredCodes(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if !strings.HasPrefix(id.Name, "Code") || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out[id.Name] = v
				}
			}
		}
	}
	return out
}

// TestEveryCodeRoundTripsAndCountsItself: every Code* constant has its own
// wire byte, decodes back from it, and increments its own
// netauth_deny_<code>_total, never netauth_deny_other_total.
func TestEveryCodeRoundTripsAndCountsItself(t *testing.T) {
	declared := declaredCodes(t)
	if len(declared) != len(codes) {
		t.Fatalf("%d Code* constants declared, %d in the code table: %v", len(declared), len(codes), declared)
	}
	reg := telemetry.NewRegistry()
	m := newServerMetrics(reg)
	other := reg.Counter("netauth_deny_other_total")
	seen := map[byte]string{}
	for name, code := range declared {
		b := codeToByte(code)
		if prev, dup := seen[b]; dup {
			t.Fatalf("%s and %s share wire byte %d", name, prev, b)
		}
		seen[b] = name
		if got := codeFromByte(b); got != code {
			t.Fatalf("%s: byte %d decodes to %q, want %q", name, b, got, code)
		}
		c := reg.Counter("netauth_deny_" + code + "_total")
		before := c.Value()
		m.deny(code)
		if c.Value() != before+1 {
			t.Fatalf("%s: netauth_deny_%s_total did not count the denial", name, code)
		}
		if other.Value() != 0 {
			t.Fatalf("%s: denial counted as netauth_deny_other_total", name)
		}
	}
	for _, b := range []byte{0, byte(len(codes) + 1), 255} {
		if got := codeFromByte(b); got != CodeBadMessage {
			t.Fatalf("unknown byte %d decodes to %q, want %q", b, got, CodeBadMessage)
		}
	}
	if b := codeToByte("no_such_code"); b != codeToByte(CodeBadMessage) {
		t.Fatalf("unknown code encodes as byte %d, want bad_message's", b)
	}
	m.deny("no_such_code")
	if other.Value() != 1 {
		t.Fatal("an unknown code was not counted as netauth_deny_other_total")
	}
}
