package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGate runs the gate over testdata/fixture, a module whose
// internal/ packages hold a method reached only through a used
// interface, a method on a type repro.go aliases, an allowlisted
// oracle and a build-tagged file pair. Unchanged the fixture passes;
// each planted file or allowlist line must make the gate fail naming
// its offender.
func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant map[string]string // path in the fixture -> content appended
		want  string            // offender the gate must name; "" = pass
	}{
		{name: "fixture passes"},
		{
			name: "a caller in a nested module counts",
			plant: map[string]string{
				"internal/shape/used.go": "package shape\n\nfunc Planted() int { return 2 }\n",
				"bench/go.mod":           "module fixture/bench\n\ngo 1.24\n\nrequire fixture v0.0.0\n\nreplace fixture => ../\n",
				"bench/main.go":          "package main\n\nimport \"fixture/internal/shape\"\n\nfunc main() { println(shape.Planted()) }\n",
			},
		},
		{
			name:  "dead function",
			plant: map[string]string{"internal/shape/dead.go": "package shape\n\nfunc Planted() int { return 2 }\n"},
			want:  "internal/shape.Planted (internal/shape/dead.go:3) is exported but nothing",
		},
		{
			name: "a test caller keeps nothing alive",
			plant: map[string]string{
				"internal/shape/dead.go":      "package shape\n\nfunc Planted() int { return 2 }\n",
				"internal/shape/dead_test.go": "package shape\n\nvar _ = Planted()\n",
			},
			want: "internal/shape.Planted (internal/shape/dead.go:3) is exported but nothing",
		},
		{
			name:  "recursion is not a caller",
			plant: map[string]string{"internal/shape/dead.go": "package shape\n\nfunc Down(n int) int {\n\tif n == 0 {\n\t\treturn 0\n\t}\n\treturn Down(n - 1)\n}\n"},
			want:  "internal/shape.Down (internal/shape/dead.go:3) is exported but nothing",
		},
		{
			name:  "dead method beside an interface method",
			plant: map[string]string{"internal/shape/dead.go": "package shape\n\nfunc (s square) Perimeter() int { return 4 * s.side }\n"},
			want:  "internal/shape.square.Perimeter (internal/shape/dead.go:3) is exported but nothing",
		},
		{
			name:  "an unused interface keeps nothing alive",
			plant: map[string]string{"internal/shape/dead.go": "package shape\n\ntype Edged interface{ Edges() int }\n\nfunc (s square) Edges() int { return 4 }\n"},
			want:  "internal/shape.square.Edges (internal/shape/dead.go:5) is exported but nothing",
		},
		{
			name:  "stale allowlist line",
			plant: map[string]string{"scripts/deadcheck.allow": "internal/shape.Gone  removed long ago\n"},
			want:  "internal/shape.Gone is listed in scripts/deadcheck.allow but not declared",
		},
		{
			name:  "allowlisted name with a caller",
			plant: map[string]string{"cmd/tool/oracle.go": "package main\n\nimport \"fixture/internal/shape\"\n\nvar _ = shape.Oracle()\n"},
			want:  "internal/shape.Oracle (internal/shape/shape.go:22) has a caller now",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := copyFixture(t)
			for name, content := range tc.plant {
				path := filepath.Join(root, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				_, err = f.WriteString(content)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			problems := check(root)
			if tc.want == "" {
				if len(problems) > 0 {
					t.Fatalf("gate failed on the fixture: %q", problems)
				}
				return
			}
			if len(problems) != 1 || !strings.Contains(problems[0], tc.want) {
				t.Fatalf("gate said %q; want exactly one line naming %q", problems, tc.want)
			}
		})
	}
}

// copyFixture copies testdata/fixture into a fresh directory.
func copyFixture(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	src := filepath.Join("testdata", "fixture")
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
