package scidp_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode"
)

// docFiles are the documents that describe the tree as it stands. Each is
// held to the tree by the tests below. CHANGES.md is not among them: it
// is an append-only log, and its entries describe the tree of their time.
var docFiles = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"ROADMAP.md",
	"PAPER.md",
	".claude/skills/verify/SKILL.md",
}

// identDocs are the documents whose backticked Go identifiers must name
// something the module declares.
var identDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// moduleIndex is what the doc tests look references up in: every Go file
// of the module (test files and benchmark/ included, testdata excluded)
// with its line count, every package's declarations, and the benchmark's
// metric names.
type moduleIndex struct {
	lines    map[string]int      // slash path from the module root -> line count
	byBase   map[string][]string // file base name -> slash paths
	pkgDirs  map[string][]string // package name (non-main) -> dirs
	byDir    map[string]*pkgDecls
	types    map[string][]*pkgDecls // type name -> packages declaring it
	metrics  map[string]bool
	comments []*ast.CommentGroup // every Go file's, for the citation check
	fset     *token.FileSet
}

// pkgDecls is one package's package-level names and its types' members;
// an external _test package folds into the package it tests.
type pkgDecls struct {
	names    map[string]bool
	members  map[string]map[string]bool // type -> fields and methods
	embedded map[string][]string        // type -> same-package embedded types
}

func (p *pkgDecls) member(typ, name string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(t string) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		if p.members[t][name] {
			return true
		}
		for _, e := range p.embedded[t] {
			if walk(e) {
				return true
			}
		}
		return false
	}
	return walk(typ)
}

func (p *pkgDecls) anyMember(name string) bool {
	for t := range p.members {
		if p.member(t, name) {
			return true
		}
	}
	return false
}

var (
	indexOnce sync.Once
	index     *moduleIndex
	indexErr  error
)

func loadIndex(t *testing.T) *moduleIndex {
	t.Helper()
	indexOnce.Do(func() { index, indexErr = buildIndex() })
	if indexErr != nil {
		t.Fatal(indexErr)
	}
	return index
}

func buildIndex() (*moduleIndex, error) {
	m := &moduleIndex{
		lines:   map[string]int{},
		byBase:  map[string][]string{},
		pkgDirs: map[string][]string{},
		byDir:   map[string]*pkgDecls{},
		types:   map[string][]*pkgDecls{},
		metrics: map[string]bool{},
		fset:    token.NewFileSet(),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		m.lines[slash] = strings.Count(string(src), "\n") + 1
		m.byBase[filepath.Base(path)] = append(m.byBase[filepath.Base(path)], slash)
		f, err := parser.ParseFile(m.fset, path, src, parser.ParseComments)
		if err != nil {
			return err
		}
		m.comments = append(m.comments, f.Comments...)
		dir := filepath.ToSlash(filepath.Dir(path))
		p := m.byDir[dir]
		if p == nil {
			p = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, embedded: map[string][]string{}}
			m.byDir[dir] = p
		}
		if name := strings.TrimSuffix(f.Name.Name, "_test"); name != "main" && !strings.HasSuffix(path, "_test.go") {
			if !slices.Contains(m.pkgDirs[name], dir) {
				m.pkgDirs[name] = append(m.pkgDirs[name], dir)
			}
		}
		addDecls(m, p, f)
		if slash == "benchmark/metrics.go" {
			ast.Inspect(f, func(n ast.Node) bool {
				if kv, ok := n.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Name" {
						if lit, ok := kv.Value.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							if s, err := strconv.Unquote(lit.Value); err == nil {
								m.metrics[s] = true
							}
						}
					}
				}
				return true
			})
		}
		return nil
	})
	return m, err
}

func addDecls(m *moduleIndex, p *pkgDecls, f *ast.File) {
	addMember := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
				continue
			}
			if typ := baseTypeName(d.Recv.List[0].Type); typ != "" {
				addMember(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					p.names[typ] = true
					if p.members[typ] == nil {
						p.members[typ] = map[string]bool{}
					}
					if !slices.Contains(m.types[typ], p) {
						m.types[typ] = append(m.types[typ], p)
					}
					var fields *ast.FieldList
					switch u := s.Type.(type) {
					case *ast.StructType:
						fields = u.Fields
					case *ast.InterfaceType:
						fields = u.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						if len(fl.Names) == 0 {
							if e := baseTypeName(fl.Type); e != "" {
								addMember(typ, e)
								p.embedded[typ] = append(p.embedded[typ], e)
							}
							continue
						}
						for _, n := range fl.Names {
							addMember(typ, n.Name)
						}
					}
				}
			}
		}
	}
}

// baseTypeName is the type a receiver or an embedded field names: T for
// T, *T and T[X]; "" for a type of another package.
func baseTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return baseTypeName(e.X)
	case *ast.IndexExpr:
		return baseTypeName(e.X)
	case *ast.IndexListExpr:
		return baseTypeName(e.X)
	}
	return ""
}

// codeSpan is one inline code span of a Markdown document.
type codeSpan struct {
	text string
	line int
}

// codeSpans returns the inline code spans of a Markdown document, outside
// fenced code blocks. A span may cross a line break but not a paragraph.
func codeSpans(doc string) []codeSpan {
	var spans []codeSpan
	lines := strings.Split(doc, "\n")
	fenced := false
	var para []string
	start := 0
	flush := func() {
		text := strings.Join(para, "\n")
		for i := 0; i < len(text); {
			if text[i] != '`' {
				i++
				continue
			}
			n := 0
			for i+n < len(text) && text[i+n] == '`' {
				n++
			}
			open := i + n
			end := -1
			for j := open; j < len(text); {
				if text[j] != '`' {
					j++
					continue
				}
				k := 0
				for j+k < len(text) && text[j+k] == '`' {
					k++
				}
				if k == n {
					end = j
					break
				}
				j += k
			}
			if end < 0 {
				i = open
				continue
			}
			body := strings.ReplaceAll(text[open:end], "\n", " ")
			if len(body) > 2 && body[0] == ' ' && body[len(body)-1] == ' ' {
				body = body[1 : len(body)-1]
			}
			spans = append(spans, codeSpan{body, start + strings.Count(text[:i], "\n") + 1})
			i = end + n
		}
		para = para[:0]
	}
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			flush()
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if strings.TrimSpace(l) == "" {
			flush()
			continue
		}
		if len(para) == 0 {
			start = i
		}
		para = append(para, l)
	}
	flush()
	return spans
}

func readDocs(t *testing.T, names []string) map[string]string {
	t.Helper()
	docs := map[string]string{}
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		docs[n] = string(b)
	}
	return docs
}

var goFileRef = regexp.MustCompile(`^([A-Za-z][\w./-]*\.go)(?::(\d+)(?:-(\d+))?)?$`)

// resolveGoFile returns the files a doc's `path.go` names: the path from
// the module root, the path under internal/, or, for a bare name, every
// file of that name.
func (m *moduleIndex) resolveGoFile(p string) []string {
	if !strings.Contains(p, "/") {
		return m.byBase[p]
	}
	var out []string
	for _, c := range []string{p, "internal/" + p} {
		if _, ok := m.lines[c]; ok {
			out = append(out, c)
		}
	}
	return out
}

// TestDocFileReferences fails on a backticked `path.go`, `path.go:N` or
// `path.go:N-M` in a document whose file does not exist or whose lines run
// past the file's end.
func TestDocFileReferences(t *testing.T) {
	m := loadIndex(t)
	for name, doc := range readDocs(t, docFiles) {
		for _, s := range codeSpans(doc) {
			g := goFileRef.FindStringSubmatch(s.text)
			if g == nil {
				continue
			}
			files := m.resolveGoFile(g[1])
			if len(files) == 0 {
				t.Errorf("%s:%d: `%s`: no such file", name, s.line, s.text)
				continue
			}
			last := 0
			for _, n := range g[2:] {
				if n != "" {
					v, _ := strconv.Atoi(n)
					last = max(last, v)
				}
			}
			most := 0
			for _, f := range files {
				most = max(most, m.lines[f])
			}
			if last > most {
				t.Errorf("%s:%d: `%s`: %s has %d lines", name, s.line, s.text, files[0], most)
			}
		}
	}
}

var citation = regexp.MustCompile(`(DESIGN|EXPERIMENTS)\.md,?\s+"([^"]+)"`)

var boldSpan = regexp.MustCompile(`\*\*([^*]+)\*\*`)

// anchors returns a document's headings and bold lead-ins, whitespace
// collapsed: what a citation may name.
func anchors(doc string) []string {
	var out []string
	for _, l := range strings.Split(doc, "\n") {
		if h := strings.TrimLeft(l, "#"); h != l && strings.HasPrefix(h, " ") {
			out = append(out, strings.Join(strings.Fields(h), " "))
		}
	}
	for _, b := range boldSpan.FindAllStringSubmatch(doc, -1) {
		out = append(out, strings.Join(strings.Fields(b[1]), " "))
	}
	return out
}

// names reports whether anchor a is, or begins with, the cited words x.
func names(a, x string) bool {
	if !strings.HasPrefix(a, x) {
		return false
	}
	rest := a[len(x):]
	return rest == "" || !unicode.IsLetter([]rune(rest)[0]) && !unicode.IsDigit([]rune(rest)[0])
}

// TestDocCitations fails on a citation — DESIGN.md or EXPERIMENTS.md
// followed by quoted words, in a Go comment or in a document — whose words
// begin no heading or bold lead-in of the document it cites.
func TestDocCitations(t *testing.T) {
	m := loadIndex(t)
	targets := readDocs(t, []string{"DESIGN.md", "EXPERIMENTS.md"})
	anchorsOf := map[string][]string{}
	for n, d := range targets {
		anchorsOf[n] = anchors(d)
	}
	// check reports a citation in text by where(its byte offset).
	check := func(text string, where func(off int) string) {
		for _, i := range citation.FindAllStringSubmatchIndex(text, -1) {
			doc, x := text[i[2]:i[3]]+".md", strings.Join(strings.Fields(text[i[4]:i[5]]), " ")
			found := false
			for _, a := range anchorsOf[doc] {
				if names(a, x) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: %s %q names no heading or bold lead-in", where(i[0]), doc, x)
			}
		}
	}
	for name, doc := range readDocs(t, docFiles) {
		check(doc, func(off int) string { return fmt.Sprintf("%s:%d", name, strings.Count(doc[:off], "\n")+1) })
	}
	for _, g := range m.comments {
		check(g.Text(), func(int) string { return m.fset.Position(g.Pos()).String() })
	}
}

var goIdent = regexp.MustCompile(`^([A-Za-z_][\w/]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?$`)

// notIdents are file extensions a `name.ext` span may end in.
var notIdents = map[string]bool{
	"go": true, "md": true, "json": true, "sh": true, "txt": true, "prom": true, "pprof": true,
	"mod": true, "h5": true, "nc": true, "png": true, "gif": true, "csv": true, "test": true,
}

// identResolves reports whether a backticked pkg.Name, pkg.Type.Member or
// Type.Member names something the module declares, and whether the span
// was such a reference at all (its first part a package or type of the
// module).
func (m *moduleIndex) identResolves(first, second, third string) (checked, ok bool) {
	var pkgs []*pkgDecls
	if strings.Contains(first, "/") {
		for _, d := range []string{first, "internal/" + first} {
			if p := m.byDir[d]; p != nil {
				pkgs = append(pkgs, p)
			}
		}
	} else {
		for _, d := range m.pkgDirs[first] {
			pkgs = append(pkgs, m.byDir[d])
		}
	}
	for _, p := range pkgs {
		checked = true
		if third == "" {
			if p.names[second] || p.anyMember(second) || m.metrics[first+"."+second] {
				return true, true
			}
		} else if _, isType := p.members[second]; isType && p.member(second, third) {
			return true, true
		}
	}
	if third == "" {
		for _, p := range m.types[first] {
			checked = true
			if p.member(first, second) {
				return true, true
			}
		}
	}
	return checked, false
}

// TestDocIdentifiers fails on a backticked `pkg.Name`, `pkg.Type.Member`
// or `Type.Member` in DESIGN.md, README.md or the verify skill whose
// package or type the module declares but whose name it does not: a
// package-level name, a method or field of a type in the package, a test
// in its external _test package, or for pkg.Name a benchmark metric
// (benchmark/metrics.go).
func TestDocIdentifiers(t *testing.T) {
	m := loadIndex(t)
	for name, doc := range readDocs(t, identDocs) {
		for _, s := range codeSpans(doc) {
			g := goIdent.FindStringSubmatch(s.text)
			if g == nil || notIdents[g[2]] && g[3] == "" || notIdents[g[3]] {
				continue
			}
			if checked, ok := m.identResolves(g[1], g[2], g[3]); checked && !ok {
				t.Errorf("%s:%d: `%s` names nothing the module declares", name, s.line, s.text)
			}
		}
	}
}
