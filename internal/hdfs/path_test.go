package hdfs

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"scidp/internal/sim"
)

// TestCleanMatchesTrim: clean is "/" + strings.Trim(p, "/") for every
// shape of path, the fast path for an already clean one included.
func TestCleanMatchesTrim(t *testing.T) {
	for _, p := range []string{"", "/", "//", "a", "/a", "/a/", "//a", "/a//b", "a/b/", "/a/b", "///"} {
		if got, want := clean(p), "/"+strings.Trim(p, "/"); got != want {
			t.Errorf("clean(%q) = %q, want %q", p, got, want)
		}
	}
}

// splitAncestors is how mkdirAll named a clean path's ancestors before it
// took them as substrings: split on "/" and join back one part at a time.
func splitAncestors(path string) []string {
	var out []string
	cur := ""
	for _, part := range strings.Split(strings.TrimPrefix(path, "/"), "/") {
		cur += "/" + part
		out = append(out, cur)
	}
	return out
}

// TestMkdirAllMakesTheSplitAncestors: mkdirAll creates exactly the
// directories the split-and-join walk created, an empty component of
// "/a//b" ("/a/") included, each named by its own path.
func TestMkdirAllMakesTheSplitAncestors(t *testing.T) {
	if got, want := splitAncestors("/a//b"), []string{"/a", "/a/", "/a//b"}; !slices.Equal(got, want) {
		t.Fatalf("splitAncestors(/a//b) = %q, want %q", got, want)
	}
	for _, path := range []string{"/a//b", "a/b/", "/x/y/z", "/", "//q"} {
		k := sim.NewKernel()
		fs := New(k, testCluster(k, 2), testConfig())
		before := maps.Clone(fs.inodes)
		if err := fs.mkdirAll(path); err != nil {
			t.Fatalf("mkdirAll(%q): %v", path, err)
		}
		var made, want []string
		for p, n := range fs.inodes {
			if _, ok := before[p]; !ok {
				made = append(made, p)
			}
			if !n.Dir || n.Path != p {
				t.Errorf("mkdirAll(%q): inode %q = %+v", path, p, n)
			}
		}
		for _, p := range splitAncestors(clean(path)) {
			if _, ok := before[p]; !ok {
				want = append(want, p)
			}
		}
		slices.Sort(made)
		slices.Sort(want)
		if !slices.Equal(made, want) {
			t.Errorf("mkdirAll(%q) made %q, want %q", path, made, want)
		}
	}
}
