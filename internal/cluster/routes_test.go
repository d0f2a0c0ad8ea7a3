package cluster

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestRouteTableMatchesDesign: the route table in DESIGN.md §6 and the
// patterns the two daemons register (HandleFunc in internal/gateway and
// internal/cluster) name the same routes, in both directions.
func TestRouteTableMatchesDesign(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "\n| Route | Served by | Answer |\n|---|---|---|\n")
	if !ok {
		t.Fatal("DESIGN.md has no route table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	documented := map[string]bool{}
	cell := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(table, "\n") {
		// "`POST` / `GET` / `DELETE /v1/faults`": the path rides on the
		// last method.
		ms := cell.FindAllStringSubmatch(strings.Split(line, "|")[1], -1)
		if len(ms) == 0 {
			t.Fatalf("route table row names no route: %q", line)
		}
		method, path, _ := strings.Cut(ms[len(ms)-1][1], " ")
		documented[method+" "+path] = true
		for _, m := range ms[:len(ms)-1] {
			documented[m[1]+" "+path] = true
		}
	}

	registered := map[string]bool{}
	pattern := regexp.MustCompile(`HandleFunc\("([A-Z]+ [^"]+)"`)
	for _, glob := range []string{"*.go", "../gateway/*.go"} {
		files, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range pattern.FindAllStringSubmatch(string(src), -1) {
				registered[m[1]] = true
			}
		}
	}

	if len(registered) == 0 {
		t.Fatal("found no registered routes")
	}
	for _, diff := range []struct {
		have, lack map[string]bool
		msg        string
	}{
		{registered, documented, "registered but missing from DESIGN.md §6"},
		{documented, registered, "in DESIGN.md §6 but registered nowhere"},
	} {
		var routes []string
		for r := range diff.have {
			if !diff.lack[r] {
				routes = append(routes, r)
			}
		}
		sort.Strings(routes)
		for _, r := range routes {
			t.Errorf("%s: %s", r, diff.msg)
		}
	}
}
