package gateway

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// designFamilies returns every metric family DESIGN.md §9 names in
// backticks: a `{a,b}` group expands to one name per alternative, a
// label selector (`{class="put"}`, `{source}`) is dropped, and the
// naming template (`silica_<subsystem>_…`) is no family.
func designFamilies(t *testing.T) []string {
	t.Helper()
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 9. ")
	if !ok {
		t.Fatal("DESIGN.md has no §9")
	}
	section, _, _ = strings.Cut(section, "\n## 10. ")
	var expand func(name string) []string
	expand = func(name string) []string {
		open := strings.IndexByte(name, '{')
		if open < 0 {
			return []string{name}
		}
		end := strings.IndexByte(name[open:], '}')
		group := name[open+1 : open+max(end, 0)]
		if end < 0 || strings.Contains(group, "=") || !strings.Contains(group, ",") {
			return []string{name[:open]}
		}
		var out []string
		for _, alt := range strings.Split(group, ",") {
			out = append(out, expand(name[:open]+alt+name[open+end+1:])...)
		}
		return out
	}
	seen := map[string]bool{}
	for _, m := range regexp.MustCompile("`(silica_[^`]*)`").FindAllStringSubmatch(section, -1) {
		if strings.Contains(m[1], "<") {
			continue
		}
		for _, name := range expand(m[1]) {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestFamilyTableMatchesDesign holds DESIGN.md §9 to the registry: every
// family it names is one a gateway with its repair manager exposes on
// /metrics, scraped after one put, flush and get.
func TestFamilyTableMatchesDesign(t *testing.T) {
	documented := designFamilies(t)
	if len(documented) < 10 {
		t.Fatalf("DESIGN.md §9 names only %d families: %v", len(documented), documented)
	}
	g := newTestGateway(t, testConfig())
	if g.Repair() == nil {
		t.Fatal("the gateway has no repair manager")
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	if _, err := c.Put("acct", "obj", randBytes(3, 700)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("acct", "obj"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for sc := bufio.NewScanner(bytes.NewReader(body)); sc.Scan(); {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			registered[f[2]] = true
		}
	}
	for _, name := range documented {
		if !registered[name] {
			t.Errorf("DESIGN.md §9 names %s, which /metrics does not expose", name)
		}
	}
}
