package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteProm renders every registered family in Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, then one
// line per labeled instance; histograms expand into cumulative
// _bucket{le=...} series plus _sum and _count. Scrape hooks run first
// so mirrored gauges (queue depths, staging occupancy, health states)
// are fresh. Writers are never stopped: values are atomic loads.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, hook := range hooks {
		hook()
	}
	bw := bufio.NewWriter(w)
	for _, f := range families {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]*child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		sort.Sort(byLabels{keys, children})
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range children {
			switch f.kind {
			case counterKind:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(c.labels, "", ""), c.counter.Value())
			case gaugeKind:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(c.labels, "", ""), formatFloat(c.gauge.Value()))
			case histogramKind:
				s := c.hist.Snapshot()
				var cum uint64
				for i, cnt := range s.Counts {
					cum += cnt
					le := "+Inf"
					if i < len(s.Bounds) {
						le = formatFloat(s.Bounds[i])
					}
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(c.labels, "le", le), cum)
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, labelString(c.labels, "", ""), formatFloat(s.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelString(c.labels, "", ""), s.Count)
			}
		}
	}
	return bw.Flush()
}

// byLabels sorts children (and their keys, kept in lockstep) by label
// identity for deterministic exposition.
type byLabels struct {
	keys     []string
	children []*child
}

func (s byLabels) Len() int           { return len(s.keys) }
func (s byLabels) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byLabels) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.children[i], s.children[j] = s.children[j], s.children[i]
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the histogram le bound). Empty label sets render as nothing.
func labelString(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	ls := append([]Label(nil), labels...)
	if extraKey != "" {
		ls = append(ls, Label{extraKey, extraVal})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// PromSample is one parsed exposition line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseProm parses Prometheus text exposition (the subset WriteProm
// emits: HELP/TYPE comments, name{labels} value lines). Tools
// (silica-load's end-of-run scrape, silicactl top) and tests use it to
// read /metrics back.
func ParseProm(r io.Reader) ([]PromSample, error) {
	var out []PromSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parsePromLine(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[i+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("malformed sample %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return fmt.Errorf("malformed labels %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		rest := body[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value in %q", body)
		}
		// Scan to the closing quote, honoring escapes.
		var val strings.Builder
		i := 1
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated label value in %q", body)
		}
		into[key] = val.String()
		body = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		body = strings.TrimSpace(body)
	}
	return nil
}

// matchLabels reports whether sample labels contain every pair in
// want.
func matchLabels(got, want map[string]string) bool {
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// FindSample returns the first parsed sample with the given name whose
// labels contain every pair in want.
func FindSample(samples []PromSample, name string, want map[string]string) (PromSample, bool) {
	for _, s := range samples {
		if s.Name == name && matchLabels(s.Labels, want) {
			return s, true
		}
	}
	return PromSample{}, false
}

// HistMean returns a histogram's mean, its <name>_sum over its
// <name>_count among samples whose labels contain every pair in want,
// or false when it has no observations.
func HistMean(samples []PromSample, name string, want map[string]string) (float64, bool) {
	sum, ok1 := FindSample(samples, name+"_sum", want)
	cnt, ok2 := FindSample(samples, name+"_count", want)
	if !ok1 || !ok2 || cnt.Value == 0 {
		return 0, false
	}
	return sum.Value / cnt.Value, true
}

// HistQuantile estimates the q-th quantile (0..1) from parsed
// <name>_bucket samples whose labels contain every pair in want, by
// linear interpolation inside the containing bucket (the standard
// Prometheus histogram estimate; the +Inf bucket clamps to the last
// finite bound). silica-load uses it to put server-side and
// client-side percentiles side by side.
func HistQuantile(samples []PromSample, name string, want map[string]string, q float64) (float64, bool) {
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	for _, s := range samples {
		if s.Name != name+"_bucket" || !matchLabels(s.Labels, want) {
			continue
		}
		leStr := s.Labels["le"]
		le := 0.0
		if leStr == "+Inf" {
			le = math.Inf(1)
		} else {
			v, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = v
		}
		buckets = append(buckets, bucket{le: le, cum: s.Value})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, false
	}
	rank := q * total
	prevCum, prevLe := 0.0, 0.0
	for i, b := range buckets {
		if b.cum < rank {
			prevCum, prevLe = b.cum, b.le
			continue
		}
		le := b.le
		if math.IsInf(le, 1) && i > 0 {
			// +Inf bucket: clamp to the last finite bound.
			le = buckets[i-1].le
		}
		count := b.cum - prevCum
		if count <= 0 || math.IsInf(le, 1) {
			return le, true
		}
		return prevLe + (le-prevLe)*((rank-prevCum)/count), true
	}
	return buckets[len(buckets)-1].le, true
}
