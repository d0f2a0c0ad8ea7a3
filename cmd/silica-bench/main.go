// Command silica-bench is the repository's benchmark: four
// phase-separated request-path workloads measured end to end, and an
// outside-in ladder of per-layer measurements. It claims no gain; it is
// the instrument later claims are measured with. See README.md.
//
//	silica-bench -workload <name|all> -seed <n> -seconds <s> -trace <0|1>
//
// The last line of standard output is one JSON object per workload:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). The lines before it are the full report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the input seed when -seed is absent; README names the
// second seed confirmation runs use.
const defaultSeed = 1

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("silica-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "all", "ingest|durable_read|degraded_read|cluster_small|all")
		seed      = fs.Uint64("seed", defaultSeed, "input seed: payloads, op order, key choice")
		seconds   = fs.Int("seconds", referenceSeconds, "measured-phase length on the 2-core reference box; scales the fixed work")
		trace     = fs.Int("trace", 0, "1 = traced run: per-layer metrics, ladder, spans")
		dir       = fs.String("dir", filepath.Join(".bench_build", "silica-bench-data"), "scratch root for persist directories (a real filesystem, not tmpfs)")
		traceOut  = fs.String("trace-out", "", "span dump of a traced run (default <dir>/trace-<workload>.json)")
		quick     = fs.Bool("quick", false, "one round at ~1/20 size: schema check, not a measurement")
		selfcheck = fs.Bool("selfcheck", false, "run every workload twice (A/A) and compare against the bounds")
		printJSON = fs.Bool("benchmark-json", false, "print the BENCHMARK.json these metric tables define and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printJSON {
		out, _ := json.MarshalIndent(benchmarkFile(), "", "  ")
		fmt.Fprintf(stdout, "%s\n", out)
		return 0
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(stderr, "silica-bench: -seconds must be 1..60")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "silica-bench:", err)
		return 1
	}
	names := []string{*workload}
	if *workload == "all" || *selfcheck {
		names = nil
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, dir: *dir, traceOut: *traceOut}
	if *selfcheck {
		return selfCheck(cfg, names, stdout, stderr)
	}
	env := environment(cfg)
	code := 0
	var lines []string
	for _, name := range names {
		cfg.workload = name
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "silica-bench:", err)
			return 1
		}
		fmt.Fprintln(stderr, res.summaryLine())
		report, _ := json.MarshalIndent(struct {
			Environment map[string]any `json:"environment"`
			*result
		}{env, res}, "", "  ")
		fmt.Fprintf(stdout, "%s\n", report)
		for _, l := range res.Reconcile {
			fmt.Fprintln(stderr, "reconcile:", l)
		}
		line, err := contractLine(res, cfg.trace)
		if err != nil {
			fmt.Fprintln(stderr, "silica-bench:", err)
			return 1
		}
		lines = append(lines, line)
		if !res.Correct {
			code = 1
		}
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	return code
}

// contractLine renders the one-line result the driver reads: every
// end-to-end metric untraced, every per-layer metric traced.
func contractLine(res *result, traced bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, res.EndToEnd
	if traced {
		defs, values = perLayer, res.PerLayer
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %s missing or not finite (%v)", res.Workload, d.Name, v)
		}
		metrics[d.Name] = mv{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line), err
}

// environment is the provenance block: enough to re-derive any number
// on another machine.
func environment(cfg runConfig) map[string]any {
	sz := cfg.sizing()
	return map[string]any{
		"go_version":        runtime.Version(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"nproc":             runtime.NumCPU(),
		"cpu_model":         cpuModel(),
		"kernel":            firstLine("/proc/sys/kernel/osrelease"),
		"dir":               cfg.dir,
		"dir_filesystem":    filesystemOf(cfg.dir),
		"git_commit":        gitCommit(),
		"seed":              cfg.seed,
		"service_seed":      serviceSeed,
		"seconds":           cfg.seconds,
		"min_setups":        sz.setups,
		"clients":           numClients,
		"cluster_libraries": clusterLibs,
		"quick":             cfg.quick,
		"traced":            cfg.trace,
		"started":           time.Now().UTC().Format(time.RFC3339),
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[0])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func filesystemOf(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if name, ok := known[int64(s.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", s.Type)
}

// gitCommit asks git for HEAD; the driver's checkout is not a
// repository, so "unknown" is an expected answer.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// selfCheck runs every workload twice back to back in this process and
// compares each end-to-end metric's two values against its bound.
func selfCheck(cfg runConfig, names []string, stdout, stderr io.Writer) int {
	cfg.trace = false
	code := 0
	fmt.Fprintf(stdout, "| workload | metric | run A | run B | rel diff | bound | ok |\n|---|---|---|---|---|---|---|\n")
	for _, name := range names {
		cfg.workload = name
		var runs [2]*result
		for i := range runs {
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintln(stderr, "silica-bench:", err)
				return 1
			}
			fmt.Fprintln(stderr, res.summaryLine())
			if !res.Correct {
				code = 1
			}
			runs[i] = res
		}
		for _, d := range endToEnd {
			a, b := runs[0].EndToEnd[d.Name], runs[1].EndToEnd[d.Name]
			rel := math.Abs(a-b) / math.Min(a, b)
			ok := rel <= d.Bound
			if !ok {
				code = 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4g | %.4g | %.1f%% | %.0f%% | %v |\n", name, d.Name, a, b, 100*rel, 100*d.Bound, ok)
		}
	}
	return code
}
