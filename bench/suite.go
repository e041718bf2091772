package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// suite runs every workload, each run in a child process of this same
// binary, so that set-up time, peak memory and allocation counts belong to
// one workload alone.
type suite struct {
	opts runOpts
	runs int
}

// header records where and how a result was taken; results whose headers
// disagree on what changes the figures are not compared.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	DataDirFS  string  `json:"datadir_fs"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Traced     bool    `json:"traced"`
	Started    string  `json:"started"`
}

// workloadResult keeps every run's value of every metric, in run order.
type workloadResult struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Samples   map[string]uint64    `json:"samples"`
	Metrics   map[string][]float64 `json:"metrics"`
}

// result is what result.json, trace.json and baseline.json hold.
type result struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (s *suite) header() header {
	return header{
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		DataDirFS: fsName(dataDir),
		Seed:      s.opts.seed, WindowS: s.opts.measure.Seconds(),
		Traced: s.opts.traced, Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the checked-out commit, or "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func newResult(h header) *result {
	r := &result{Header: h, Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		r.Workloads[w.name] = &workloadResult{Correct: true, Samples: map[string]uint64{}, Metrics: map[string][]float64{}}
	}
	return r
}

// add folds one run's report into the result.
func (r *result) add(rep *runReport, defs []metricDef) {
	w := r.Workloads[rep.Workload]
	w.Correct = w.Correct && rep.Correct
	w.Attempted += rep.Attempted
	w.Failed += rep.Failed
	for k, v := range rep.Samples {
		w.Samples[k] += v
	}
	for _, def := range defs {
		if v, ok := rep.Metrics[def.name]; ok {
			w.Metrics[def.name] = append(w.Metrics[def.name], v)
		}
	}
}

// child runs one workload in a child process, passing its output through,
// and returns the report the child wrote.
func (s *suite) child(spec *workloadSpec) (*runReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	o := s.opts
	cmd := exec.Command(exe,
		"-workload", spec.name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(int(o.measure/time.Second)),
		"-trace="+strconv.FormatBool(o.traced))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		// The machine-readable last line is for the driver, not the reader.
		if line := sc.Text(); !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	waitErr := cmd.Wait()
	var rep runReport
	b, err := os.ReadFile(reportPath(spec.name, o.traced))
	if err == nil {
		err = json.Unmarshal(b, &rep)
	}
	if err != nil {
		if waitErr != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, waitErr)
		}
		return nil, fmt.Errorf("%s: reading the run's report: %w", spec.name, err)
	}
	return &rep, nil
}

// collect runs every workload s.runs times into each of the given results
// in turn (A, B, A, B, ... when there are two, so drift hits both alike).
func (s *suite) collect(results ...*result) error {
	defs := metricsOf(s.opts.traced)
	for _, spec := range workloads {
		for i := 0; i < s.runs; i++ {
			for _, r := range results {
				rep, err := s.child(spec)
				if err != nil {
					return err
				}
				r.add(rep, defs)
			}
		}
	}
	return nil
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (s *suite) run() int {
	res := newResult(s.header())
	if err := s.collect(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	name := "result.json"
	if s.opts.traced {
		name = "trace.json"
	}
	path := outDir + "/" + name
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	if !res.correct() {
		fmt.Println("FAILED: a correctness gate did not pass")
		return 1
	}
	return 0
}

// selfcheck takes two sets of runs of this same binary and holds them to
// the benchmark's own bounds: a benchmark that cannot agree with itself
// cannot judge a change.
func (s *suite) selfcheck() int {
	if s.runs < 3 {
		s.runs = 3 // the comparison needs a spread
	}
	a, b := newResult(s.header()), newResult(s.header())
	if err := s.collect(a, b); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for i, r := range []*result{a, b} {
		if err := writeJSON(fmt.Sprintf("%s/selfcheck-%d.json", outDir, i+1), r); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !a.correct() || !b.correct() {
		fmt.Println("FAILED: a correctness gate did not pass")
		return 1
	}
	return compareResults(a, b)
}
