package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// Factor is the scaling factor of the served document and Clients the
	// number of closed-loop keep-alive clients (the box has 2 processors).
	// Every bound and baseline of BENCHMARK.json holds at these values only,
	// so neither is a flag.
	Factor  = 0.1
	Clients = 2
	// Rounds is the number of measurement rounds of an end-to-end run.
	// Every timing metric is computed per round and reported as the median
	// of the rounds: on a shared two-core machine whole-run means drift
	// between identical runs, round medians repeat.
	Rounds = 5
	// Setups is how many times a run starts the server; setup_s is the
	// median.
	Setups = 3
	// maxWarmup caps the warm-up, which otherwise lasts a third of the
	// measured time. A freshly loaded server needs about 4 s of traffic to
	// reach its steady rate (longest on adhoc-fulltext).
	maxWarmup = 6 * time.Second
)

// Config is one benchmark run.
type Config struct {
	// Root is the repository root; OutDir receives result files, traces
	// and the server's log.
	Root, OutDir string
	// ServerBin is the xqserve binary (see BuildServer).
	ServerBin string
	// Factor is the constant Factor everywhere but in the smoke test.
	Factor float64
	Seed   int64
	// Seconds is the measured time: Rounds rounds of Seconds/Rounds each.
	Seconds float64
}

// RoundLength is the length of one measurement round.
func (c Config) RoundLength() time.Duration {
	return time.Duration(c.Seconds / Rounds * float64(time.Second))
}

// Warmup is the time the clients run before the first round.
func (c Config) Warmup() time.Duration {
	if w := time.Duration(c.Seconds / 3 * float64(time.Second)); w < maxWarmup {
		return w
	}
	return maxWarmup
}

// Env describes where and how a result was measured.
type Env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Factor     float64 `json:"factor"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	Rounds     int     `json:"rounds"`
	RoundSec   float64 `json:"round_seconds"`
	WarmupSec  float64 `json:"warmup_seconds"`
	LoadAvg    string  `json:"loadavg_at_start"`
	// Warning is set when the machine was already busy before the run.
	Warning string `json:"warning,omitempty"`
}

// NewEnv captures the environment block. A one-minute load average above
// half the processors is reported as a warning, not a failure.
func NewEnv(cfg Config) Env {
	e := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Factor:     cfg.Factor,
		Seed:       cfg.Seed,
		Clients:    Clients,
		Rounds:     Rounds,
		RoundSec:   cfg.RoundLength().Seconds(),
		WarmupSec:  cfg.Warmup().Seconds(),
	}
	// Not every checkout is a git repository; the commit stays unknown then.
	if out, err := exec.Command("git", "-C", cfg.Root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.TrimSpace(string(data))
		if f := strings.Fields(e.LoadAvg); len(f) > 0 {
			if load1, err := strconv.ParseFloat(f[0], 64); err == nil && load1 > 0.5*float64(e.NProc) {
				e.Warning = fmt.Sprintf("1-minute load %.2f exceeds half of %d processors before the run: timings will be noisy", load1, e.NProc)
			}
		}
	}
	return e
}

// Result is what one run writes to OutDir and what the result line is
// taken from.
type Result struct {
	Workload string `json:"workload"`
	// Mode is "end_to_end" (tracing off) or "per_layer" (the traced run).
	Mode      string         `json:"mode"`
	Env       Env            `json:"env"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  map[string]int `json:"failures_by_class"`
	// Metrics holds every metric of the mode by its BENCHMARK.json name.
	Metrics map[string]float64 `json:"metrics"`
	// RoundValues keeps the per-round value of each end-to-end timing
	// metric whose reported value is the median of rounds.
	RoundValues map[string][]float64 `json:"round_values,omitempty"`
	SetupsSec   []float64            `json:"setups_s,omitempty"`
	// Claim is always null: the benchmark measures and claims no gain.
	Claim *string `json:"claim"`
}

// Write stores the result as <workload>-<mode>.json in dir.
func (r *Result) Write(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+"-"+r.Mode+".json"), append(data, '\n'), 0o644)
}

// prepared is the part of a run fixed before the server starts: the
// reference system, the cells, one cycle of the request sequence and the
// expected bytes of every response.
type prepared struct {
	oracle *Oracle
	cells  []Cell
	seq    []int
	refs   map[string]Ref
}

func prepare(cfg Config, w Workload) (*prepared, error) {
	oracle, err := NewOracle(cfg.Factor)
	if err != nil {
		return nil, err
	}
	cells, err := w.Cells(cfg.Seed, oracle.Lexicon())
	if err != nil {
		return nil, err
	}
	refs, err := oracle.Refs(cells)
	if err != nil {
		return nil, err
	}
	return &prepared{oracle: oracle, cells: cells, seq: Sequence(cells, cfg.Seed), refs: refs}, nil
}

// serverLog is where a workload's server output goes.
func serverLog(cfg Config, w Workload) string {
	return filepath.Join(cfg.OutDir, "xqserve-"+w.Name+".log")
}

// RunEndToEnd measures the end-to-end metrics of one workload with
// tracing off: it starts the server Setups times (setup_s is the median),
// keeps the last one, warms it up, drives it for Rounds rounds, and stops
// it with SIGINT.
func RunEndToEnd(ctx context.Context, cfg Config, w Workload) (*Result, error) {
	res := &Result{Workload: w.Name, Mode: "end_to_end", Env: NewEnv(cfg), Metrics: map[string]float64{}, RoundValues: map[string][]float64{}}
	p, err := prepare(cfg, w)
	if err != nil {
		return nil, err
	}
	// The reference system is not needed while the server runs; let the
	// collector have it back before anything is timed.
	p.oracle = nil
	runtime.GC()

	var srv *Server
	for i := 0; i < Setups; i++ {
		if srv != nil {
			if err := srv.Stop(); err != nil {
				return nil, err
			}
		}
		if srv, err = StartServer(ctx, cfg.ServerBin, cfg.Factor, w.Systems, serverLog(cfg, w)); err != nil {
			return nil, err
		}
		res.SetupsSec = append(res.SetupsSec, srv.Setup.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = srv.Stop() // an earlier error is already being returned
		}
	}()
	res.Metrics["setup_s"] = Median(res.SetupsSec)

	d, err := NewDriver(srv.URL, p.cells, p.seq, p.refs)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	// The clients run without pause through warm-up and all rounds; a
	// sampler reads the server's CPU time at every round boundary.
	round := cfg.RoundLength()
	begin := time.Now().Add(cfg.Warmup())
	cpu := make([]time.Duration, Rounds+1)
	cpuErr := make(chan error, 1)
	go func() {
		for i := range cpu {
			select {
			case <-ctx.Done():
				cpuErr <- ctx.Err()
				return
			case <-time.After(time.Until(begin.Add(time.Duration(i) * round))):
			}
			c, err := srv.CPU()
			if err != nil {
				cpuErr <- err
				return
			}
			cpu[i] = c
		}
		cpuErr <- nil
	}()
	samples, err := d.Run(ctx, Clients, 0, begin.Add(Rounds*round))
	if cerr := <-cpuErr; err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rss, err := srv.PeakRSS()
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := srv.Stop(); err != nil {
		return nil, err
	}

	// A request belongs to the round in which its last byte arrived;
	// warm-up requests and those still in flight at the end count as
	// attempted (and must verify) but enter no round.
	res.Attempted = len(samples)
	res.Failed, res.Failures = CountFailures(samples)
	res.Correct = res.Failed == 0
	lat := make([][]float64, Rounds)
	for _, s := range samples {
		r := int((s.End - d.Since(begin)) / round)
		if s.Fail == "" && s.End >= d.Since(begin) && r < Rounds {
			lat[r] = append(lat[r], ms(s.Latency()))
		}
	}
	for r := 0; r < Rounds; r++ {
		if len(lat[r]) == 0 {
			return nil, fmt.Errorf("bench: no verified response in round %d of %s", r+1, w.Name)
		}
		n := float64(len(lat[r]))
		res.RoundValues["qps"] = append(res.RoundValues["qps"], n/round.Seconds())
		res.RoundValues["latency_p50_ms"] = append(res.RoundValues["latency_p50_ms"], Percentile(lat[r], 50))
		res.RoundValues["latency_p95_ms"] = append(res.RoundValues["latency_p95_ms"], Percentile(lat[r], 95))
		res.RoundValues["cpu_ms_per_req"] = append(res.RoundValues["cpu_ms_per_req"], ms(cpu[r+1]-cpu[r])/n)
	}
	for name, values := range res.RoundValues {
		res.Metrics[name] = Median(values)
	}
	res.Metrics["rss_peak_mb"] = float64(rss) / 1e6
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
