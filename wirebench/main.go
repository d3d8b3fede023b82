// Command wirebench is the repository's end-to-end benchmark. It drives a
// `cloakd -coordinator -shards 2` child over loopback with the v1 wire
// protocol, checks every answer against a single-process epoch.Manager
// fed the identical upload stream, and prints one JSON result line.
// With -trace 1 it instead reports per-layer metrics from a ladder run
// over the same stack rebuilt in-process. See README.md for the
// workloads and metric definitions; run it through run.sh, which builds
// cloakd and this command first.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// k is the anonymity level of every workload (Table I default).
const k = 10

// spec is one workload. Tick counts are fixed per run length, never
// time-bounded, so the final upload state — and with it the sweep's
// quality metrics — is a deterministic function of the seed.
type spec struct {
	users     int
	churnFrac float64       // share of users that move and re-upload per tick
	ticksPerS int           // ticks per second of replicate window
	period    time.Duration // tick schedule; 0 runs ticks back to back
	readers   int           // closed-loop cloak connections during the window
}

// The workloads (why each exists: BENCHMARK.json and README.md). Each
// layer does most of the work in one of them and almost none in another,
// so a change to one layer shows where it should and nowhere else.
var specs = map[string]spec{
	"cloak_read":         {users: 20000, readers: 2},
	"churn_write":        {users: 50000, churnFrac: 0.02, ticksPerS: 4},
	"cloak_during_churn": {users: 20000, churnFrac: 0.05, ticksPerS: 2, period: 500 * time.Millisecond, readers: 1},
}

// conns is the number of client connections: at most nproc (2 on the
// reference box), so the generator never out-runs the cores it shares.
const conns = 2

// replicas is how many independent replicates an untraced run measures,
// each on a freshly started system; every metric is their median.
const replicas = 5

// probeTicks ticks of probeFrac churn run after the sweep of a workload
// whose window has no ticks, so that its write figures come from the
// same kind of tick as churn_write's without touching its read window.
const (
	probeTicks = 8
	probeFrac  = 0.05
)

// hostsPerReader is the length of each pre-generated cloak host stream;
// a reader that exhausts it starts over.
const hostsPerReader = 1 << 17

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	cloakd   string
	sutCPUs  string // CPU list cloakd may use; "" inherits the generator's
	users    int    // overrides the workload's population (self-test)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	var selftest bool
	flag.StringVar(&o.workload, "workload", "", "workload: cloak_read, churn_write or cloak_during_churn")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured window length")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from the in-process ladder run")
	flag.StringVar(&o.cloakd, "cloakd", ".bench_build/cloakd", "cloakd binary built from ./cmd/cloakd")
	flag.StringVar(&o.sutCPUs, "sut-cpus", "", "CPU list for cloakd, applied with taskset (empty = inherit this process's)")
	flag.BoolVar(&selftest, "selftest", false, "run every workload at a tiny size and check the benchmark itself")
	flag.Parse()
	o.trace = trace == 1
	if selftest {
		if err := runSelfTest(o); err != nil {
			fmt.Fprintln(os.Stderr, "wirebench: self-test:", err)
			os.Exit(1)
		}
		fmt.Println("# self-test passed")
		return
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload run and returns its result line.
func run(o options) (*result, error) {
	sp, ok := specs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be >= 1, got %d", o.seconds)
	}
	if _, err := os.Stat(o.cloakd); err != nil {
		return nil, fmt.Errorf("cloakd binary: %w", err)
	}
	if o.users > 0 {
		sp.users = o.users
	}
	rev, err := sourceRev()
	if err != nil {
		return nil, err
	}
	fmt.Printf("# wirebench workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d sut-cpus=%q go=%s rev=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), o.sutCPUs, runtime.Version(), rev)

	t0 := time.Now()
	nTicks := int(float64(sp.ticksPerS)*windowOf(o).Seconds() + 0.5)
	if sp.ticksPerS > 0 && nTicks < 1 {
		nTicks = 1
	}
	frac := sp.churnFrac
	if nTicks == 0 {
		frac, nTicks = probeFrac, probeTicks
	}
	in, err := genInputs(sp.users, frac, nTicks, conns, hostsPerReader, o.seed)
	if err != nil {
		return nil, err
	}
	if sp.ticksPerS == 0 {
		// The sweep precedes the probes, so it sees the start positions.
		in.probes, in.ticks, in.final = in.ticks, nil, in.start
	}
	ref, err := buildReference(in, k, sp.period > 0)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	fmt.Printf("# inputs: %d users, %d ticks, reference built in %v\n", in.n, len(in.ticks), time.Since(t0).Round(time.Millisecond))
	if o.trace {
		return runLayers(o, sp, in, ref)
	}
	return runE2E(o, sp, in, ref)
}

// windowOf is one replicate's share of the measured time.
func windowOf(o options) time.Duration {
	return time.Duration(o.seconds) * time.Second / replicas
}

// sourceRev identifies the program under test by a hash of its sources
// (the checkout the benchmark runs in carries no version-control data).
func sourceRev() (string, error) {
	h := sha256.New()
	var files []string
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			return "", fmt.Errorf("hash sources: %w", err)
		}
	}
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		io.WriteString(h, p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:6]), nil
}
