package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// selfTestUsers and selfTestSeconds size the self-test's tiny runs: each
// replicate window still spans two full slots.
const (
	selfTestUsers   = 2000
	selfTestSeconds = 3
)

// benchmarkFile is the subset of BENCHMARK.json the self-test checks
// the emitted metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runSelfTest checks the benchmark itself: the per-tick upload generator
// against a full WPG rebuild, every workload (listed in BENCHMARK.json or
// not) at a tiny size in both modes against the metric names and units
// BENCHMARK.json declares, and the correctness sweep against a
// deliberately perturbed reference.
func runSelfTest(o options) error {
	if err := checkTicksAgainstWPG(selfTestUsers, 0.05, 3, o.seed); err != nil {
		return fmt.Errorf("tick generator: %w", err)
	}
	fmt.Println("# self-test: tick uploads match wpg.Build")

	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range bf.Workloads {
		if _, ok := specs[w.Name]; !ok {
			return fmt.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	var names []string
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			r := o
			r.workload, r.seconds, r.trace, r.users = w, selfTestSeconds, trace, selfTestUsers
			res, err := run(r)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				return fmt.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			var declared []string
			for _, m := range want {
				declared = append(declared, m.Name)
				if res.Metrics[m.Name].Unit != m.Unit {
					return fmt.Errorf("%s trace=%v: metric %s has unit %q, declared %q", w, trace, m.Name, res.Metrics[m.Name].Unit, m.Unit)
				}
			}
			if err := sameNames(got, declared); err != nil {
				return fmt.Errorf("%s trace=%v metrics: %w", w, trace, err)
			}
			fmt.Printf("# self-test: %s trace=%v emits all %d metrics\n", w, trace, len(want))
		}
	}
	return checkSweepRejects(o)
}

// checkSweepRejects runs the sweep of a tiny loaded cluster against its
// true reference, which must pass, and against a perturbed copy, which
// must fail.
func checkSweepRejects(o options) error {
	in, err := genInputs(selfTestUsers, 0, 0, conns, 16, o.seed)
	if err != nil {
		return err
	}
	ref, err := buildReference(in, k, false)
	if err != nil {
		return err
	}
	s, _, _, err := setUp(o, in, k, conns)
	if err != nil {
		return err
	}
	good := sweep(s.clients, in, ref.final(), k)
	bad := sweep(s.clients, in, ref.final().perturb(), k)
	if err := s.stop(); err != nil {
		return err
	}
	if good.failed != 0 || good.ok == 0 {
		return fmt.Errorf("sweep against the true reference: %d ok, %d failed", good.ok, good.failed)
	}
	if bad.failed == 0 {
		return fmt.Errorf("sweep accepted a perturbed reference")
	}
	fmt.Printf("# self-test: sweep rejects a perturbed reference (%d mismatches: %s)\n", bad.failed, bad.firstBad)
	return nil
}

func sameNames(got, want []string) error {
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	return nil
}
