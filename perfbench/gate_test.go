package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"tagmatch"
	"tagmatch/internal/workload"
)

// TestMain lets the test binary stand in for the perfbench command:
// with PERFBENCH_MAIN set it runs main, so a test can observe the real
// exit code.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testScale keeps self-test runs to a few seconds each.
const testScale = "scale=0.0001"

// smallSpec writes a copy of BENCHMARK.json whose workloads all run at
// testScale and returns its path.
func smallSpec(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	raw = regexp.MustCompile(`\bscale=[0-9.]+`).ReplaceAll(raw, []byte(testScale))
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCommand runs the benchmark as a child process on smallSpec and
// returns its standard output and exit code.
func runCommand(t *testing.T, args ...string) (string, int) {
	t.Helper()
	args = append([]string{"--spec", smallSpec(t), "--out", t.TempDir(),
		"--seed", "1", "--seconds", "1"}, args...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PERFBENCH_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("run %v: %v", args, err)
	}
	if err != nil {
		t.Logf("stderr of %v:\n%s", args, stderr.String())
		return stdout.String(), exit.ExitCode()
	}
	return stdout.String(), 0
}

// lastResult parses the result line the benchmark prints last.
func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout)
	}
	return r
}

func TestVerifyCatchesWrongAnswer(t *testing.T) {
	db := []workload.Interest{
		{User: 1, Tags: []string{"a"}},
		{User: 2, Tags: []string{"a", "b"}},
		{User: 3, Tags: []string{"c"}},
	}
	adds := []workload.Interest{{User: 4, Tags: []string{"b"}}}
	m := newModel(db, adds)
	q := []string{"a", "b"}
	ops := []update{{row: 3, add: true}, {row: 1}}
	good := []answer{
		{tags: q, got: []tagmatch.Key{2, 1}, at: 0},
		{tags: q, got: []tagmatch.Key{4, 2, 1}, at: 1},
		{tags: q, got: []tagmatch.Key{1, 4}, at: 2},
	}
	if bad := verify(m, ops, good, t.Logf); bad != 0 {
		t.Fatalf("verify rejected %d correct answers", bad)
	}
	wrong := [][]tagmatch.Key{
		{1},          // a key missing
		{1, 2, 2},    // a key repeated
		{1, 2, 3},    // a key that does not match
		{1, 2, 4},    // an add not yet applied
		{1, 2, 4, 5}, // a key nobody holds
	}
	for _, got := range wrong {
		m.reset(len(db))
		if bad := verify(m, ops, []answer{{tags: q, got: got}}, t.Logf); bad != 1 {
			t.Errorf("verify accepted wrong answer %v", got)
		}
	}
}

func TestMismatchExitsNonZero(t *testing.T) {
	for _, wl := range []string{"stream", "rpc", "churn"} {
		t.Run(wl, func(t *testing.T) {
			out, code := runCommand(t, "--workload", wl, "--trace", "0", "--inject-mismatch")
			if code == 0 {
				t.Fatalf("a corrupted answer exited 0:\n%s", out)
			}
			if r := lastResult(t, out); r.Correct {
				t.Errorf("a corrupted answer reported correct=true")
			}
			if !strings.Contains(out, "keys, reference") {
				t.Errorf("no mismatched answer printed:\n%s", out)
			}
		})
	}
}

// TestRunReportsListedMetrics runs each kind of run once and checks that
// its result carries exactly the metrics BENCHMARK.json lists for it.
func TestRunReportsListedMetrics(t *testing.T) {
	sp, _, err := loadSpec("../BENCHMARK.json", "stream")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload, trace string
		list            []metricSpec
	}{
		{"stream", "0", sp.EndToEnd},
		{"churn", "0", sp.EndToEnd},
		{"churn", "1", sp.PerLayer},
	} {
		t.Run(c.workload+"/trace"+c.trace, func(t *testing.T) {
			out, code := runCommand(t, "--workload", c.workload, "--trace", c.trace)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, out)
			}
			r := lastResult(t, out)
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("result correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
			}
			var want, got []string
			for _, m := range c.list {
				want = append(want, m.Name)
				if v, ok := r.Metrics[m.Name]; ok && v.Unit != m.Unit {
					t.Errorf("%s: unit %q, listed %q", m.Name, v.Unit, m.Unit)
				}
			}
			for name := range r.Metrics {
				got = append(got, name)
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("metrics %v, listed %v", got, want)
			}
		})
	}
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	for wl := range required {
		if _, sh, err := loadSpec("../BENCHMARK.json", wl); err != nil || sh.Setups < 1 {
			t.Errorf("%s: %v (setups %d)", wl, err, sh.Setups)
		}
	}
	if _, _, err := loadSpec("../BENCHMARK.json", "nope"); err == nil {
		t.Error("an unknown workload was accepted")
	}
}
