package main

// Exit-code contract tests. The test binary re-execs itself as the
// `sre` CLI: TestMain diverts children marked with SRE_CLI_UNDER_TEST
// into main() with the requested argv, so every exit path — including
// the coordinator's worker subprocesses, which re-exec this binary a
// second time as `sre worker` — runs exactly the shipped code.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("SRE_COORD_WORKER") == "1" {
		// A worker child spawned by a CLI child below: enter main's own
		// `worker` dispatch path.
		os.Args = []string{"sre", "worker"}
		main()
		os.Exit(0)
	}
	if args := os.Getenv("SRE_CLI_UNDER_TEST"); args != "" {
		os.Args = append([]string{"sre"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const cliNet = `
topology
  router A
  router B
  router C
  link A B
  link B C
  link A C
end
router A
  bgp 65001
    network 10.0.0.0/8
end
router B
  bgp 65002
    network 20.0.0.0/8
end
router C
  bgp 65003
    network 30.0.0.0/8
end
`

// runCLI re-execs the test binary as `sre <args...>` and returns the
// exit code and stderr.
func runCLI(t *testing.T, extraEnv []string, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "SRE_CLI_UNDER_TEST="+strings.Join(args, "\x1f"))
	cmd.Env = append(cmd.Env, extraEnv...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err = cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stderr.String()
	}
	t.Fatalf("running CLI: %v", err)
	return -1, ""
}

// TestExitCodeContract pins the documented exit statuses: 0 success,
// 1 error, 2 usage, 3 crash-degraded, 124 deadline. (130 for SIGINT
// follows the same fatal() path as 124 and needs interactive signal
// timing, so it is covered by the error-mapping unit test below.)
func TestExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "net.txt")
	if err := os.WriteFile(netPath, []byte(cliNet), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		env    []string
		want   int
		stderr string
	}{
		{name: "success", args: []string{"-config", netPath, "-quiet", "tolerance", "A", "10.0.0.0/8"}, want: 0},
		{name: "error", args: []string{"-config", netPath, "-quiet", "tolerance", "NOPE", "10.0.0.0/8"}, want: 1, stderr: "unknown router"},
		{name: "usage-no-command", args: []string{"-config", netPath}, want: 2, stderr: "usage:"},
		{name: "usage-bad-command", args: []string{"-config", netPath, "-quiet", "frobnicate"}, want: 2},
		{name: "usage-negative-nodelimit", args: []string{"-config", netPath, "-quiet", "-nodelimit", "-1", "pfecs"}, want: 2, stderr: "out of range [0, 134217728]"},
		{name: "usage-nodelimit-past-handles", args: []string{"-config", netPath, "-quiet", "-resilient", "pfecs", "-nodelimit", "134217729"}, want: 2, stderr: "out of range [0, 134217728]"},
		{name: "deadline", args: []string{"-config", netPath, "-quiet", "-timeout", "1ns", "-k", "-1", "pfecs"}, want: 124, stderr: "timed out"},
		{name: "crash-degraded", want: 3, stderr: "degraded by worker crashes",
			args: []string{"-config", netPath, "-workers", "2", "tolerance", "A", "10.0.0.0/8"},
			env:  []string{"SRE_FAULT=crash@0;crash@0#1;crash@0#2"}},
		{name: "workers-clean", args: []string{"-config", netPath, "-quiet", "-workers", "2", "tolerance", "A", "10.0.0.0/8"}, want: 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			code, errOut := runCLI(t, tc.env, tc.args...)
			if code != tc.want {
				t.Errorf("exit code = %d, want %d\nstderr: %s", code, tc.want, errOut)
			}
			if tc.stderr != "" && !strings.Contains(errOut, tc.stderr) {
				t.Errorf("stderr %q should contain %q", errOut, tc.stderr)
			}
		})
	}
}
