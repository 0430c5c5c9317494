package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainEnv switches the test binary into running main: the tests re-exec
// it with this variable set so os.Exit codes are observable.
const mainEnv = "ROWPRESS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs main with args in a child process and returns its exit
// code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stderr.String()
	default:
		t.Fatalf("rowpress %v: %v", args, err)
		return -1, ""
	}
}

// TestRejectsUnusedFlags: every command that parses flags exits 2 on a
// flag it does not read, before doing any work, instead of silently
// ignoring it.
func TestRejectsUnusedFlags(t *testing.T) {
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"scenarios", "-workers", "8"}, "-workers"},
		{[]string{"run", "fig6", "-top", "3"}, "-top"},
		{[]string{"sweep", "fig6", "-scale", "0.05"}, "-scale"},
		{[]string{"profile", "fig6", "-cache-dir", t.TempDir()}, "-cache-dir"},
		{[]string{"all", "-format", "json"}, "-format"},
		{[]string{"history", "-workers", "2"}, "-workers"},
		{[]string{"compare", "a", "b", "-seed", "2"}, "-seed"},
		{[]string{"loadtest", "-workers", "2"}, "-workers"},
	}
	for _, c := range cases {
		code, stderr := runMain(t, c.args...)
		if code != 2 {
			t.Errorf("rowpress %v: exit %d, want 2 (stderr %q)", c.args, code, stderr)
			continue
		}
		if want := c.flag + " does not apply to"; !strings.Contains(stderr, want) {
			t.Errorf("rowpress %v: stderr %q does not name the rejected flag (%q)", c.args, stderr, want)
		}
	}
}

func TestScenariosCSV(t *testing.T) {
	if code, stderr := runMain(t, "scenarios", "-format", "csv"); code != 0 {
		t.Fatalf("rowpress scenarios -format csv: exit %d (stderr %q)", code, stderr)
	}
}
