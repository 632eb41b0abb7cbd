package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"relsim/internal/server"
)

// TestDefaultsMatchServer pins relsim-serve's defaults to the library's:
// the Config parsed from no arguments is server.DefaultConfig except for
// exactly the three documented overrides (the benchmark harness builds
// its servers on the same assumption).
func TestDefaultsMatchServer(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	lib := server.DefaultConfig()
	if lib.Timeout == 30*time.Second || lib.SlowQuery == 250*time.Millisecond || lib.AccessLog == os.Stderr {
		t.Fatalf("an override now equals the library default: %+v", lib)
	}
	want := lib
	want.Timeout = 30 * time.Second
	want.SlowQuery = 250 * time.Millisecond
	want.AccessLog = os.Stderr
	if !reflect.DeepEqual(o.server, want) {
		t.Fatalf("parsed config\n%+v\nwant\n%+v", o.server, want)
	}
}

// TestFlagsBindConfig checks that server flags land on their Config
// fields, including the admission section.
func TestFlagsBindConfig(t *testing.T) {
	o, err := parseFlags([]string{
		"-workers", "9", "-workload-plan=false", "-max-inflight", "3",
		"-rate", "1.5", "-max-lag", "7", "-log-format", "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := o.server
	if c.Workers != 9 || c.WorkloadPlanning || c.Admission.MaxInFlight != 3 ||
		c.Admission.Rate != 1.5 || c.MaxLag != 7 || !c.AccessLogJSON {
		t.Fatalf("parsed config %+v", c)
	}
}

// TestBadFlagValuesRejected checks that -fsync and -log-format are
// validated before the mode dispatch, so an in-memory leader rejects a
// bad -fsync just like a durable one.
func TestBadFlagValuesRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-dataset", "dblp-small", "-fsync", "bogus"}, `wal: unknown sync policy "bogus"`},
		{[]string{"-follow", "http://127.0.0.1:1", "-fsync", "bogus"}, `wal: unknown sync policy "bogus"`},
		{[]string{"-dataset", "dblp-small", "-log-format", "xml"}, `invalid -log-format "xml"`},
	} {
		_, err := parseFlags(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%q) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}
