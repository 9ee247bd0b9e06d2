package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{
		"0": 0, "1s": 1, "16.51s": 16.51, "10ms": 0.01, "250us": 250e-6, "40ns": 40e-9, "1.50mins": 90, "2hrs": 7200,
	} {
		got, err := parseDuration(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseDuration("12parsecs"); err == nil {
		t.Error("parseDuration accepted an unknown unit")
	}
}

// testdata/pprof-top-trace-k8.txt is `go tool pprof -top -cum` output for
// a traced trace-k8 rep.
func TestParseTopAndShares(t *testing.T) {
	f, err := os.Open("testdata/pprof-top-trace-k8.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := parseTop(f)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]profileRow{
		fnRun:        {0, 16.51},
		fnReallocate: {0, 12.91},
		fnAssign:     {0, 2.88},
		fnAdvance:    {0.32, 0.32}, // printed with an "(inline)" suffix
		fnFinish:     {0, 0.01},
		"gurita/internal/netmod.(*Allocator).waterfill": {9.15, 10.63},
	} {
		if got := rows[name]; math.Abs(got.flat-want.flat) > 1e-9 || math.Abs(got.cum-want.cum) > 1e-9 {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
	}

	shares := cpuShares(rows)
	near := func(name string, want float64) {
		t.Helper()
		if math.Abs(shares[name]-want) > 1e-9 {
			t.Errorf("%s share = %v, want %v", name, shares[name], want)
		}
	}
	near("netmod.reallocate", 12.91/16.51)
	near("sched.assign_queues", 2.88/16.51)
	near("eventq", 0.01/16.51) // the only eventq row with flat samples
	near("sim.advance", 0.32/16.51)
	near("sim.finish_flow", 0.01/16.51)
	near("sim.other", 1-(12.91+2.88+0.01+0.32+0.01)/16.51)

	// A function absent from the profile reads as 0; its time falls into
	// sim.other.
	delete(rows, fnFinish)
	shares = cpuShares(rows)
	near("sim.finish_flow", 0)
	near("sim.other", 1-(12.91+2.88+0.01+0.32)/16.51)

	// Without the simulator loop (a warm campaign) every share is 0.
	delete(rows, fnRun)
	for name, v := range cpuShares(rows) {
		if v != 0 {
			t.Errorf("%s share = %v without sim.(*Simulator).Run samples", name, v)
		}
	}

	if _, err := parseTop(strings.NewReader("File: guritabench\nType: cpu\n")); err == nil {
		t.Error("parseTop accepted input without a flat/cum table")
	}
}
