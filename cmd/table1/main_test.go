package main

import (
	"testing"

	"hsis/internal/core"
)

func TestMeasurePingpong(t *testing.T) {
	r, err := measure("pingpong", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.States < 3 || r.States > 6 {
		t.Fatalf("states = %v", r.States)
	}
	if r.LCProps != 6 || r.CTLProps != 6 {
		t.Fatalf("props = %d lc, %d ctl; Table 1 wants 6+6", r.LCProps, r.CTLProps)
	}
	if len(r.Failed) != 0 {
		t.Fatalf("unexpected failures: %v", r.Failed)
	}
	if r.VerilogLines == 0 || r.BlifmvLines == 0 || r.ReadTime == 0 {
		t.Fatalf("metrics missing: %+v", r)
	}
}

func TestMeasurePhilosExpectedFailures(t *testing.T) {
	r, err := measure("philos", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Failed) != 2 {
		t.Fatalf("philos should have exactly the two known failures, got %v", r.Failed)
	}
}

func TestMeasureUnknownDesign(t *testing.T) {
	if _, err := measure("zz", core.Options{}); err == nil {
		t.Fatal("unknown design should error")
	}
}

// TestParseFlags checks the command line goes through the binder shared
// with hsis, alongside the table1-only ablation switches, and that
// neither -workers, -image, -quant nor the removed sifting tuning flags
// are flags.
func TestParseFlags(t *testing.T) {
	c, err := parseFlags([]string{
		"-reorder", "manual",
		"-trace", "t.jsonl", "-profile", "p",
		"-design", "pingpong", "-coi", "-early", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	o := c.opts
	if o.Reorder != "manual" {
		t.Fatalf("shared options not bound: %+v", o)
	}
	if !o.ConeOfInfluence || o.EarlySteps != 3 || c.only != "pingpong" {
		t.Fatalf("table1 options not bound: %+v only=%q", o, c.only)
	}
	if c.cli.Trace != "t.jsonl" || c.cli.Profile != "p" {
		t.Fatalf("trace/profile not bound: %+v", c.cli)
	}
	for _, gone := range [][]string{
		{"-workers", "2"},
		{"-image", "clustered"},
		{"-quant", "naive"},
		{"-quant", "minwidth"},
		{"-reorder-accel", "none"},
		{"-reorder-max-growth", "1.3"},
		{"-reorder-trigger", "2.5"},
	} {
		if _, err := parseFlags(gone); err == nil {
			t.Fatalf("%s was accepted", gone[0])
		}
	}
}
