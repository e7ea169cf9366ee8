package main

import (
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"behaviot"
	"behaviot/internal/datasets"
	"behaviot/internal/flows"
)

// TestLoadDevices pins what -devices reads: a cmd/gendata manifest,
// vendor and category columns ignored, blank lines before the header
// or after the last row skipped.
func TestLoadDevices(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "devices.csv")
	content := "\nip,device,vendor,category\n" +
		"192.168.1.10,TPLink Plug,TP-Link,Home Auto\n" +
		"192.168.1.11,Echo Spot,Amazon,Smart Speaker\n" +
		"\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := datasets.LoadDevices(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("devices = %d", len(m))
	}
	if m[netip.MustParseAddr("192.168.1.10")] != "TPLink Plug" {
		t.Errorf("wrong mapping: %v", m)
	}
}

func TestLoadDevicesBadIP(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(path, []byte("ip,device\nnot-an-ip,X\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := datasets.LoadDevices(path); err == nil {
		t.Error("bad IP should error")
	}
}

func TestLabelFlows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.csv")
	base := time.Date(2021, 8, 1, 10, 0, 0, 0, time.UTC)
	content := "time,device,activity,label\n" +
		base.Format(time.RFC3339) + ",TPLink Plug,on,TPLink Plug:on\n" +
		base.Add(2*time.Minute).Format(time.RFC3339) + ",TPLink Plug,off,TPLink Plug:off\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := []*behaviot.Flow{
		{Device: "TPLink Plug", Proto: "TCP", Start: base.Add(time.Second)},
		{Device: "TPLink Plug", Proto: "TCP", Start: base.Add(2*time.Minute + 5*time.Second)},
		{Device: "TPLink Plug", Proto: "DNS", Start: base.Add(time.Second)},      // skipped
		{Device: "Other", Proto: "TCP", Start: base.Add(time.Second)},            // wrong device
		{Device: "TPLink Plug", Proto: "TCP", Start: base.Add(30 * time.Minute)}, // out of window
	}
	labeled := labelFlows(fs, path)
	if len(labeled["TPLink Plug:on"]) != 1 {
		t.Errorf("on flows = %d", len(labeled["TPLink Plug:on"]))
	}
	if len(labeled["TPLink Plug:off"]) != 1 {
		t.Errorf("off flows = %d", len(labeled["TPLink Plug:off"]))
	}
	if len(labeled) != 2 {
		t.Errorf("labels = %d: %v", len(labeled), labeled)
	}
}

func TestLabelFlowsClaimsFirstMatch(t *testing.T) {
	// A flow matching two repetitions goes to the first (break).
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.csv")
	base := time.Date(2021, 8, 1, 10, 0, 0, 0, time.UTC)
	content := "time,device,activity,label\n" +
		base.Format(time.RFC3339) + ",D,a,D:a\n" +
		base.Add(30*time.Second).Format(time.RFC3339) + ",D,b,D:b\n"
	os.WriteFile(path, []byte(content), 0o644)
	fs := []*flows.Flow{{Device: "D", Proto: "TCP", Start: base.Add(45 * time.Second)}}
	labeled := labelFlows(fs, path)
	if len(labeled["D:a"]) != 1 || len(labeled["D:b"]) != 0 {
		t.Errorf("labeled = %v", labeled)
	}
}
