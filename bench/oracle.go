package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/pfsm"
	"behaviot/internal/stream"
	"behaviot/internal/testbed"
)

// assemblerConfig is the flow assembler configuration of `behaviotd
// -fleet -sim`.
func assemblerConfig() flows.Config {
	tb := testbed.New()
	return flows.Config{LocalPrefix: tb.LocalPrefix, DeviceByIP: tb.DeviceByIP()}
}

// trainReference trains the reference pipeline with the recipe of
// `behaviotd -fleet -sim` (cmd/behaviotd fleetTrain), written out again
// here on purpose: if the daemon's recipe drifts, its output no longer
// matches the reference and the run fails. It returns the marshaled
// pipeline, so every reference monitor starts from a private copy just
// as every tenant does.
func trainReference() ([]byte, error) {
	tb := testbed.New()
	var devices []*testbed.DeviceProfile
	names := map[string]bool{}
	for _, name := range simDevices {
		devices = append(devices, tb.Device(name))
		names[name] = true
	}
	idle := datasets.Idle(tb, 1, datasets.DefaultStart, 1, devices, 0)
	labeled := map[string][]*flows.Flow{}
	for _, s := range datasets.Activity(tb, 2, 12, 0) {
		if names[s.Device] {
			labeled[s.Label] = append(labeled[s.Label], s.Flows...)
		}
	}
	pipe, err := core.Train(idle, labeled, core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("reference training: %w", err)
	}
	routine := datasets.Routine(tb, 3, datasets.DefaultStart.Add(7*24*time.Hour),
		datasets.RoutineConfig{Days: 1, RunsPerDay: 15, DirectPerDay: 3})
	var rfs []*flows.Flow
	for _, f := range routine.Flows {
		if names[f.Device] {
			rfs = append(rfs, f)
		}
	}
	pipe.Calibrate(pipe.TrainSystem(pipe.Classify(rfs), pfsm.Options{}))
	return core.MarshalPipeline(pipe), nil
}

// referencePipeline returns the trained reference. Training takes
// seconds and depends on no input, only on code, so the result is kept
// in cacheDir under the digest of the two programs that code lives in:
// the daemon binary and this executable. Any change to either retrains.
func referencePipeline(cacheDir, daemonBin string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, path := range []string{daemonBin, self} {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(h, f)
		f.Close() //lint:ignore errcheck read-only file; the copy error is what gets reported
		if err != nil {
			return nil, err
		}
	}
	path := filepath.Join(cacheDir, fmt.Sprintf("ref-%x.snap", h.Sum(nil)[:12]))
	if snap, err := os.ReadFile(path); err == nil {
		if _, err := core.UnmarshalPipeline(snap); err == nil {
			return snap, nil
		}
	}
	snap, err := trainReference()
	if err != nil {
		return nil, err
	}
	// Entries of other builds are dead weight; drop them before adding
	// this one, through a rename so a concurrent run never reads half a file.
	if old, err := filepath.Glob(filepath.Join(cacheDir, "ref-*.snap")); err == nil {
		for _, o := range old {
			os.Remove(o) //lint:ignore errcheck a stale cache entry that stays costs only disk
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, snap, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return snap, nil
}

// refItem is one line the reference monitor emitted: a user event or a
// deviation, with the index of the record whose ingest produced it.
type refItem struct {
	key     string
	trigger int // record index being fed; the stream length for items emitted by the final flush
	// unloggable marks a score encoding/json refuses (+Inf): the daemon
	// cannot write such a line, see the README's known defects.
	unloggable bool
}

// itemKey identifies an event-log line or feed item independently of its
// position: /feed drops items when its buffer is full, so matching is by
// key and never by ordinal. The value (confidence or score) is part of
// the key, so a wrong score reads as one missing and one extra line.
func itemKey(kind string, t time.Time, device, what string, value float64) string {
	return kind + "|" + strconv.FormatInt(t.UnixNano(), 10) + "|" + device + "|" + what + "|" +
		strconv.FormatFloat(value, 'g', -1, 64)
}

func eventKey(t time.Time, device, label string, confidence float64) string {
	return itemKey("event", t, device, label, confidence)
}

func deviationKey(t time.Time, device, devKind, detail string, score float64) string {
	return itemKey("deviation", t, device, devKind+":"+detail, score)
}

// replayReference feeds the first n records of a stream through a bare
// stream.Monitor, the way a tenant's queue sink does, and records what it
// emits; the final Close mirrors the daemon's drain.
func replayReference(pipeSnap []byte, acfg flows.Config, s *recStream, n int) ([]refItem, stream.Stats, error) {
	pipe, err := core.UnmarshalPipeline(pipeSnap)
	if err != nil {
		return nil, stream.Stats{}, err
	}
	var items []refItem
	cur := 0
	cfg := stream.Config{
		RecycleFlows: true,
		OnEvent: func(e stream.Event) {
			if e.Class == core.EventUser {
				items = append(items, refItem{
					key: eventKey(e.Time, e.Device, e.Label, e.Confidence), trigger: cur,
				})
			}
		},
		OnDeviation: func(d stream.Deviation) {
			items = append(items, refItem{
				key:        deviationKey(d.Time, d.Device, d.Kind.String(), d.Detail, d.Score),
				trigger:    cur,
				unloggable: math.IsInf(d.Score, 0) || math.IsNaN(d.Score),
			})
		},
	}
	m := stream.NewMonitor(pipe, acfg, cfg)
	for cur = 0; cur < n; cur++ {
		ts, data := s.at(cur)
		m.FeedRecord(time.Unix(0, ts), data)
	}
	m.Close()
	return items, m.Stats(), nil
}
