package main

import (
	"errors"
	"fmt"
	"log"
	"net/netip"
	"path/filepath"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/modelstore"
	"behaviot/internal/pfsm"
	"behaviot/internal/testbed"
)

// modelDir is where -store keeps trained models: an ordinary model store
// beside tenants/, holding one generation per fingerprint.
const modelDir = "model"

// modelKey prefixes a stored model's fingerprint, which is otherwise
// exactly trainingInputs' inputs string: nothing else — shape, -replay,
// -impair — changes what training produces, so nothing else may force a
// retrain or leave a second generation behind.
const modelKey = "behaviotd/model/v1"

// simHome is the bundled simulator deployment -sim trains on (and, in
// single-home mode, synthesizes a day of traffic for).
func simHome() (*testbed.Testbed, []*testbed.DeviceProfile) {
	tb := testbed.New()
	return tb, []*testbed.DeviceProfile{
		tb.Device("TPLink Plug"), tb.Device("Ring Camera"),
		tb.Device("Gosund Bulb"), tb.Device("Echo Spot"),
	}
}

// trainingInputs resolves what both shapes train from — the bundled
// simulator (-sim) or an idle capture plus device manifest — into the
// assembler configuration and the store-fingerprint fragment naming
// those inputs: models are tied to them, so any edit invalidates old
// generations. It reads the manifest and checksums the files but does
// not train, so a resume can skip that.
func trainingInputs(o options) (acfg flows.Config, inputs string, err error) {
	if o.sim {
		tb, _ := simHome()
		return flows.Config{LocalPrefix: tb.LocalPrefix, DeviceByIP: tb.DeviceByIP()}, "-sim", nil
	}
	deviceByIP, err := datasets.LoadDevices(o.devices)
	if err != nil {
		return flows.Config{}, "", fmt.Errorf("loading device manifest: %w", err)
	}
	idleCRC, err := fileCRC(o.idle)
	if err != nil {
		return flows.Config{}, "", fmt.Errorf("idle capture: %w", err)
	}
	devCRC, err := fileCRC(o.devices)
	if err != nil {
		return flows.Config{}, "", fmt.Errorf("device manifest: %w", err)
	}
	acfg = flows.Config{
		LocalPrefix: netip.MustParsePrefix("192.168.0.0/16"),
		DeviceByIP:  deviceByIP,
	}
	return acfg, fmt.Sprintf("|idle=%08x|devices=%08x", idleCRC, devCRC), nil
}

// loadOrTrain returns the marshaled pipeline trained from inputs. With
// -store it looks in DIR/model/ first and trains only when no intact
// generation for those inputs is there; the fresh model is
// then written back, so every later launch of either shape, resumed or
// not, skips training. The model store keeps one generation per
// fingerprint and bypasses -store-fault, which targets checkpoints. A
// failed model write is logged, never fatal: the daemon runs on what it
// trained.
func loadOrTrain(o options, acfg flows.Config, inputs string) ([]byte, error) {
	if o.store == "" {
		return train(o, acfg)
	}
	dir := filepath.Join(o.store, modelDir)
	store, err := modelstore.Open(dir, modelstore.Options{Retain: 1})
	if err != nil {
		log.Printf("model store: %v; training without it", err)
		return train(o, acfg)
	}
	fingerprint := modelKey + inputs
	snap, err := store.Load(fingerprint)
	if err == nil {
		pipeSnap := snap.Files[modelstore.FilePipeline]
		if _, err = core.UnmarshalPipeline(pipeSnap); err == nil {
			log.Printf("loaded model generation %d from %s (skipping training)", snap.Generation, dir)
			return pipeSnap, nil
		}
	}
	if !errors.Is(err, modelstore.ErrNoSnapshot) {
		log.Printf("model store %s: %v; training", dir, err)
	}
	pipeSnap, err := train(o, acfg)
	if err != nil {
		return nil, err
	}
	if gen, err := store.Write(fingerprint, map[string][]byte{modelstore.FilePipeline: pipeSnap}); err != nil {
		log.Printf("model store: %v; the next start trains again", err)
	} else {
		log.Printf("stored the trained model as generation %d in %s", gen, dir)
	}
	return pipeSnap, nil
}

// train runs the daemon's one training recipe and returns the marshaled
// pipeline every tenant starts from. -sim trains periodic and
// user-action models on simulator idle and activity data, then the
// system PFSM and deviation calibration on a simulated routine week;
// otherwise the idle capture trains periodic models only.
func train(o options, acfg flows.Config) ([]byte, error) {
	if !o.sim {
		f, err := openWithRetry(o.idle)
		if err != nil {
			return nil, fmt.Errorf("reading idle capture: %w", err)
		}
		defer f.Close()
		idlePkts, err := datasets.ReadPcap(f)
		if err != nil {
			return nil, fmt.Errorf("reading idle capture: %w", err)
		}
		a := flows.NewAssembler(acfg)
		for _, p := range idlePkts {
			a.Add(p)
		}
		idle := a.Flows()
		log.Printf("idle training: %d packets → %d flows", len(idlePkts), len(idle))
		pipe, err := core.Train(idle, map[string][]*flows.Flow{}, core.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("training on idle capture: %w", err)
		}
		return core.MarshalPipeline(pipe), nil
	}

	log.Println("training on the bundled testbed simulator...")
	tb, devices := simHome()
	names := map[string]bool{}
	for _, d := range devices {
		names[d.Name] = true
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
		return nil, fmt.Errorf("sim training: %w", err)
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
	log.Printf("trained: %d periodic models, %d-state PFSM",
		len(pipe.Periodic.Models()), pipe.System.NumStates())
	return core.MarshalPipeline(pipe), nil
}
