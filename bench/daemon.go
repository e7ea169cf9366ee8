package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every wait on the daemon has a deadline: a hung child fails the run
// instead of hanging the rig.
const (
	readyTimeout  = 90 * time.Second
	drainTimeout  = 60 * time.Second
	settleTimeout = 30 * time.Second
	httpTimeout   = 10 * time.Second
)

// buildDaemon compiles cmd/behaviotd from the tree at root into binDir
// and returns the binary's absolute path.
func buildDaemon(ctx context.Context, root, binDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(binDir, "behaviotd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/behaviotd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/behaviotd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one behaviotd child. Its working directory is its run
// directory, so the unix socket, store and logs are short relative
// paths however deep the checkout is (a socket path is capped at 108
// bytes).
type daemon struct {
	cmd     *exec.Cmd
	dir     string
	logPath string
	started time.Time
	exited  chan struct{} // closed once Wait has returned
	waitErr error
	http    string // control-plane address, known once ready
}

const (
	sockName  = "in.sock"
	storeName = "store"
	logsName  = "logs"
)

// writeRoster writes the tenants file for n homes into dir.
func writeRoster(dir string, n int) error {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%s,%s\n", tenantID(i), tenantToken(i))
	}
	return os.WriteFile(filepath.Join(dir, "tenants.csv"), []byte(sb.String()), 0o644)
}

// startDaemon launches `behaviotd -fleet -sim` in dir for workload w.
// Cancelling ctx kills the child.
func startDaemon(ctx context.Context, bin, dir string, w workload, resume bool) (*daemon, error) {
	args := []string{
		"-fleet", "-sim",
		"-fleet-unix", sockName,
		"-fleet-tenants", "tenants.csv",
		"-fleet-eventlog-dir", logsName,
		"-store", storeName,
		"-checkpoint-interval", w.ckptInterval,
		"-store-full-every", "8",
		"-listen", "127.0.0.1:0",
	}
	if resume {
		args = append(args, "-resume")
	}
	logPath := filepath.Join(dir, fmt.Sprintf("daemon-%d.log", time.Now().UnixNano()))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	d := &daemon{cmd: cmd, dir: dir, logPath: logPath, exited: make(chan struct{})}
	d.started = time.Now()
	err = cmd.Start()
	logFile.Close() //lint:ignore errcheck nothing was written through this descriptor; the child holds its own
	if err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) log() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	return string(data)
}

var readyRe = regexp.MustCompile(`fleet ready: .* control plane on (\S+)`)

// waitReady polls the log for the ready line and returns how long after
// exec it appeared.
func (d *daemon) waitReady() (time.Duration, error) {
	deadline := d.started.Add(readyTimeout)
	for {
		now := time.Now()
		if m := readyRe.FindStringSubmatch(d.log()); m != nil {
			d.http = m[1]
			return now.Sub(d.started), nil
		}
		select {
		case <-d.exited:
			return 0, fmt.Errorf("daemon exited before it was ready (%v); log:\n%s", d.waitErr, d.log())
		default:
		}
		if now.After(deadline) {
			return 0, fmt.Errorf("daemon not ready after %v; log:\n%s", readyTimeout, d.log())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill ends the child on any exit path and waits for it. Safe to call
// after the child has already exited.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	//lint:ignore errcheck the child may have exited between the check and the signal
	d.cmd.Process.Kill()
	<-d.exited
}

var drainedRe = regexp.MustCompile(
	`fleet drained: tenants=(\d+) received=(\d+) fed=(\d+) parse_errors=(\d+) shed=(\d+)`)

// drainSummary is the daemon's post-drain accounting line.
type drainSummary struct {
	tenants, received, fed, parseErrors, shed int64
}

// terminate sends SIGTERM, waits for a clean exit and parses the drain
// line. The duration runs from the signal to process exit.
func (d *daemon) terminate() (time.Duration, drainSummary, error) {
	t := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, drainSummary{}, err
	}
	select {
	case <-d.exited:
	case <-time.After(drainTimeout):
		d.kill()
		return 0, drainSummary{}, fmt.Errorf("daemon did not exit %v after SIGTERM; log:\n%s", drainTimeout, d.log())
	}
	took := time.Since(t)
	if d.waitErr != nil {
		return 0, drainSummary{}, fmt.Errorf("daemon exited with %v after SIGTERM; log:\n%s", d.waitErr, d.log())
	}
	m := drainedRe.FindStringSubmatch(d.log())
	if m == nil {
		return 0, drainSummary{}, fmt.Errorf("no drain summary in daemon log:\n%s", d.log())
	}
	var v [5]int64
	for i := range v {
		n, err := strconv.ParseInt(m[i+1], 10, 64)
		if err != nil {
			return 0, drainSummary{}, err
		}
		v[i] = n
	}
	return took, drainSummary{v[0], v[1], v[2], v[3], v[4]}, nil
}

// cpuTicks returns the child's utime+stime in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatTicks(data)
}

// parseStatTicks extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatTicks(stat []byte) (int64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// clockTick is USER_HZ, the unit of /proc stat times: 100 on every Linux
// architecture Go supports.
const clockTick = 10 * time.Millisecond

// peakRSSMB returns the child's resident high-water mark (VmHWM). Not
// ru_maxrss: a child inherits the parent's high-water mark across exec.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

var httpClient = &http.Client{Timeout: httpTimeout}

// status fetches one tenant's /status counters.
func (d *daemon) status(id string) (map[string]float64, error) {
	resp, err := httpClient.Get("http://" + d.http + "/tenants/" + id + "/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("tenant %s status: HTTP %d", id, resp.StatusCode)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// totals sums GET /tenants over the fleet: packets that reached a
// monitor, and packets still queued.
func (d *daemon) totals() (packets, queued int64, err error) {
	resp, err := httpClient.Get("http://" + d.http + "/tenants")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Tenants []struct {
			Packets    int64 `json:"packets"`
			QueueDepth int64 `json:"queue_depth"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, 0, err
	}
	for _, tn := range body.Tenants {
		packets += tn.Packets
		queued += tn.QueueDepth
	}
	return packets, queued, nil
}

// waitProcessed polls until every sent record has reached a monitor
// (the workloads send only valid, in-order records, so none is dropped
// on the way).
func (d *daemon) waitProcessed(sent int64) error {
	deadline := time.Now().Add(settleTimeout)
	for {
		packets, queued, err := d.totals()
		if err != nil {
			return err
		}
		if queued == 0 && packets == sent {
			return nil
		}
		if packets > sent {
			return fmt.Errorf("daemon processed %d records, only %d were sent", packets, sent)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon processed %d of %d records after %v", packets, sent, settleTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
