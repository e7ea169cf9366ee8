package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// feedItem mirrors the JSON body of one `data:` line on GET /feed.
type feedItem struct {
	Tenant     string    `json:"tenant"`
	Kind       string    `json:"kind"`
	Time       time.Time `json:"time"`
	Device     string    `json:"device"`
	Label      string    `json:"label"`
	DevKind    string    `json:"deviation_kind"`
	Detail     string    `json:"detail"`
	Confidence float64   `json:"confidence"`
	Score      float64   `json:"score"`
}

func (it feedItem) key() string {
	if it.Kind == "event" {
		return eventKey(it.Time, it.Device, it.Label, it.Confidence)
	}
	return deviationKey(it.Time, it.Device, it.DevKind, it.Detail, it.Score)
}

// feedTap is a live subscription to the daemon's SSE feed. It stamps
// each item on arrival, before parsing it.
type feedTap struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex // guards arrived, items, err
	arrived map[string]time.Time
	items   int
	err     error
}

// tapKey scopes an item key to its tenant.
func tapKey(tenant, key string) string { return tenant + "|" + key }

// openFeed subscribes to /feed. The daemon registers the subscription
// before it sends the response headers, so once openFeed returns no
// later item can be missed for want of a subscriber.
func openFeed(addr string) (*feedTap, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/feed", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close() //lint:ignore errcheck the status code is the error being reported
		cancel()
		return nil, fmt.Errorf("GET /feed: HTTP %d", resp.StatusCode)
	}
	ft := &feedTap{cancel: cancel, done: make(chan struct{}), arrived: map[string]time.Time{}}
	go func() {
		defer close(ft.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			now := time.Now()
			line, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var it feedItem
			if err := json.Unmarshal([]byte(line), &it); err != nil {
				ft.mu.Lock()
				ft.err = fmt.Errorf("feed item %q: %w", line, err)
				ft.mu.Unlock()
				return
			}
			k := tapKey(it.Tenant, it.key())
			ft.mu.Lock()
			ft.items++
			if _, seen := ft.arrived[k]; !seen {
				ft.arrived[k] = now
			}
			ft.mu.Unlock()
		}
	}()
	return ft, nil
}

// close ends the subscription and returns what arrived.
func (ft *feedTap) close() (arrived map[string]time.Time, items int, err error) {
	ft.cancel()
	<-ft.done
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.arrived, ft.items, ft.err
}
