package fleet

import (
	"sync"
	"sync/atomic"
	"time"

	"behaviot/internal/jsonenc"
)

// FeedItem is one entry on the fleet's streaming event feed: a user
// event or deviation, tagged with the tenant it belongs to. It is the
// JSON body of one SSE `data:` line on GET /feed.
type FeedItem struct {
	Tenant     string    `json:"tenant"`
	Kind       string    `json:"kind"` // "event" or "deviation"
	Time       time.Time `json:"time"`
	Device     string    `json:"device"`
	Label      string    `json:"label,omitempty"`
	DevKind    string    `json:"deviation_kind,omitempty"`
	Detail     string    `json:"detail,omitempty"`
	Confidence float64   `json:"confidence,omitempty"`
	Score      float64   `json:"score,omitempty"`
}

// appendSSE appends the item as one server-sent event, the JSON exactly
// as json.Marshal renders it. An item JSON cannot carry (a non-finite
// score) appends nothing: absent from the feed, as from the event log.
func (it *FeedItem) appendSSE(dst []byte) []byte {
	o := jsonenc.Begin(append(dst, "data: "...))
	o.String("tenant", it.Tenant)
	o.String("kind", it.Kind)
	o.Time("time", it.Time)
	o.String("device", it.Device)
	o.OptString("label", it.Label)
	o.OptString("deviation_kind", it.DevKind)
	o.OptString("detail", it.Detail)
	o.OptFloat("confidence", it.Confidence)
	o.OptFloat("score", it.Score)
	if out, ok := o.End(); ok {
		return append(out, "\n\n"...)
	}
	return dst
}

// feedHub fans classified events out to streaming subscribers. Sends
// never block the ingest path: a subscriber whose buffer is full loses
// the item and the loss is counted (the feed is a live tap, not a
// durable log — the event log is the durable record).
type feedHub struct {
	mu      sync.Mutex // guards subs, nextID, closed
	subs    map[int]chan FeedItem
	nextID  int
	closed  bool
	dropped atomic.Int64 // items lost to full subscriber buffers, ever
}

func newFeedHub() *feedHub {
	return &feedHub{subs: map[int]chan FeedItem{}}
}

// subscribe registers a subscriber with the given buffer and returns
// its channel plus a cancel function. Cancel closes the channel.
func (h *feedHub) subscribe(buffer int) (<-chan FeedItem, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	ch := make(chan FeedItem, buffer)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := h.nextID
	h.nextID++
	h.subs[id] = ch
	h.mu.Unlock()
	cancel := func() {
		h.mu.Lock()
		if _, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(ch)
		}
		h.mu.Unlock()
	}
	return ch, cancel
}

// publish delivers an item to every subscriber without blocking.
func (h *feedHub) publish(it FeedItem) {
	h.mu.Lock()
	for _, ch := range h.subs {
		select {
		case ch <- it:
		default:
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// close drops all subscribers, closing their channels.
func (h *feedHub) close() {
	h.mu.Lock()
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
	}
	h.closed = true
	h.mu.Unlock()
}

// publish forwards a classified event to feed subscribers.
func (d *Daemon) publish(it FeedItem) { d.feed.publish(it) }

// Subscribe taps the fleet's live event feed: every user event and
// deviation from every tenant, as they are classified. The returned
// cancel must be called to release the subscription.
func (d *Daemon) Subscribe(buffer int) (<-chan FeedItem, func()) {
	return d.feed.subscribe(buffer)
}
