// Package flows assembles raw packets into the flow bursts that BehavIoT's
// event inference operates on (paper §4.1): a flow is the chronologically
// ordered set of TCP segments / UDP datagrams sharing a 5-tuple, and a
// flow burst is a consecutive chunk of a flow in which no two consecutive
// packets are more than DefaultBurstGap apart (1 second, following AppScanner
// [66] and HomoNit [76]). The assembler also performs the paper's flow
// annotation: destination domain (from DNS answers, TLS SNI, or a
// reverse-DNS fallback), protocol label, start time and duration.
package flows

import (
	"net/netip"
	"sort"
	"time"

	"behaviot/internal/dnsdb"
	"behaviot/internal/netparse"
)

// DefaultBurstGap is the burst-splitting threshold from the paper (1 s).
const DefaultBurstGap = time.Second

// Direction of a packet relative to the local device.
type Direction uint8

// Packet directions.
const (
	DirOutbound Direction = iota // device → remote
	DirInbound                   // remote → device
)

// PacketMeta is the per-packet information retained inside a flow. Payload
// bytes are deliberately dropped after annotation: the pipeline never uses
// packet contents (the paper makes no attempt to decrypt traffic).
type PacketMeta struct {
	Time  time.Time
	Size  int // total wire bytes
	Dir   Direction
	Local bool // true when both endpoints are on the local network
}

// Flow is one annotated flow burst.
type Flow struct {
	// Device is the name of the local IoT device that owns the flow.
	Device string
	// Tuple is the 5-tuple oriented from the device's perspective
	// (SrcIP is the device address).
	Tuple netparse.FiveTuple
	// Domain is the destination domain name, or "" when unresolvable.
	Domain string
	// Proto is the protocol label used for traffic grouping: "TCP",
	// "UDP", "DNS" or "NTP". DNS and NTP are split out because the paper
	// reports periodic models at that granularity (e.g. "NTP-*.pool.
	// ntp.org-3603").
	Proto string
	// Start and End bound the burst.
	Start, End time.Time
	// Packets holds the burst's packets in time order.
	Packets []PacketMeta
}

// Bytes returns the total wire bytes of the burst.
func (f *Flow) Bytes() int {
	total := 0
	for _, p := range f.Packets {
		total += p.Size
	}
	return total
}

// GroupKey identifies the (device, destination domain, protocol) traffic
// group used for periodic model inference. Unresolved domains fall back to
// the destination IP so distinct unnamed services stay separate.
type GroupKey struct {
	Device string
	Domain string
	Proto  string
}

// Key returns the flow's traffic-group key.
func (f *Flow) Key() GroupKey {
	domain := f.Domain
	if domain == "" {
		domain = f.Tuple.DstIP.String()
	}
	return GroupKey{Device: f.Device, Domain: domain, Proto: f.Proto}
}

// Config controls the assembler.
type Config struct {
	// LocalPrefix identifies the home network; packets between two local
	// addresses are "local" traffic for the Table 8 features.
	LocalPrefix netip.Prefix
	// DeviceByIP maps local IP addresses to device names. Packets whose
	// local endpoint is not in the map are attributed to the gateway and
	// dropped.
	DeviceByIP map[netip.Addr]string
	// Resolver accumulates and provides IP→domain mappings. If nil a
	// fresh private DB is used.
	Resolver *dnsdb.DB
}

func (c Config) withDefaults() Config {
	if !c.LocalPrefix.IsValid() {
		c.LocalPrefix = netip.MustParsePrefix("192.168.0.0/16")
	}
	if c.Resolver == nil {
		c.Resolver = &dnsdb.DB{}
	}
	return c
}

// Assembler builds annotated flow bursts from a packet stream. Feed
// packets in capture order with Add, then call Flows to retrieve the
// result. The zero value is unusable; construct with NewAssembler.
type Assembler struct {
	cfg    Config
	active map[flowKey]*Flow
	done   []*Flow

	// earliest is a lower bound on the minimum End time across active
	// flows (zero = unknown, scan on the next flush). FlushClosed uses
	// it to skip the full active-map scan on packets that cannot have
	// expired any burst — the scan used to run per packet.
	earliest time.Time

	// free holds recycled Flow structs (with their Packets capacity)
	// for reuse by new bursts; see Recycle for the ownership contract.
	free []*Flow
}

// maxFreeFlows bounds the recycle freelist; flows recycled beyond it are
// left to the garbage collector.
const maxFreeFlows = 4096

// flowKey identifies an in-progress flow: device plus the device-oriented
// 5-tuple.
type flowKey struct {
	device string
	tuple  netparse.FiveTuple
}

// NewAssembler creates an Assembler with the given configuration.
func NewAssembler(cfg Config) *Assembler {
	return &Assembler{
		cfg:    cfg.withDefaults(),
		active: make(map[flowKey]*Flow),
	}
}

// Recycle returns a flow previously handed out by Flows or FlushClosed
// to the assembler's freelist, so its storage (including the Packets
// slice) backs a future burst instead of being reallocated. Ownership
// transfers back to the assembler: the caller — and anything the caller
// published the flow to — must not touch the flow afterwards. Recycling
// is strictly optional; flows that escape are simply collected.
func (a *Assembler) Recycle(f *Flow) {
	if f == nil || len(a.free) >= maxFreeFlows {
		return
	}
	pkts := f.Packets[:0]
	*f = Flow{Packets: pkts}
	a.free = append(a.free, f)
}

// newFlow takes a flow from the freelist, or allocates one.
func (a *Assembler) newFlow() *Flow {
	if n := len(a.free); n > 0 {
		f := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return f
	}
	return &Flow{}
}

// Resolver exposes the domain database (useful for callers that want to
// register reverse-DNS fallbacks or inspect learned names).
func (a *Assembler) Resolver() *dnsdb.DB { return a.cfg.Resolver }

// Add processes one decoded packet.
func (a *Assembler) Add(p *netparse.Packet) {
	a.learnNames(p)

	srcLocal := a.cfg.LocalPrefix.Contains(p.SrcIP)
	dstLocal := a.cfg.LocalPrefix.Contains(p.DstIP)

	// Orient the tuple from the device's perspective.
	var device string
	var tuple netparse.FiveTuple
	var dir Direction
	switch {
	case srcLocal:
		name, ok := a.cfg.DeviceByIP[p.SrcIP]
		if !ok {
			return // gateway or unknown host
		}
		device, tuple, dir = name, p.Tuple(), DirOutbound
	case dstLocal:
		name, ok := a.cfg.DeviceByIP[p.DstIP]
		if !ok {
			return
		}
		device, tuple, dir = name, p.Tuple().Reverse(), DirInbound
	default:
		return // transit traffic, not ours
	}

	key := flowKey{device: device, tuple: tuple}
	meta := PacketMeta{
		Time:  p.Timestamp,
		Size:  p.WireLen,
		Dir:   dir,
		Local: srcLocal && dstLocal,
	}
	f, ok := a.active[key]
	if ok && p.Timestamp.Sub(f.End) > DefaultBurstGap {
		// Burst boundary: close the previous burst and start a new one.
		a.done = append(a.done, f)
		ok = false
	}
	if !ok {
		f = a.newFlow()
		f.Device = device
		f.Tuple = tuple
		f.Proto = protoLabel(tuple)
		f.Start = p.Timestamp
		a.active[key] = f
	}
	f.Packets = append(f.Packets, meta)
	f.End = p.Timestamp
	// Keep earliest a lower bound on active End times; zero stays zero
	// (it already forces the next flush to scan and recompute).
	if !a.earliest.IsZero() && p.Timestamp.Before(a.earliest) {
		a.earliest = p.Timestamp
	}
}

// learnNames extracts DNS answers and TLS SNI from the packet payload.
func (a *Assembler) learnNames(p *netparse.Packet) {
	if len(p.Payload) == 0 {
		return
	}
	if p.Proto == netparse.ProtoUDP && (p.SrcPort == 53 || p.DstPort == 53) {
		if msg, err := netparse.DecodeDNS(p.Payload); err == nil && msg.Response {
			for _, ans := range msg.Answers {
				if ans.Type == netparse.DNSTypeA || ans.Type == netparse.DNSTypeAAAA {
					a.cfg.Resolver.AddDNS(ans.IP, ans.Name)
				}
			}
		}
		return
	}
	if p.Proto == netparse.ProtoTCP && p.DstPort == 443 {
		if sni, err := netparse.ExtractSNI(p.Payload); err == nil {
			a.cfg.Resolver.AddSNI(p.DstIP, sni)
		}
	}
}

// Flows closes all in-progress bursts and returns every burst observed so
// far, annotated with domains and sorted by start time. The assembler can
// keep receiving packets afterwards; already-returned bursts are not
// duplicated.
func (a *Assembler) Flows() []*Flow {
	out := a.done
	a.done = nil
	for k, f := range a.active {
		out = append(out, f)
		delete(a.active, k)
	}
	a.earliest = time.Time{}
	return a.finish(out)
}

// FlushClosed returns only the bursts that are definitively over at the
// given stream time: bursts already split off by a later packet, plus
// active bursts whose last packet is more than the burst gap before now.
// Still-open bursts stay in the assembler. This is the streaming
// counterpart of Flows (used by online monitoring, where draining active
// bursts per packet would fragment every flow).
//
// The active map is only scanned when some burst can actually have
// expired (now is past earliest+gap); on the per-packet fast path this
// reduces the call to a freelist-style hand-off of already-closed
// bursts. The earliest bound is conservative, so a flow expires on
// exactly the same call it would have without the gate.
func (a *Assembler) FlushClosed(now time.Time) []*Flow {
	out := a.done
	a.done = nil
	if len(a.active) > 0 && now.Sub(a.earliest) > DefaultBurstGap {
		var min time.Time
		for k, f := range a.active {
			if now.Sub(f.End) > DefaultBurstGap {
				out = append(out, f)
				delete(a.active, k)
				continue
			}
			if min.IsZero() || f.End.Before(min) {
				min = f.End
			}
		}
		a.earliest = min
	}
	if len(out) == 0 {
		return nil
	}
	return a.finish(out)
}

// finish annotates and sorts a batch of completed bursts.
func (a *Assembler) finish(out []*Flow) []*Flow {
	for _, f := range out {
		a.annotate(f)
	}
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool {
			if out[i].Start.Equal(out[j].Start) {
				return out[i].Tuple.String() < out[j].Tuple.String()
			}
			return out[i].Start.Before(out[j].Start)
		})
	}
	return out
}

// annotate fills the flow's domain from the resolver as it stands when
// the burst closes, so a name learned mid-stream reaches the next burst.
func (a *Assembler) annotate(f *Flow) {
	if f.Domain == "" {
		f.Domain = a.cfg.Resolver.Lookup(f.Tuple.DstIP)
	}
}

// protoLabel derives the protocol label from the tuple.
func protoLabel(t netparse.FiveTuple) string {
	switch {
	case t.Proto == netparse.ProtoUDP && t.DstPort == 53:
		return "DNS"
	case t.Proto == netparse.ProtoUDP && t.DstPort == netparse.NTPPort:
		return "NTP"
	case t.Proto == netparse.ProtoTCP:
		return "TCP"
	default:
		return "UDP"
	}
}

// GroupByKey partitions flows into traffic groups keyed by
// (device, destination domain, protocol), the unit of periodic-model
// inference (paper §4.1).
func GroupByKey(fs []*Flow) map[GroupKey][]*Flow {
	out := make(map[GroupKey][]*Flow)
	for _, f := range fs {
		k := f.Key()
		out[k] = append(out[k], f)
	}
	return out
}
