package flows

import (
	"net/netip"
	"testing"
	"time"

	"behaviot/internal/netparse"
)

var (
	devIP    = netip.MustParseAddr("192.168.1.10")
	dev2IP   = netip.MustParseAddr("192.168.1.11")
	cloudIP  = netip.MustParseAddr("52.94.233.129")
	cloud2IP = netip.MustParseAddr("142.250.80.46")
	base     = time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC)
)

func testConfig() Config {
	return Config{
		DeviceByIP: map[netip.Addr]string{
			devIP:  "TPLink Plug",
			dev2IP: "Echo Spot",
		},
	}
}

func pkt(ts time.Time, src, dst netip.Addr, sport, dport uint16, proto netparse.Protocol, size int) *netparse.Packet {
	return &netparse.Packet{
		Timestamp: ts,
		SrcIP:     src, DstIP: dst,
		SrcPort: sport, DstPort: dport,
		Proto:   proto,
		WireLen: size,
	}
}

func TestSingleFlowAssembly(t *testing.T) {
	a := NewAssembler(testConfig())
	for i := 0; i < 5; i++ {
		a.Add(pkt(base.Add(time.Duration(i)*100*time.Millisecond), devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100+i))
	}
	fs := a.Flows()
	if len(fs) != 1 {
		t.Fatalf("flows = %d, want 1", len(fs))
	}
	f := fs[0]
	if f.Device != "TPLink Plug" {
		t.Errorf("device = %q", f.Device)
	}
	if len(f.Packets) != 5 {
		t.Errorf("packets = %d", len(f.Packets))
	}
	if f.Proto != "TCP" {
		t.Errorf("proto = %q", f.Proto)
	}
	if f.Bytes() != 100+101+102+103+104 {
		t.Errorf("bytes = %d", f.Bytes())
	}
	if d := f.End.Sub(f.Start); d != 400*time.Millisecond {
		t.Errorf("duration = %v", d)
	}
}

func TestBurstSplittingAtGap(t *testing.T) {
	a := NewAssembler(testConfig())
	// Three packets, then a 5-second silence, then two more.
	for i := 0; i < 3; i++ {
		a.Add(pkt(base.Add(time.Duration(i)*200*time.Millisecond), devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	}
	for i := 0; i < 2; i++ {
		a.Add(pkt(base.Add(5*time.Second+time.Duration(i)*200*time.Millisecond), devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	}
	fs := a.Flows()
	if len(fs) != 2 {
		t.Fatalf("flows = %d, want 2 bursts", len(fs))
	}
	if len(fs[0].Packets) != 3 || len(fs[1].Packets) != 2 {
		t.Errorf("burst sizes = %d, %d", len(fs[0].Packets), len(fs[1].Packets))
	}
}

func TestBurstNotSplitWithinGap(t *testing.T) {
	a := NewAssembler(testConfig())
	// Packets exactly 1 s apart: interval is not > gap, stays one burst.
	for i := 0; i < 4; i++ {
		a.Add(pkt(base.Add(time.Duration(i)*time.Second), devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	}
	if fs := a.Flows(); len(fs) != 1 {
		t.Errorf("flows = %d, want 1", len(fs))
	}
}

func TestBidirectionalPacketsSameFlow(t *testing.T) {
	a := NewAssembler(testConfig())
	a.Add(pkt(base, devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 120))
	a.Add(pkt(base.Add(50*time.Millisecond), cloudIP, devIP, 443, 40000, netparse.ProtoTCP, 800))
	fs := a.Flows()
	if len(fs) != 1 {
		t.Fatalf("flows = %d, want 1 (both directions merge)", len(fs))
	}
	f := fs[0]
	if f.Packets[0].Dir != DirOutbound || f.Packets[1].Dir != DirInbound {
		t.Errorf("directions = %v, %v", f.Packets[0].Dir, f.Packets[1].Dir)
	}
	// The tuple must be device-oriented.
	if f.Tuple.SrcIP != devIP {
		t.Errorf("tuple src = %v, want device IP", f.Tuple.SrcIP)
	}
}

func TestSeparateDevicesSeparateFlows(t *testing.T) {
	a := NewAssembler(testConfig())
	a.Add(pkt(base, devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	a.Add(pkt(base, dev2IP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	fs := a.Flows()
	if len(fs) != 2 {
		t.Fatalf("flows = %d, want 2", len(fs))
	}
}

func TestUnknownHostsDropped(t *testing.T) {
	a := NewAssembler(testConfig())
	stranger := netip.MustParseAddr("192.168.1.99")
	a.Add(pkt(base, stranger, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	a.Add(pkt(base, cloudIP, stranger, 443, 40000, netparse.ProtoTCP, 100))
	// Pure transit (both remote) is also dropped.
	a.Add(pkt(base, cloudIP, cloud2IP, 1, 2, netparse.ProtoTCP, 100))
	if fs := a.Flows(); len(fs) != 0 {
		t.Errorf("flows = %d, want 0", len(fs))
	}
}

func TestLocalTrafficMarked(t *testing.T) {
	a := NewAssembler(testConfig())
	a.Add(pkt(base, devIP, dev2IP, 5000, 6000, netparse.ProtoUDP, 60))
	fs := a.Flows()
	if len(fs) == 0 {
		t.Fatal("no flows")
	}
	if !fs[0].Packets[0].Local {
		t.Error("device-to-device packet not marked Local")
	}
}

func TestProtoLabels(t *testing.T) {
	a := NewAssembler(testConfig())
	a.Add(pkt(base, devIP, cloudIP, 50000, 53, netparse.ProtoUDP, 80))
	a.Add(pkt(base, devIP, cloudIP, 50001, 123, netparse.ProtoUDP, 90))
	a.Add(pkt(base, devIP, cloudIP, 50002, 8883, netparse.ProtoTCP, 100))
	a.Add(pkt(base, devIP, cloudIP, 50003, 10101, netparse.ProtoUDP, 110))
	fs := a.Flows()
	labels := map[string]bool{}
	for _, f := range fs {
		labels[f.Proto] = true
	}
	for _, want := range []string{"DNS", "NTP", "TCP", "UDP"} {
		if !labels[want] {
			t.Errorf("missing proto label %q in %v", want, labels)
		}
	}
}

func TestDNSAnnotation(t *testing.T) {
	a := NewAssembler(testConfig())
	// DNS response naming cloudIP.
	resp := &netparse.DNSMessage{
		ID:       1,
		Response: true,
		Answers: []netparse.DNSAnswer{{
			Name: "devs.tplinkcloud.com", Type: netparse.DNSTypeA,
			Class: netparse.DNSClassIN, TTL: 300, IP: cloudIP,
		}},
	}
	payload, err := netparse.EncodeDNS(resp)
	if err != nil {
		t.Fatal(err)
	}
	dnsPkt := pkt(base, netip.MustParseAddr("8.8.8.8"), devIP, 53, 50000, netparse.ProtoUDP, 120)
	dnsPkt.Payload = payload
	a.Add(dnsPkt)
	// Subsequent TCP flow to cloudIP must be annotated.
	a.Add(pkt(base.Add(time.Second), devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	fs := a.Flows()
	var tcp *Flow
	for _, f := range fs {
		if f.Proto == "TCP" {
			tcp = f
		}
	}
	if tcp == nil {
		t.Fatal("no TCP flow")
	}
	if tcp.Domain != "devs.tplinkcloud.com" {
		t.Errorf("domain = %q", tcp.Domain)
	}
}

func TestSNIAnnotation(t *testing.T) {
	a := NewAssembler(testConfig())
	var random [32]byte
	hello := netparse.EncodeClientHello("iot.us-east-1.amazonaws.com", random)
	p := pkt(base, devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 200)
	p.Payload = hello
	a.Add(p)
	fs := a.Flows()
	if len(fs) != 1 {
		t.Fatalf("flows = %d", len(fs))
	}
	if fs[0].Domain != "iot.us-east-1.amazonaws.com" {
		t.Errorf("domain = %q", fs[0].Domain)
	}
}

// TestAnnotationFollowsResolverUpdates pins that a burst is named from
// the resolver as it stands when the burst closes: a DNS answer learned
// mid-stream names the next burst to that IP, and a later SNI for the
// same IP does not displace it (DNS outranks SNI).
func TestAnnotationFollowsResolverUpdates(t *testing.T) {
	a := NewAssembler(testConfig())
	burst := func(at time.Time, payload []byte) string {
		t.Helper()
		p := pkt(at, devIP, cloud2IP, 40000, 443, netparse.ProtoTCP, 100)
		p.Payload = payload
		a.Add(p)
		for _, f := range a.FlushClosed(at.Add(2 * time.Second)) {
			if f.Tuple.DstIP == cloud2IP {
				return f.Domain
			}
		}
		t.Fatalf("no burst to %v closed by %v", cloud2IP, at.Add(2*time.Second))
		return ""
	}

	if got := burst(base, nil); got != "" {
		t.Fatalf("burst before any name = %q, want blank", got)
	}
	answer, err := netparse.EncodeDNS(&netparse.DNSMessage{
		ID: 7, Response: true,
		Answers: []netparse.DNSAnswer{{
			Name: "mqtt.tplinkcloud.com", Type: netparse.DNSTypeA,
			Class: netparse.DNSClassIN, TTL: 300, IP: cloud2IP,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dns := pkt(base.Add(5*time.Second), netip.MustParseAddr("8.8.8.8"), devIP, 53, 50000, netparse.ProtoUDP, 120)
	dns.Payload = answer
	a.Add(dns)
	if got := burst(base.Add(6*time.Second), nil); got != "mqtt.tplinkcloud.com" {
		t.Fatalf("burst after the DNS answer = %q, want the DNS name", got)
	}
	var random [32]byte
	hello := netparse.EncodeClientHello("cdn.example.net", random)
	if got := burst(base.Add(12*time.Second), hello); got != "mqtt.tplinkcloud.com" {
		t.Fatalf("burst carrying a later SNI = %q, want the DNS name kept", got)
	}
	if got := burst(base.Add(18*time.Second), nil); got != "mqtt.tplinkcloud.com" {
		t.Fatalf("burst after the SNI = %q, want the DNS name kept", got)
	}
}

func TestReverseDNSFallback(t *testing.T) {
	a := NewAssembler(testConfig())
	a.Resolver().AddReverse(cloudIP, "ec2-52-94-233-129.compute-1.amazonaws.com")
	a.Add(pkt(base, devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	fs := a.Flows()
	if fs[0].Domain != "ec2-52-94-233-129.compute-1.amazonaws.com" {
		t.Errorf("domain = %q", fs[0].Domain)
	}
}

func TestUnresolvedDomainBlankAndKeyFallsBackToIP(t *testing.T) {
	a := NewAssembler(testConfig())
	a.Add(pkt(base, devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	fs := a.Flows()
	if fs[0].Domain != "" {
		t.Errorf("domain = %q, want blank", fs[0].Domain)
	}
	if fs[0].Key().Domain != cloudIP.String() {
		t.Errorf("key domain = %q, want IP fallback", fs[0].Key().Domain)
	}
}

func TestGroupByKey(t *testing.T) {
	a := NewAssembler(testConfig())
	// Two bursts of the same group, one of another proto.
	a.Add(pkt(base, devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	a.Add(pkt(base.Add(10*time.Second), devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	a.Add(pkt(base, devIP, cloudIP, 50000, 53, netparse.ProtoUDP, 80))
	groups := GroupByKey(a.Flows())
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	tcpKey := GroupKey{Device: "TPLink Plug", Domain: cloudIP.String(), Proto: "TCP"}
	if len(groups[tcpKey]) != 2 {
		t.Errorf("TCP group = %d bursts, want 2", len(groups[tcpKey]))
	}
}

func TestFlowsDrainsAndContinues(t *testing.T) {
	a := NewAssembler(testConfig())
	a.Add(pkt(base, devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	if n := len(a.Flows()); n != 1 {
		t.Fatalf("first drain = %d", n)
	}
	if n := len(a.Flows()); n != 0 {
		t.Fatalf("second drain = %d, want 0 (no duplicates)", n)
	}
	a.Add(pkt(base.Add(time.Minute), devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	if n := len(a.Flows()); n != 1 {
		t.Fatalf("post-drain add = %d", n)
	}
}

func TestFlushClosedKeepsActiveBursts(t *testing.T) {
	a := NewAssembler(testConfig())
	a.Add(pkt(base, devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	a.Add(pkt(base.Add(500*time.Millisecond), devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	// At base+600ms the burst is still open (gap 1s not exceeded).
	if fs := a.FlushClosed(base.Add(600 * time.Millisecond)); len(fs) != 0 {
		t.Fatalf("open burst flushed: %d", len(fs))
	}
	// At base+2s the burst is over.
	fs := a.FlushClosed(base.Add(2 * time.Second))
	if len(fs) != 1 || len(fs[0].Packets) != 2 {
		t.Fatalf("flush = %d flows", len(fs))
	}
	// No duplicates afterwards.
	if fs := a.FlushClosed(base.Add(10 * time.Second)); len(fs) != 0 {
		t.Fatalf("duplicate flush: %d", len(fs))
	}
	// New packets after the flush start a fresh burst.
	a.Add(pkt(base.Add(20*time.Second), devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	if fs := a.Flows(); len(fs) != 1 {
		t.Fatalf("post-flush burst = %d", len(fs))
	}
}

func TestFlushClosedSplitBurstsReturned(t *testing.T) {
	a := NewAssembler(testConfig())
	// Two bursts split by a later packet: the first is in done and must be
	// returned even though the second is still open.
	a.Add(pkt(base, devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	a.Add(pkt(base.Add(5*time.Second), devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
	fs := a.FlushClosed(base.Add(5*time.Second + 100*time.Millisecond))
	if len(fs) != 1 {
		t.Fatalf("done burst not flushed: %d", len(fs))
	}
	if !fs[0].Start.Equal(base) {
		t.Error("wrong burst flushed")
	}
}

func TestFlowsSortedByStart(t *testing.T) {
	a := NewAssembler(testConfig())
	a.Add(pkt(base.Add(2*time.Second), devIP, cloudIP, 41000, 443, netparse.ProtoTCP, 100))
	a.Add(pkt(base, devIP, cloudIP, 42000, 443, netparse.ProtoTCP, 100))
	a.Add(pkt(base.Add(time.Second), dev2IP, cloudIP, 43000, 443, netparse.ProtoTCP, 100))
	fs := a.Flows()
	for i := 1; i < len(fs); i++ {
		if fs[i].Start.Before(fs[i-1].Start) {
			t.Fatal("flows not sorted by start time")
		}
	}
}

func BenchmarkAssembler(b *testing.B) {
	cfg := testConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAssembler(cfg)
		for j := 0; j < 1000; j++ {
			a.Add(pkt(base.Add(time.Duration(j)*10*time.Millisecond), devIP, cloudIP, 40000, 443, netparse.ProtoTCP, 100))
		}
		a.Flows()
	}
}
