package pingpong

import (
	"math/rand"
	"testing"
	"time"

	"behaviot/internal/flows"
)

var base = time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC)

// eventFlow synthesizes a flow with a deterministic request/reply exchange
// plus optional noise packets.
func eventFlow(rng *rand.Rand, pairs [][2]int, noise int) *flows.Flow {
	f := &flows.Flow{Device: "dev", Proto: "TCP", Start: base}
	t := base
	add := func(size int, dir flows.Direction) {
		f.Packets = append(f.Packets, flows.PacketMeta{Time: t, Size: size, Dir: dir})
		t = t.Add(20 * time.Millisecond)
	}
	for _, p := range pairs {
		add(p[0], flows.DirOutbound)
		add(p[1], flows.DirInbound)
	}
	for i := 0; i < noise; i++ {
		add(60+rng.Intn(40), flows.Direction(rng.Intn(2)))
	}
	f.End = t
	return f
}

func trainingSet(rng *rand.Rand) map[string][]*flows.Flow {
	m := map[string][]*flows.Flow{}
	for i := 0; i < 30; i++ {
		// "on" has signature pairs (556,1293) then (237,826).
		m["plug:on"] = append(m["plug:on"], eventFlow(rng, [][2]int{{556, 1293}, {237, 826}}, 2))
		// "off" differs in the second pair.
		m["plug:off"] = append(m["plug:off"], eventFlow(rng, [][2]int{{556, 1293}, {244, 826}}, 2))
		// "color" has a unique pair.
		m["bulb:color"] = append(m["bulb:color"], eventFlow(rng, [][2]int{{198, 640}}, 1))
	}
	return m
}

func TestExtractFindsSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var training []*flows.Flow
	for i := 0; i < 20; i++ {
		training = append(training, eventFlow(rng, [][2]int{{556, 1293}}, 3))
	}
	sig, ok := Extract("plug:on", training)
	if !ok {
		t.Fatal("no signature extracted")
	}
	if len(sig.Pairs) == 0 {
		t.Fatal("empty signature")
	}
	p := sig.Pairs[0]
	if p.FirstLo > 556 || p.FirstHi < 556 || p.SecondLo > 1293 || p.SecondHi < 1293 {
		t.Errorf("signature pair ranges wrong: %+v", p)
	}
}

func TestExtractEmptyTraining(t *testing.T) {
	if _, ok := Extract("x", nil); ok {
		t.Error("empty training should not produce a signature")
	}
}

func TestExtractNoStablePairs(t *testing.T) {
	// Every flow has unique lengths: nothing reaches support.
	rng := rand.New(rand.NewSource(2))
	var training []*flows.Flow
	for i := 0; i < 20; i++ {
		training = append(training, eventFlow(rng, [][2]int{{1000 + i*17, 2000 + i*13}}, 0))
	}
	if _, ok := Extract("x", training); ok {
		t.Error("unstable lengths should not produce a signature")
	}
}

func TestClassifierAccuracyOnSeparableEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Train(trainingSet(rng))
	if len(c.sigs) != 3 {
		t.Fatalf("signatures = %d, want 3", len(c.sigs))
	}
	// Fresh test flows.
	correct, total := 0, 0
	for i := 0; i < 20; i++ {
		cases := map[string]*flows.Flow{
			"plug:on":    eventFlow(rng, [][2]int{{556, 1293}, {237, 826}}, 2),
			"plug:off":   eventFlow(rng, [][2]int{{556, 1293}, {244, 826}}, 2),
			"bulb:color": eventFlow(rng, [][2]int{{198, 640}}, 1),
		}
		for want, f := range cases {
			got, ok := c.Classify(f)
			total++
			if ok && got == want {
				correct++
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.99 {
		t.Errorf("accuracy = %v, want ~1.0", acc)
	}
}

func TestClassifierConfusedByOverlappingVariableEvents(t *testing.T) {
	// The TP-Link Bulb case from Table 3: when payload lengths vary
	// enough that two activities' length ranges overlap, signature-based
	// matching misclassifies a fraction of events (PingPong's weakness;
	// BehavIoT's feature-based classifier separates them by shape).
	rng := rand.New(rand.NewSource(4))
	training := map[string][]*flows.Flow{}
	for i := 0; i < 30; i++ {
		// Overlapping variable ranges: dim 300..340, on 315..355.
		training["bulb:dim"] = append(training["bulb:dim"],
			eventFlow(rng, [][2]int{{300 + rng.Intn(40), 900 + rng.Intn(40)}}, 0))
		training["bulb:on"] = append(training["bulb:on"],
			eventFlow(rng, [][2]int{{315 + rng.Intn(40), 915 + rng.Intn(40)}}, 0))
	}
	c := Train(training)
	wrong := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		f := eventFlow(rng, [][2]int{{300 + rng.Intn(40), 900 + rng.Intn(40)}}, 0)
		if got, ok := c.Classify(f); !ok || got != "bulb:dim" {
			wrong++
		}
	}
	if wrong == 0 {
		t.Error("expected misclassifications for overlapping variable-length events (PingPong's weakness)")
	}
	t.Logf("overlap confusion: %d/%d", wrong, trials)
}

func TestMatchRequiresOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var training []*flows.Flow
	for i := 0; i < 20; i++ {
		training = append(training, eventFlow(rng, [][2]int{{100, 200}, {300, 400}}, 0))
	}
	sig, ok := Extract("seq", training)
	if !ok || len(sig.Pairs) < 2 {
		t.Skipf("signature pairs = %d", len(sig.Pairs))
	}
	forward := eventFlow(rng, [][2]int{{100, 200}, {300, 400}}, 0)
	reversed := eventFlow(rng, [][2]int{{300, 400}, {100, 200}}, 0)
	if !sig.Matches(forward) {
		t.Error("forward order should match")
	}
	if sig.Matches(reversed) {
		t.Error("reversed order should not match")
	}
}

// TestSignatureRangesAreExact pins range-based matching without slack:
// a signature pair spans exactly the lengths its training cluster
// observed, so a flow 5 bytes off a constant-length exchange misses.
func TestSignatureRangesAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var training []*flows.Flow
	for i := 0; i < 20; i++ {
		training = append(training, eventFlow(rng, [][2]int{{500, 800}}, 0))
	}
	sig, ok := Extract("e", training)
	if !ok {
		t.Fatal("no signature extracted")
	}
	if !sig.Matches(eventFlow(rng, [][2]int{{500, 800}}, 0)) {
		t.Error("signature should match the trained lengths")
	}
	if sig.Matches(eventFlow(rng, [][2]int{{505, 805}}, 0)) {
		t.Error("signature should not match +5 bytes")
	}
}

func TestClassifyPrefersLongerSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	training := map[string][]*flows.Flow{}
	for i := 0; i < 20; i++ {
		training["short"] = append(training["short"], eventFlow(rng, [][2]int{{100, 200}}, 0))
		training["long"] = append(training["long"], eventFlow(rng, [][2]int{{100, 200}, {300, 400}}, 0))
	}
	c := Train(training)
	f := eventFlow(rng, [][2]int{{100, 200}, {300, 400}}, 0)
	got, ok := c.Classify(f)
	if !ok || got != "long" {
		t.Errorf("Classify = %q (ok=%v), want long", got, ok)
	}
}

func TestClassifyNoMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := Train(trainingSet(rng))
	f := eventFlow(rng, [][2]int{{9999, 8888}}, 0)
	if got, ok := c.Classify(f); ok {
		t.Errorf("unexpected match %q", got)
	}
}

func BenchmarkClassify(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := Train(trainingSet(rng))
	f := eventFlow(rng, [][2]int{{556, 1293}, {237, 826}}, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(f)
	}
}
