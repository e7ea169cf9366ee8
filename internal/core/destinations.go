package core

import (
	"sort"

	"behaviot/internal/destinations"
)

// DeviceInfo carries the metadata destination analysis needs for each
// device (supplied by the caller; in the reproduction it comes from the
// testbed profiles).
type DeviceInfo struct {
	Vendor   string
	Category string
}

// PartyBreakdown counts distinct destinations per party.
type PartyBreakdown struct {
	First, Support, Third int
}

// Total returns the destination count across parties.
func (b PartyBreakdown) Total() int { return b.First + b.Support + b.Third }

// DestinationAnalysis reproduces Table 5: for each event class and device
// category, the number of distinct destinations per party.
func DestinationAnalysis(events []Event, info map[string]DeviceInfo) map[EventClass]map[string]*PartyBreakdown {
	type destKey struct {
		class    EventClass
		category string
		domain   string
	}
	seen := map[destKey]destinations.Party{}
	for _, e := range events {
		if e.Flow == nil || e.Flow.Domain == "" {
			continue
		}
		di, ok := info[e.Device]
		if !ok {
			continue
		}
		k := destKey{class: e.Class, category: di.Category, domain: e.Flow.Domain}
		if _, dup := seen[k]; !dup {
			seen[k] = destinations.Classify(di.Vendor, e.Flow.Domain)
		}
	}
	out := map[EventClass]map[string]*PartyBreakdown{}
	for k, party := range seen {
		if out[k.class] == nil {
			out[k.class] = map[string]*PartyBreakdown{}
		}
		b := out[k.class][k.category]
		if b == nil {
			b = &PartyBreakdown{}
			out[k.class][k.category] = b
		}
		switch party {
		case destinations.First:
			b.First++
		case destinations.Support:
			b.Support++
		default:
			b.Third++
		}
	}
	return out
}

// DistinctDestinations returns the sorted distinct destination domains of
// a class of events.
func DistinctDestinations(events []Event, class EventClass) []string {
	set := map[string]bool{}
	for _, e := range events {
		if e.Class == class && e.Flow != nil && e.Flow.Domain != "" {
			set[e.Flow.Domain] = true
		}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
