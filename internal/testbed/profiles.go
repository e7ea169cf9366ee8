// Package testbed simulates the paper's 49-device smart-home IoT testbed
// (Table 1). Each device profile carries the vendor, category, a set of
// periodic traffic models (heartbeats, telemetry, DNS, NTP — shaped so the
// per-category counts match Table 4), and the user activities of Table 6.
// The traffic generator synthesizes gateway packets for idle periods, user
// activities, and trigger-action automations (Table 7), which the BehavIoT
// pipeline then consumes exactly as it would a live capture.
package testbed

import (
	"hash/fnv"
	"net/netip"
	"time"
)

// Category is a device category from Table 1.
type Category string

// The five categories of Table 1.
const (
	CatCamera    Category = "Camera"
	CatSpeaker   Category = "Smart Speaker"
	CatHomeAuto  Category = "Home Auto"
	CatAppliance Category = "Appliance"
	CatHub       Category = "Hub"
)

// Categories lists all categories in the paper's table order.
var Categories = []Category{CatHomeAuto, CatCamera, CatSpeaker, CatHub, CatAppliance}

// PeriodicSpec describes one periodic traffic model of a device: flows to
// Domain over Proto, recurring every Period with relative Jitter.
type PeriodicSpec struct {
	Domain  string
	Proto   string // "TCP", "UDP", "DNS", "NTP"
	Period  time.Duration
	Jitter  float64 // fraction of Period
	OutSize int     // request payload bytes
	InSize  int     // response payload bytes
	Pairs   int     // request/response pairs per burst
	DstPort uint16
	// LocalPeer, when non-empty, names another testbed device (a hub)
	// this traffic goes to instead of an internet domain: the flows stay
	// on the local network, exercising the Table 8 local features.
	LocalPeer string
}

// ActivitySpec describes one user activity and the traffic it produces.
type ActivitySpec struct {
	// Name is the activity label, e.g. "on", "motion".
	Name string
	// Domain and DstPort address the cloud endpoint.
	Domain  string
	DstPort uint16
	// Exchange is the request/response payload-size sequence.
	Exchange [][2]int
	// SizeJitter adds ±SizeJitter bytes of per-repetition variation to
	// every payload (devices whose activity lengths vary defeat exact-
	// length signatures such as PingPong's).
	SizeJitter int
	// Extra is the number of trailing noise packets.
	Extra int
}

// DeviceProfile is one testbed device.
type DeviceProfile struct {
	Name     string
	Vendor   string
	Category Category
	IP       netip.Addr
	Periodic []PeriodicSpec
	// Activities are the user interactions available on this device
	// (empty for devices only used in the idle dataset).
	Activities []ActivitySpec
	// InRoutines marks the 18 devices used in the routine dataset.
	InRoutines bool
}

// Activity returns the named activity spec, or nil.
func (d *DeviceProfile) Activity(name string) *ActivitySpec {
	for i := range d.Activities {
		if d.Activities[i].Name == name {
			return &d.Activities[i]
		}
	}
	return nil
}

// deviceSeed derives a stable per-device/purpose seed.
func deviceSeed(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		//lint:ignore errcheck hash.Hash.Write is documented to never return an error
		h.Write([]byte(p))
		//lint:ignore errcheck hash.Hash.Write is documented to never return an error
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// deviceDef is the static definition a profile is built from.
type deviceDef struct {
	name, vendor string
	cat          Category
	// periodicN is the number of app-level periodic models (DNS and NTP
	// are added on top, so total models = periodicN + 2, except hubs with
	// local loopback traffic which add one more).
	periodicN int
	// partyMix is the (first, support, third) weighting for the device's
	// periodic destinations.
	partyMix [3]int
	routines bool
}

// defs lists all 49 devices of Table 1. The per-category periodic model
// counts are tuned so the category averages reproduce Table 4
// (Home Auto ≈ 4, Camera ≈ 5.8, Smart Speaker ≈ 23.4, Hub ≈ 6,
// Appliance ≈ 6.4) including the per-category maxima the paper names
// (Nest Thermostat 8, iCSee Doorbell 10, Echo Show5 31, Philips Hub 15,
// Samsung Fridge 22).
var defs = []deviceDef{
	// --- Home Automation & Sensor (16), Table 4 average 4.06 ---
	{"Amazon Plug", "Amazon", CatHomeAuto, 2, [3]int{3, 1, 0}, false},
	{"D-Link Sensor", "D-Link", CatHomeAuto, 2, [3]int{2, 1, 0}, false},
	{"Govee Bulb", "Govee", CatHomeAuto, 2, [3]int{2, 1, 1}, true},
	{"Meross Dooropener", "Meross", CatHomeAuto, 2, [3]int{2, 1, 0}, true},
	{"Nest Thermostat", "Google", CatHomeAuto, 6, [3]int{4, 2, 0}, true},
	{"Smartlife Bulb", "Tuya", CatHomeAuto, 2, [3]int{1, 2, 1}, true},
	{"TPLink Bulb", "TP-Link", CatHomeAuto, 1, [3]int{2, 1, 0}, true},
	{"Keyco Air Sensor", "Keyco", CatHomeAuto, 2, [3]int{1, 1, 1}, false},
	{"Jinvoo Bulb", "Tuya", CatHomeAuto, 2, [3]int{1, 2, 1}, true},
	{"Gosund Bulb", "Tuya", CatHomeAuto, 2, [3]int{1, 2, 1}, true},
	{"Magichome Strip", "Magichome", CatHomeAuto, 2, [3]int{2, 1, 0}, true},
	{"Philips Bulb", "Philips", CatHomeAuto, 2, [3]int{2, 1, 0}, false},
	{"Ring Chime", "Ring", CatHomeAuto, 2, [3]int{2, 1, 0}, false},
	{"Wemo Plug", "Belkin", CatHomeAuto, 3, [3]int{3, 1, 0}, true},
	{"TPLink Plug", "TP-Link", CatHomeAuto, 1, [3]int{2, 1, 0}, true},
	{"Thermopro Sensor", "Thermopro", CatHomeAuto, 2, [3]int{1, 1, 1}, false},

	// --- Camera (11), Table 4 average 5.82, iCSee max 10 ---
	{"D-Link Camera", "D-Link", CatCamera, 3, [3]int{1, 2, 1}, true},
	{"iCSee Doorbell", "iCSee", CatCamera, 8, [3]int{1, 3, 4}, false},
	{"LeFun Camera", "LeFun", CatCamera, 3, [3]int{1, 2, 2}, false},
	{"Microseven Camera", "Microseven", CatCamera, 3, [3]int{1, 2, 1}, false},
	{"Ring Camera", "Ring", CatCamera, 4, [3]int{2, 3, 1}, true},
	{"Ring Doorbell", "Ring", CatCamera, 4, [3]int{2, 3, 1}, true},
	{"Tuya Camera", "Tuya", CatCamera, 3, [3]int{1, 2, 2}, false},
	{"Ubell Doorbell", "Ubell", CatCamera, 3, [3]int{1, 2, 2}, false},
	{"Wansview Camera", "Wansview", CatCamera, 3, [3]int{1, 2, 1}, false},
	{"Yi Camera", "Yi", CatCamera, 3, [3]int{1, 2, 1}, false},
	{"Wyze Camera", "Wyze", CatCamera, 4, [3]int{2, 2, 2}, true},

	// --- Smart Speaker (11), Table 4 average 23.36, Echo Show5 max 31 ---
	{"Echo Dot", "Amazon", CatSpeaker, 18, [3]int{16, 3, 1}, false},
	{"Echo Dot3", "Amazon", CatSpeaker, 18, [3]int{16, 3, 1}, false},
	{"Echo Dot4", "Amazon", CatSpeaker, 19, [3]int{17, 3, 1}, false},
	{"Echo Flex", "Amazon", CatSpeaker, 17, [3]int{15, 3, 1}, false},
	{"Echo Plus", "Amazon", CatSpeaker, 20, [3]int{18, 3, 1}, false},
	{"Echo Show5", "Amazon", CatSpeaker, 29, [3]int{25, 3, 3}, false},
	{"Echo Spot", "Amazon", CatSpeaker, 25, [3]int{22, 3, 2}, true},
	{"Google Home Mini", "Google", CatSpeaker, 16, [3]int{14, 2, 2}, false},
	{"Google Nest Mini", "Google", CatSpeaker, 16, [3]int{14, 2, 2}, false},
	{"Homepod Mini", "Apple", CatSpeaker, 25, [3]int{22, 2, 3}, false},
	{"Homepod", "Apple", CatSpeaker, 22, [3]int{20, 1, 2}, false},

	// --- Hub (6), Table 4 average 6.00, Philips Hub max 15 ---
	{"Aqara Hub", "Aqara", CatHub, 2, [3]int{1, 1, 2}, false},
	{"IKEA Hub", "IKEA", CatHub, 2, [3]int{1, 1, 2}, false},
	{"SmartThings Hub", "Samsung", CatHub, 4, [3]int{1, 2, 3}, true},
	{"SwitchBot Hub", "SwitchBot", CatHub, 3, [3]int{1, 2, 2}, true},
	{"Philips Hub", "Philips", CatHub, 13, [3]int{2, 2, 5}, false},
	{"Wink Hub2", "Wink", CatHub, 2, [3]int{1, 1, 2}, false},

	// --- Appliance (5), Table 4 average 6.40, Samsung Fridge max 22 ---
	{"Behmor Brewer", "Behmor", CatAppliance, 2, [3]int{2, 1, 1}, false},
	{"Samsung Fridge", "Samsung", CatAppliance, 20, [3]int{10, 4, 6}, false},
	{"iKettle", "Smarter", CatAppliance, 2, [3]int{2, 1, 1}, true},
	{"GE Microwave", "GE", CatAppliance, 2, [3]int{2, 1, 1}, false},
	{"Anova Sousvide", "Anova", CatAppliance, 2, [3]int{2, 1, 0}, false},
}
