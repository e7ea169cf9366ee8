// Package core implements the BehavIoT pipeline (paper §4): traffic
// partitioning and annotation, periodic model inference and periodic-event
// classification (timer + DBSCAN hybrid), user-action models (per-activity
// binary Random Forests), user-event trace construction, system behavior
// modeling via PFSM, and the three deviation metrics with their
// significance thresholds.
package core

import (
	"time"

	"behaviot/internal/flows"
)

// EventClass partitions every flow into exactly one of three event types
// (paper §4.1): user events, periodic events, and aperiodic events.
type EventClass uint8

// Event classes.
const (
	EventPeriodic EventClass = iota
	EventUser
	EventAperiodic
)

// String names the class.
func (c EventClass) String() string {
	switch c {
	case EventPeriodic:
		return "periodic"
	case EventUser:
		return "user"
	default:
		return "aperiodic"
	}
}

// Event is one classified flow burst.
type Event struct {
	// Class is the event type.
	Class EventClass
	// Device is the IoT device that produced the event.
	Device string
	// Label is the user-activity label ("device:activity") for user
	// events, or the traffic-group description for periodic events.
	Label string
	// Time is the event (burst start) time.
	Time time.Time
	// Flow is the underlying flow burst.
	Flow *flows.Flow
	// Confidence is the classifier confidence for user events (0 for
	// other classes).
	Confidence float64
}
