// Package monitor is the continuous-availability watchtower over the
// measurement engine: a per-target health state machine with hysteresis,
// rolling-window availability SLOs evaluated as multi-window multi-burn-
// rate alerts (the Google SRE workbook shape), and a bounded structured
// event journal. It consumes probe outcomes (from the campaign's
// observer hook or the cluster's forwards and peer probes), keeps
// everything in rings of per-interval slots, and renders itself as the
// /debug/watch surface via obs.WatchSource.
//
// The paper's headline result is *continuous* measurement — availability
// is a property of a time window, not of a cumulative aggregate. This
// package is the operator-facing half of that observation: the rolling
// windows that make a ten-minute outage visible, and the burn-rate
// alerts a production resolver fleet would page on.
package monitor

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event types recorded in the journal.
const (
	// EventState is a target health-state transition.
	EventState = "state-transition"
	// EventAlertFire marks a burn-rate alert starting to fire.
	EventAlertFire = "alert-fire"
	// EventAlertResolve marks a firing alert clearing.
	EventAlertResolve = "alert-resolve"
	// EventConfig records tracker configuration at construction.
	EventConfig = "config"
)

// Event is one journal entry. Fields are omitted when not meaningful for
// the event type.
type Event struct {
	// Time is the tracker clock when the event happened (virtual under
	// netsim).
	Time time.Time `json:"ts"`
	// Seq is a monotonic sequence number, surviving ring eviction so
	// consumers can detect gaps.
	Seq uint64 `json:"seq"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Target is the resolver the event concerns (empty for config).
	Target string `json:"target,omitempty"`
	// From and To are state names for transitions.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Alert names the burn window pair for alert events.
	Alert string `json:"alert,omitempty"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// Journal is a bounded in-memory ring of events. When full, the oldest
// events are evicted; Seq numbers expose the loss. Safe for concurrent
// use.
type Journal struct {
	mu    sync.Mutex
	ring  []Event
	start int // index of the oldest event
	n     int // live events
	seq   uint64
}

// NewJournal builds a journal holding at most capacity events
// (minimum 1).
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{ring: make([]Event, capacity)}
}

// Append stamps e with the next sequence number and records it,
// evicting the oldest event when full.
func (j *Journal) Append(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	if j.n < len(j.ring) {
		j.ring[(j.start+j.n)%len(j.ring)] = e
		j.n++
		return
	}
	j.ring[j.start] = e
	j.start = (j.start + 1) % len(j.ring)
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.ring[(j.start+i)%len(j.ring)]
	}
	return out
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// WriteJSONL writes the retained events as JSON Lines, oldest first —
// the export format behind /debug/watch/events.
func (j *Journal) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w) // Encode appends the newline JSONL needs
	for _, e := range j.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
