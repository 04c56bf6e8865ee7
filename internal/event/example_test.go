package event_test

import (
	"fmt"

	"repro/internal/event"
)

// Example replays a tiny dynamic-network schedule — a payment arrival,
// a churn event, and the payment's completion — in deterministic
// (Time, Seq) order: the exact loop the simulator's engine runs. The
// fingerprint is the determinism evidence two same-seed runs compare.
func Example() {
	q := event.NewQueue()
	q.Schedule(event.Event{Time: 0.5, Kind: event.PaymentArrival, ID: 1})
	q.Schedule(event.Event{Time: 2.0, Kind: event.PaymentComplete, ID: 1})
	q.Schedule(event.Event{Time: 1.0, Kind: event.ChannelClose, A: 2, B: 3})

	var clock event.Clock
	log := event.Log{Retain: true}
	var e event.Event
	for q.Len() > 0 {
		e, _ = q.Pop()
		clock.AdvanceTo(e.Time)
		log.Record(e)
		fmt.Printf("t=%.1f %s\n", e.Time, e.Kind)
	}
	fmt.Printf("clock %.1fs, %d events, fingerprint %016x\n", e.Time, len(log.Events()), log.Fingerprint())
	// Output:
	// t=0.5 arrival
	// t=1.0 close
	// t=2.0 complete
	// clock 2.0s, 3 events, fingerprint a69080898b5bc4b5
}
