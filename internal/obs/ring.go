package obs

import (
	"sync"
)

// DefaultRingCapacity is the event capacity of the ring buffer the -listen
// telemetry server tails when no explicit size is given.
const DefaultRingCapacity = 1024

// RingSink is a bounded, concurrency-safe event buffer: the newest
// Capacity events are retained (older ones are overwritten), and live
// subscribers receive every event their bounded channel has room for.
// Emit NEVER blocks — a subscriber that cannot keep up loses events, and
// every loss is counted (per subscriber and in total, plus an optional
// registry counter) instead of stalling the emitting hot path. The
// /events endpoint of the obs.Server is its only intended consumer, but
// it is a plain Sink and composes with NewMultiSink like any other.
//
// All mutable state — the ring, the subscriber set, and every channel
// send and close — is guarded by one mutex, so Emit, Subscribe,
// Unsubscribe, and Close are safe to call from any goroutine in any
// order.
type RingSink struct {
	// DropCounter, when non-nil, is incremented once per event dropped on
	// a full subscriber channel (set it to a Registry counter such as
	// lama_obs_events_dropped_total before the sink is shared). Counter
	// methods are nil-safe, so leaving it nil is valid.
	DropCounter *Counter

	mu sync.Mutex
	//lama:guards mu
	buf []Event
	//lama:guards mu
	seq uint64 // total events emitted; buf[(seq-1)%cap] is the newest
	//lama:guards mu
	dropped int64             // events not delivered to some subscriber
	subs    map[*RingSub]bool //lama:guards mu
	closed  bool              //lama:guards mu
}

// RingSub is one live subscription to a RingSink's event stream.
type RingSub struct {
	// C delivers events in emission order. It is closed when the sink is
	// closed or the subscription is cancelled with Unsubscribe.
	C <-chan Event

	ch chan Event
}

// NewRingSink returns a ring buffer retaining the newest capacity events
// (DefaultRingCapacity when capacity <= 0).
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &RingSink{
		buf:  make([]Event, capacity),
		subs: map[*RingSub]bool{},
	}
}

// Emit records the event and offers it to every subscriber without
// blocking; subscribers with full channels drop it (counted).
func (s *RingSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.buf[s.seq%uint64(len(s.buf))] = e
	s.seq++
	for sub := range s.subs {
		select {
		case sub.ch <- e:
		default:
			s.dropped++
			s.DropCounter.Inc()
		}
	}
}

// Subscribe registers a live subscriber with the given channel buffer
// (64 when buffer <= 0) and returns it together with a replay of the
// newest min(replay, buffered) events, atomically with the registration
// so no event is both missing from the replay and dropped from the
// channel. Returns a nil subscription on a closed sink.
func (s *RingSink) Subscribe(replay, buffer int) ([]Event, *RingSub) {
	if buffer <= 0 {
		buffer = 64
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil
	}
	sub := &RingSub{ch: make(chan Event, buffer)}
	sub.C = sub.ch
	s.subs[sub] = true
	return s.tailLocked(replay), sub
}

// Unsubscribe cancels the subscription and closes its channel; it is a
// no-op for an unknown (or already cancelled) subscription.
func (s *RingSink) Unsubscribe(sub *RingSub) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs[sub] {
		delete(s.subs, sub)
		close(sub.ch)
	}
}

// Tail returns the newest min(n, buffered) events in emission order.
func (s *RingSink) Tail(n int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tailLocked(n)
}

func (s *RingSink) tailLocked(n int) []Event {
	have := s.seq
	if have > uint64(len(s.buf)) {
		have = uint64(len(s.buf))
	}
	if n < 0 {
		n = 0
	}
	if uint64(n) > have {
		n = int(have)
	}
	out := make([]Event, 0, n)
	for i := s.seq - uint64(n); i < s.seq; i++ {
		out = append(out, s.buf[i%uint64(len(s.buf))])
	}
	return out
}

// Len returns the number of events currently buffered (at most the
// capacity).
func (s *RingSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq > uint64(len(s.buf)) {
		return len(s.buf)
	}
	return int(s.seq)
}

// Total returns the number of events ever emitted to the sink.
func (s *RingSink) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Dropped returns the total number of subscriber-side drops.
func (s *RingSink) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close stops the sink: subscribers' channels are closed, later Emits are
// dropped silently, and later Subscribes fail. Always returns nil.
func (s *RingSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for sub := range s.subs {
		delete(s.subs, sub)
		close(sub.ch)
	}
	return nil
}
