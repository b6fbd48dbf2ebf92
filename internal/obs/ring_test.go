package obs

import (
	"sync"
	"testing"
)

// ev builds a ring test event numbered by its "i" field.
func ev(name string, i int) Event {
	return Event{Source: SrcEngine, Name: name, Fields: []Field{F("i", i)}}
}

// seq is the number ev gave the event.
func seq(e Event) int { return e.Fields[0].Value.(int) }

func TestRingSinkTailAndWrap(t *testing.T) {
	s := NewRingSink(4)
	for i := 0; i < 10; i++ {
		s.Emit(ev("tick", i))
	}
	if s.Len() != 4 || s.Total() != 10 {
		t.Fatalf("len=%d total=%d", s.Len(), s.Total())
	}
	tail := s.Tail(100)
	if len(tail) != 4 {
		t.Fatalf("tail = %d events", len(tail))
	}
	for i, e := range tail {
		if seq(e) != 6+i {
			t.Fatalf("tail[%d] is event %d, want %d", i, seq(e), 6+i)
		}
	}
	if got := s.Tail(2); len(got) != 2 || seq(got[0]) != 8 {
		t.Fatalf("Tail(2) = %v", got)
	}
	if got := s.Tail(0); len(got) != 0 {
		t.Fatalf("Tail(0) = %v", got)
	}
	if got := s.Tail(-3); len(got) != 0 {
		t.Fatalf("Tail(-3) = %v", got)
	}
}

func TestRingSinkSubscribeReplayAndLive(t *testing.T) {
	s := NewRingSink(8)
	s.Emit(ev("a", 0))
	s.Emit(ev("b", 1))
	tail, sub := s.Subscribe(10, 4)
	if sub == nil {
		t.Fatal("nil sub on open sink")
	}
	if len(tail) != 2 || tail[0].Name != "a" || tail[1].Name != "b" {
		t.Fatalf("replay = %v", tail)
	}
	s.Emit(ev("c", 2))
	if got := <-sub.C; got.Name != "c" {
		t.Fatalf("live event = %v", got)
	}
	s.Unsubscribe(sub)
	if _, ok := <-sub.C; ok {
		t.Fatal("channel open after Unsubscribe")
	}
	s.Unsubscribe(sub) // idempotent
	s.Emit(ev("d", 3)) // no subscriber: no drop accounting
	if s.Dropped() != 0 {
		t.Fatalf("dropped = %d", s.Dropped())
	}
}

func TestRingSinkSlowSubscriberDropsNotBlocks(t *testing.T) {
	s := NewRingSink(8)
	reg := NewRegistry()
	s.DropCounter = reg.Counter("lama_obs_events_dropped_total")
	_, sub := s.Subscribe(0, 2)
	// Nobody reads sub.C: the buffer fills at 2, everything later drops.
	for i := 0; i < 10; i++ {
		s.Emit(ev("tick", i)) // must not block
	}
	if len(sub.C) != 2 || s.Dropped() != 8 {
		t.Fatalf("sub buffered=%d sink dropped=%d", len(sub.C), s.Dropped())
	}
	if got := reg.Counter("lama_obs_events_dropped_total").Value(); got != 8 {
		t.Fatalf("drop counter = %d", got)
	}
	s.Unsubscribe(sub)
}

func TestRingSinkClose(t *testing.T) {
	s := NewRingSink(4)
	_, sub := s.Subscribe(0, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("channel open after Close")
	}
	s.Emit(ev("late", 0)) // dropped silently
	if s.Total() != 0 {
		t.Fatalf("closed sink accepted events: total=%d", s.Total())
	}
	if tail, sub := s.Subscribe(0, 2); tail != nil || sub != nil {
		t.Fatal("Subscribe succeeded on closed sink")
	}
	if err := s.Close(); err != nil {
		t.Fatal("double Close should be nil")
	}
}

func TestRingSinkConcurrent(t *testing.T) {
	s := NewRingSink(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Emit(ev("tick", i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_, sub := s.Subscribe(4, 2)
			if sub == nil {
				return
			}
			s.Tail(8)
			s.Unsubscribe(sub)
		}
	}()
	wg.Wait()
	<-done
	if s.Total() != 800 {
		t.Fatalf("total = %d", s.Total())
	}
	s.Close()
}
