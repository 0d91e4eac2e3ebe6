package main

import (
	"math/rand"
	"syscall"
	"time"
)

// poissonSchedule returns the due offsets of an open loop of Poisson
// arrivals at rate per second over d: exponential inter-arrival gaps drawn
// from r, every offset < d. The same r state gives the same schedule.
func poissonSchedule(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// timing is one request's open-loop accounting, all offsets from the
// start of the run. An open-loop request is due at a fixed time whether or
// not the system kept up; it is sent when its sender gets to it and ends
// when the reply is complete.
type timing struct {
	Due, Sent, Done time.Duration
}

// Latency is timed from the due time, so a stall also charges the wait it
// imposes on every request queued behind it.
func (t timing) Latency() time.Duration { return t.Done - t.Due }

// Lag is how late the generator sent the request.
func (t timing) Lag() time.Duration { return t.Sent - t.Due }

// Service is the time the system itself took: send to reply.
func (t timing) Service() time.Duration { return t.Done - t.Sent }

// sender replays a due-time schedule on one connection: it sleeps until
// each request is due, but never sends before the previous reply arrived,
// so a slow reply makes later requests late (and their lag shows it).
type sender struct {
	start time.Time
	now   func() time.Time
	sleep func(time.Duration)
}

func newSender(start time.Time) *sender {
	return &sender{start: start, now: time.Now, sleep: preciseSleep}
}

// sleepSlack is how much earlier than due preciseSleep wakes from the
// kernel sleep, to spin the rest: nanosleep overshoots by ~60µs.
const sleepSlack = 80 * time.Microsecond

// preciseSleep waits for d to within a few microseconds. time.Sleep rides
// the runtime's timers, which can overshoot by a millisecond — as long as
// a typical read takes — so an open loop built on it would mostly measure
// its own lateness. A blocking nanosleep releases the processor to other
// goroutines; only the last sleepSlack is spun.
func preciseSleep(d time.Duration) {
	deadline := time.Now().Add(d)
	if d > sleepSlack {
		ts := syscall.NsecToTimespec(int64(d - sleepSlack))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(deadline) {
	}
}

// run issues do(i) for each due offset in order and returns the timing of
// every request. before(i), if not nil, runs first, once the request is
// due: connection set-up it does delays the request (and shows as lag)
// without counting as its service time.
func (s *sender) run(due []time.Duration, before, do func(i int)) []timing {
	out := make([]timing, len(due))
	for i, d := range due {
		if wait := d - s.now().Sub(s.start); wait > 0 {
			s.sleep(wait)
		}
		if before != nil {
			before(i)
		}
		sent := s.now().Sub(s.start)
		do(i)
		out[i] = timing{Due: d, Sent: sent, Done: s.now().Sub(s.start)}
	}
	return out
}
