package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// job is one scheduled action of a request mix: one request, or a
// short sequence that must run in order on one connection.
type job struct {
	seq  int
	kind string
	due  time.Duration // offset from the loop's start
}

// sample is one completed request. Latency runs from when the request
// was due to when its response was read.
type sample struct {
	op      string
	id      string
	latency time.Duration
	ok      bool
}

// doFunc performs one job on one connection. due is when the job was
// due; the function times each of its requests from when that request
// was due (the job's due time, or the end of the request before it).
type doFunc func(conn int, j job, due time.Time) []sample

// openLoop sends jobs on their schedule over conns connections,
// whether or not earlier responses have come back: a job waits only
// for a free connection. A stall therefore delays the jobs behind it,
// and their latencies — timed from when each was due — show it. It
// returns the samples and how late each job started.
func openLoop(jobs []job, conns int, do doFunc) ([]sample, latencies) {
	start := time.Now()
	ch := make(chan job)
	var (
		mu      sync.Mutex
		samples []sample
		late    = make(latencies, len(jobs))
		wg      sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range ch {
				due := start.Add(j.due)
				late[j.seq] = time.Since(due)
				out := do(c, j, due)
				mu.Lock()
				samples = append(samples, out...)
				mu.Unlock()
			}
		}(c)
	}
	for _, j := range jobs {
		if d := time.Until(start.Add(j.due)); d > 0 {
			time.Sleep(d)
		}
		ch <- j
	}
	close(ch)
	wg.Wait()
	return samples, late
}

// closedLoop runs n jobs back to back on conns connections: each
// connection sends its next job as soon as the previous one is done.
// It returns the samples and the time the n jobs took.
func closedLoop(n int, kindOf func(seq int) string, conns int, do doFunc) ([]sample, time.Duration) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				seq := int(next.Add(1) - 1)
				if seq >= n {
					return
				}
				now := time.Now()
				out := do(c, job{seq: seq, kind: kindOf(seq), due: now.Sub(start)}, now)
				mu.Lock()
				samples = append(samples, out...)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return samples, time.Since(start)
}
