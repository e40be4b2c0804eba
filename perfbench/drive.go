package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// opTimeout bounds one operation; a timed-out operation counts as failed.
const opTimeout = 10 * time.Second

// executor runs one operation on the given worker's connection and returns
// what the checks need from the reply.
type executor func(ctx context.Context, worker int, op Op) (any, error)

// opRecord is the outcome of one scheduled operation.
type opRecord struct {
	op Op
	// sent and done are when the request left and its reply completed.
	sent, done time.Time
	// latency is done minus the scheduled send time, in ms: a stall charges
	// its wait to every request scheduled behind it.
	latency float64
	// late is how far past its scheduled time an idle worker woke to send,
	// in ms: the generator's own lag, not the system's.
	late   float64
	idle   bool
	err    error
	result any
}

// queue is a list of operations consumed in order by one or more workers.
type queue struct {
	ops  []Op
	next atomic.Int64
}

// drive runs the schedule open-loop: each operation is sent at its scheduled
// offset from start, or as soon as a connection frees up if all are busy.
// Each worker owns one connection. Operations pinned to a connection
// (Conn >= 0) form that worker's own queue; the others share one queue. It
// returns one record per operation, indexed by operation ID.
func drive(ctx context.Context, ops []Op, workers int, exec executor) ([]opRecord, time.Time) {
	recs := make([]opRecord, len(ops))
	shared := &queue{}
	queues := make([]*queue, workers)
	for w := range queues {
		queues[w] = shared
	}
	for _, op := range ops {
		if op.Conn < 0 {
			shared.ops = append(shared.ops, op)
			continue
		}
		if queues[op.Conn] == shared {
			queues[op.Conn] = &queue{}
		}
		queues[op.Conn].ops = append(queues[op.Conn].ops, op)
	}

	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w, q := range queues {
		wg.Add(1)
		go func(q *queue, w int) {
			defer wg.Done()
			for {
				i := int(q.next.Add(1) - 1)
				if i >= len(q.ops) || ctx.Err() != nil {
					return
				}
				op := q.ops[i]
				due := start.Add(op.At)
				rec := opRecord{op: op}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					rec.idle = true
					rec.late = ms(time.Since(due))
				}
				rec.sent = time.Now()
				opCtx, cancel := context.WithTimeout(ctx, opTimeout)
				rec.result, rec.err = exec(opCtx, w, op)
				cancel()
				rec.done = time.Now()
				rec.latency = ms(rec.done.Sub(due))
				recs[op.ID] = rec
			}
		}(q, w)
	}
	wg.Wait()
	return recs, start
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
