package opencl

import (
	"time"

	"bomw/internal/device"
	"bomw/internal/tensor"
)

// Event records the lifetime of one enqueued command, in the style of
// clGetEventProfilingInfo (QUEUED / START / END).
type Event struct {
	Name   string
	Queued time.Duration
	Start  time.Duration
	End    time.Duration
	Report device.Report
}

// Duration returns the command's execution time (START to END).
func (e *Event) Duration() time.Duration { return e.End - e.Start }

// Queue is an in-order command queue bound to one device, with profiling
// always enabled.
type Queue struct {
	Dev    *ClDevice
	events []*Event
	buf    []Event // reserved backing for events; see Reserve
	last   time.Duration
}

// NewQueue creates an empty command queue for a device.
func NewQueue(d *ClDevice) *Queue { return &Queue{Dev: d} }

// Reserve pre-allocates backing storage for n events in one block. A
// caller that knows its command count up front (the runtime enqueues
// write + kernels + read per batch) trades one allocation for n — on the
// serving hot path the profiling log is most of the per-batch garbage.
// Events beyond the reservation fall back to individual allocations.
func (q *Queue) Reserve(n int) {
	if cap(q.buf)-len(q.buf) < n {
		q.buf = make([]Event, 0, n)
	}
	if q.events == nil && cap(q.events) < n {
		q.events = make([]*Event, 0, n)
	}
}

// Events returns the profiling log of all commands in enqueue order.
func (q *Queue) Events() []*Event { return q.events }

// Last returns the completion time of the most recent command.
func (q *Queue) Last() time.Duration { return q.last }

func (q *Queue) push(name string, queued time.Duration, rep device.Report) *Event {
	var ev *Event
	if len(q.buf) < cap(q.buf) {
		q.buf = q.buf[:len(q.buf)+1]
		ev = &q.buf[len(q.buf)-1]
	} else {
		ev = new(Event)
	}
	*ev = Event{
		Name:   name,
		Queued: queued,
		Start:  rep.Start,
		End:    rep.Start + rep.Latency,
		Report: rep,
	}
	q.events = append(q.events, ev)
	if ev.End > q.last {
		q.last = ev.End
	}
	return ev
}

// EnqueueNDRangeKernel launches a compiled kernel over a batch held in
// in, writing activations to a fresh tensor. The math runs on the host
// pool; time and energy are charged by the device model.
func (q *Queue) EnqueueNDRangeKernel(at time.Duration, k *Kernel, in *tensor.Tensor) (*tensor.Tensor, *Event) {
	out := k.Fn(q.Dev.Pool, in)
	rep := q.Dev.Sim.ExecuteCompute(max(at, q.last), k.Workload, in.Dim(0))
	return out, q.push("clEnqueueNDRangeKernel:"+k.Name, at, rep)
}

// Finish blocks (in virtual time) until all enqueued commands complete,
// returning the completion timestamp — the clFinish the paper's kernels
// synchronise with.
func (q *Queue) Finish(at time.Duration) time.Duration { return max(at, q.last) }

// EnergyJ sums the energy of all commands in the queue's log.
func (q *Queue) EnergyJ() float64 {
	var e float64
	for _, ev := range q.events {
		e += ev.Report.EnergyJ()
	}
	return e
}

func max(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
