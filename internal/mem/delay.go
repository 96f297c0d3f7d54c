package mem

// DelayDevice is a memory device that completes every request after a
// fixed latency with unlimited bandwidth. It stands in for the full DRAM
// model in unit tests and latency-sensitivity experiments where queueing
// effects are deliberately excluded.
type DelayDevice struct {
	Latency uint64

	pending EventQueue[*Request]
	now     uint64
}

// NewDelayDevice returns a device with the given fixed latency in cycles.
func NewDelayDevice(latency uint64) *DelayDevice {
	return &DelayDevice{Latency: latency}
}

// Access always accepts.
func (d *DelayDevice) Access(r *Request) bool {
	d.pending.Push(d.now+d.Latency, r)
	return true
}

// Tick completes due requests.
func (d *DelayDevice) Tick(cycle uint64) {
	d.now = cycle
	for d.pending.Due(cycle) {
		at, r := d.pending.Pop()
		r.Complete(at)
	}
}

// NextEvent reports the next due completion, assuming no intervening
// accesses. ok=false means nothing is in flight. Read-only; now must be
// the last ticked cycle.
func (d *DelayDevice) NextEvent(now uint64) (uint64, bool) {
	return d.pending.Next(now)
}

// Idle reports whether no requests are in flight.
func (d *DelayDevice) Idle() bool { return d.pending.Len() == 0 }
