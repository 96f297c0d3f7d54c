package mem_test

import (
	"slices"
	"testing"

	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
	"github.com/virec/virec/internal/mem/dram"
	"github.com/virec/virec/internal/mem/xbar"
)

// devEvent is one observable outcome of a request: its miss signal or its
// completion, with the cycle the device reported.
type devEvent struct {
	id    int
	miss  bool
	cycle uint64
}

// ownershipRig is one device under test plus the devices it sits on, in
// the order a simulation ticks them.
type ownershipRig struct {
	dev   mem.Device
	ticks []mem.Device
}

// driveDevice presents a fixed pseudo-random request stream to a device,
// up to two accesses per cycle, retrying rejected requests in order, and
// returns every miss signal and completion. With scribble set, each
// request's fields are overwritten the moment its Done returns, as an
// issuer recycling the request would. A device that reads or keeps a
// request after completing it then behaves differently.
func driveDevice(t *testing.T, rig ownershipRig, scribble bool) []devEvent {
	t.Helper()
	const n = 300
	reqs := make([]*mem.Request, n)
	lent := make([]bool, n)
	done := make([]bool, n)
	var events []devEvent
	want := 0
	seed := uint64(12345)
	for i := range reqs {
		seed = seed*6364136223846793005 + 1442695040888963407
		r := &mem.Request{
			Addr: mem.Addr(0x10000 + (seed>>33)%48*mem.LineBytes + (seed>>20)%8*8),
			Size: 8,
			Kind: mem.Kind(seed >> 62 & 1),
		}
		id := i
		r.Miss = func(cycle uint64) { events = append(events, devEvent{id, true, cycle}) }
		if (seed>>40)%8 != 0 { // some requests have no Done; devices still serve them
			want++
			r.Done = func(cycle uint64) {
				if !lent[id] {
					t.Errorf("request %d completed but its Access was rejected", id)
				}
				if done[id] {
					t.Errorf("request %d completed twice", id)
				}
				done[id] = true
				events = append(events, devEvent{id, false, cycle})
				if scribble {
					*reqs[id] = mem.Request{Addr: 0xdead000, Size: 64, Kind: mem.Write,
						Inst: true, RegisterFill: true, PinSticky: true, Unpin: true}
				}
			}
		}
		reqs[i] = r
	}

	next := 0
	for cycle := uint64(0); cycle < 100000; cycle++ {
		for k := 0; k < 2 && next < n; k++ {
			if !rig.dev.Access(reqs[next]) {
				break
			}
			lent[next] = true
			next++
		}
		for _, d := range rig.ticks {
			d.Tick(cycle)
		}
		if next == n && countTrue(done) == want {
			return events
		}
	}
	t.Fatalf("stream did not drain: %d/%d issued, %d/%d completed", next, n, countTrue(done), want)
	return nil
}

func countTrue(bs []bool) int {
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	return c
}

// TestDevicesReleaseRequestsAtCompletion checks the ownership rule on
// mem.Request for every device model: scribbling over a request right
// after its Done returns changes nothing the device reports, and no
// rejected request is ever completed.
func TestDevicesReleaseRequestsAtCompletion(t *testing.T) {
	smallCache := func(below mem.Device) *cache.Cache {
		return cache.New(cache.Config{Name: "l1", SizeBytes: 1024, Assoc: 2,
			HitLatency: 2, MSHRs: 4, Ports: 1}, below)
	}
	rigs := map[string]func() ownershipRig{
		"delay": func() ownershipRig {
			d := mem.NewDelayDevice(7)
			return ownershipRig{d, []mem.Device{d}}
		},
		"dram": func() ownershipRig {
			d := dram.New(dram.Config{QueueDepth: 4})
			return ownershipRig{d, []mem.Device{d}}
		},
		"xbar": func() ownershipRig {
			below := mem.NewDelayDevice(10)
			x := xbar.New(xbar.Config{Latency: 3, PerCycle: 1, QueueDepth: 8}, below)
			return ownershipRig{x, []mem.Device{x, below}}
		},
		"cache": func() ownershipRig {
			below := mem.NewDelayDevice(20)
			c := smallCache(below)
			return ownershipRig{c, []mem.Device{c, below}}
		},
		"cache-xbar-dram": func() ownershipRig {
			d := dram.New(dram.Config{QueueDepth: 4})
			x := xbar.New(xbar.Config{Latency: 3, PerCycle: 1, QueueDepth: 4}, d)
			c := smallCache(x)
			return ownershipRig{c, []mem.Device{c, x, d}}
		},
		"injector": func() ownershipRig {
			below := mem.NewDelayDevice(20)
			c := smallCache(below)
			plan := harden.FaultPlan{MaxJitter: 6, BusyPermille: 80, MaxBusy: 3}
			inj := harden.NewInjector(plan, 7, c)
			return ownershipRig{inj, []mem.Device{c, below, inj}}
		},
	}
	for _, name := range []string{"delay", "dram", "xbar", "cache", "cache-xbar-dram", "injector"} {
		t.Run(name, func(t *testing.T) {
			clean := driveDevice(t, rigs[name](), false)
			scribbled := driveDevice(t, rigs[name](), true)
			if !slices.Equal(clean, scribbled) {
				t.Errorf("recycling requests at completion changed the device's behaviour:\n clean     %v\n scribbled %v",
					head(clean), head(scribbled))
			}
		})
	}
}

func head(ev []devEvent) []devEvent { return ev[:min(len(ev), 12)] }
