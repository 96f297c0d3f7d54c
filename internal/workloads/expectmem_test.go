package workloads

import (
	"testing"

	"github.com/virec/virec/internal/mem"
)

// TestExpectMemLastStoreWins: expectMem takes a golden model's stores in
// program order, out of address order and with repeats. The last store to
// an address is the one checked, and with several mismatches the lowest
// address is the one reported.
func TestExpectMemLastStoreWins(t *testing.T) {
	m := mem.NewMemory()
	defer m.Release()
	verify := expectMem([]word{{0x30, 1}, {0x10, 2}, {0x20, 3}, {0x10, 4}, {0x30, 5}, {0x10, 6}})
	m.Write64(0x10, 6)
	m.Write64(0x20, 3)
	m.Write64(0x30, 5)
	if err := verify(nil, m); err != nil {
		t.Fatalf("memory holding each address's last store: %v", err)
	}
	for _, tc := range []struct {
		addr mem.Addr
		val  uint64
		want string
	}{
		{0x30, 1, "mem[0x30] = 1, want 5"}, // an earlier store to 0x30 is not expected
		{0x10, 4, "mem[0x10] = 4, want 6"}, // 0x10 and 0x30 now both differ
		{0x20, 0, "mem[0x10] = 4, want 6"},
	} {
		m.Write64(tc.addr, tc.val)
		err := verify(nil, m)
		if err == nil || err.Error() != tc.want {
			t.Errorf("after mem[%#x] = %d: got %v, want %q", tc.addr, tc.val, err, tc.want)
		}
	}
}
