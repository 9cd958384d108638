package live_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/live/wire"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/simtest"
)

// TestTCPTransportMatchesSim runs the live runtime over real loopback TCP
// sockets — every frame crosses the kernel's network stack — and holds
// the outcome to the same bit-exact oracle equality as the in-process
// transport. The ack barrier, not the transport, is what makes the run
// deterministic; this is the test that proves it. The N = 128 cases are
// the benchmark's scale, where every node's stream carries frames from
// many senders, and the ugf row runs the paper's adversary over sockets.
func TestTCPTransportMatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback sockets in -short")
	}
	small := &sim.FaultPlan{Seed: 5, Drop: 0.1, Duplicate: 0.05, Corrupt: 0.05}
	lossy, err := sim.ParseFaultPlan("drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	ugf, ok := adversary.ByName("ugf")
	if !ok {
		t.Fatal("ugf not in registry")
	}
	cases := []struct {
		name   string
		n, f   int
		faults *sim.FaultPlan
		seeds  []uint64
		adv    sim.Adversary
	}{
		{"push-pull", 12, 0, small, []uint64{1, 2}, nil},
		{"ears", 12, 0, small, []uint64{1, 2}, nil},
		{"push-pull", 128, 38, lossy, []uint64{3}, nil},
		{"ears", 128, 38, lossy, []uint64{3}, nil},
		{"push-pull", 24, 7, small, []uint64{1, 3, 4}, ugf},
	}
	for _, c := range cases {
		for _, seed := range c.seeds {
			label := fmt.Sprintf("%s/N=%d/seed=%d", c.name, c.n, seed)
			if c.adv != nil {
				label += "/" + c.adv.Name()
			}
			simCfg := sim.Config{
				N: c.n, F: c.f, Protocol: proto(t, c.name), Adversary: c.adv, Seed: seed,
				Faults: c.faults, KeepPerProcess: true,
			}
			want, err := sim.Run(simCfg)
			if err != nil {
				t.Fatalf("%s: sim: %v", label, err)
			}
			liveCfg, err := live.FromSimConfig(simCfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := live.NewTCPTransport(simCfg.N)
			if err != nil {
				t.Fatalf("%s: transport: %v", label, err)
			}
			liveCfg.Transport = tr
			got, err := live.Run(liveCfg)
			if err != nil {
				t.Fatalf("%s: live over TCP: %v", label, err)
			}
			if diffs := simtest.DiffOutcomes(got, want); len(diffs) != 0 {
				t.Errorf("%s: TCP run diverges from sim:\n  %s",
					label, strings.Join(diffs, "\n  "))
			}
		}
	}
}

// TestTCPSharedStreamManySenders has every node of a transport send to
// one receiver at once, so all of them write on that receiver's one
// connection. Some frames exceed any socket buffer and take several
// kernel writes. Every frame must arrive intact, exactly once, and in
// its sender's order, and the transport must hold exactly one
// connection per node.
func TestTCPSharedStreamManySenders(t *testing.T) {
	const (
		n       = 16
		perSend = 40
		big     = 512 << 10
	)
	sockets0, fdErr := openSockets()
	tr, err := live.NewTCPTransport(n)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var wg sync.WaitGroup
	for from := 0; from < n; from++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < perSend; seq++ {
				if err := tr.Send(from, 0, testFrame(from, seq, big)); err != nil {
					t.Errorf("send %d#%d: %v", from, seq, err)
					return
				}
			}
		}()
	}
	next := make([]int, n)
	stream := tr.Recv(0)
	for got := 0; got < n*perSend; got++ {
		var frame []byte
		select {
		case frame = <-stream:
		case <-time.After(time.Minute):
			t.Fatalf("stalled after %d of %d frames", got, n*perSend)
		}
		body, err := wire.ParseFrame(frame)
		if err != nil || len(body) < 8 {
			t.Fatalf("frame %d: %d bytes, %v", got, len(frame), err)
		}
		from := int(binary.BigEndian.Uint32(body))
		seq := int(binary.BigEndian.Uint32(body[4:]))
		if from < 0 || from >= n || seq != next[from] {
			t.Fatalf("frame %d: sender %d seq %d out of order", got, from, seq)
		}
		if !bytes.Equal(frame, testFrame(from, seq, big)) {
			t.Fatalf("frame %d: sender %d seq %d arrived damaged", got, from, seq)
		}
		next[from]++
	}
	wg.Wait()
	select {
	case frame := <-stream:
		t.Fatalf("extra %d-byte frame after all sends", len(frame))
	default:
	}

	if fdErr != nil {
		t.Logf("connection count unchecked: %v", fdErr)
		return
	}
	sockets, err := openSockets()
	if err != nil {
		t.Fatal(err)
	}
	if got := sockets - sockets0; got != 2*n {
		t.Errorf("transport holds %d sockets, want %d: one dialed and one accepted end per node", got, 2*n)
	}
}

// testFrame is sender from's frame number seq: its identity, then
// filler derived from it. Every fifth frame is big bytes long.
func testFrame(from, seq, big int) []byte {
	size := 64 + 8*seq
	if seq%5 == 4 {
		size = big
	}
	body := make([]byte, size)
	binary.BigEndian.PutUint32(body, uint32(from))
	binary.BigEndian.PutUint32(body[4:], uint32(seq))
	for i := 8; i < size; i++ {
		body[i] = byte(from*31 + seq*7 + i)
	}
	return wire.AppendFrame(nil, body)
}

// openSockets counts this process's open socket descriptors.
func openSockets() (int, error) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, err
	}
	count := 0
	for _, fd := range fds {
		if target, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && strings.HasPrefix(target, "socket:") {
			count++
		}
	}
	return count, nil
}
