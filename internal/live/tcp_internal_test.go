package live

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/sim"
)

// breakingTransport breaks one receiver's stream on node 0's third Send,
// then loses every later frame to that receiver the way a dead stream
// does: the sender sees success, the receiver never sees the frame. The
// run duplicates every message, so that third Send is an original whose
// duplicate goes to the same receiver in the same step and is lost.
type breakingTransport struct {
	*TCPTransport
	brk func(tr *TCPTransport, from, to int, frame []byte) error

	fromZero atomic.Int64
	victim   atomic.Int64 // the broken receiver, -1 before the break
}

func (b *breakingTransport) Send(from, to int, frame []byte) error {
	if int(b.victim.Load()) == to {
		return nil
	}
	if from == 0 && b.fromZero.Add(1) == 3 {
		b.victim.Store(int64(to))
		return b.brk(b.TCPTransport, from, to, frame)
	}
	return b.TCPTransport.Send(from, to, frame)
}

// TestTCPBrokenStreamFailsRun breaks one node's inbound stream mid-run in
// each way the read loop can see it fail. The run must end promptly with
// an error naming that node: frames behind the break are lost, so a run
// that waited for them would hang.
func TestTCPBrokenStreamFailsRun(t *testing.T) {
	poison := func(pfx ...byte) func(tr *TCPTransport, from, to int, frame []byte) error {
		return func(tr *TCPTransport, from, to int, frame []byte) error {
			if err := tr.Send(from, to, pfx); err != nil {
				return err
			}
			return tr.Send(from, to, frame)
		}
	}
	cases := []struct {
		name string
		brk  func(tr *TCPTransport, from, to int, frame []byte) error
	}{
		{"zero length prefix", poison(0, 0, 0, 0)},
		{"oversize length prefix", poison(0xff, 0xff, 0xff, 0xff)},
		{"cut mid-frame", func(tr *TCPTransport, from, to int, frame []byte) error {
			tc := tr.conns[to]
			tc.mu.Lock()
			defer tc.mu.Unlock()
			if _, err := tc.c.Write(frame[:len(frame)/2]); err != nil {
				return err
			}
			return tc.c.(*net.TCPConn).CloseWrite()
		}},
	}
	p, ok := gossip.ByName("push-pull")
	if !ok {
		t.Fatal("push-pull not in registry")
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := NewTCPTransport(12)
			if err != nil {
				t.Fatal(err)
			}
			bt := &breakingTransport{TCPTransport: tr, brk: c.brk}
			bt.victim.Store(-1)
			done := make(chan error, 1)
			go func() {
				_, err := Run(Config{N: 12, Protocol: p, Seed: 1, Transport: bt,
					Faults: &sim.FaultPlan{Duplicate: 1}})
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("run hangs on a broken stream")
			}
			want := fmt.Sprintf("node %d received", bt.victim.Load())
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("run error %v, want one containing %q", err, want)
			}
		})
	}
}
