package live

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ugf-sim/ugf/internal/live/wire"
	"github.com/ugf-sim/ugf/internal/sim"
)

// network is the sim.Network a live run executes over: the engine's sends
// become wire frames on the Transport, one receive goroutine per node
// decodes and stages what lands, and an ack counter lets Sync wait until
// every frame sent has been staged. The engine calls Send, Sync and Take
// from its own goroutine; only the receivers run concurrently.
type network struct {
	tr     Transport
	inbox  []inbox
	now    sim.Step
	sent   int64        // frames handed to the transport; engine-owned
	acked  atomic.Int64 // frames staged by receivers
	notify chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup

	errMu sync.Mutex
	err   error
}

// staged is one received frame: the decoded envelope, or, when the payload
// checksum failed, its intact header with corrupt set.
type staged struct {
	env     wire.Envelope
	corrupt bool
}

// less orders frames as the engine's calendar bucket does: by send step,
// sender and the sender's sequence number, a duplicate after its original.
func (a *staged) less(b *staged) bool {
	x, y := &a.env, &b.env
	switch {
	case x.SentAt != y.SentAt:
		return x.SentAt < y.SentAt
	case x.From != y.From:
		return x.From < y.From
	case x.Seq != y.Seq:
		return x.Seq < y.Seq
	}
	return !x.Dup && y.Dup
}

// inbox is one node's receive side. The receive goroutine appends to
// staged under mu; Take moves the step's due frames into due, sorted.
type inbox struct {
	mu     sync.Mutex
	staged []staged

	due   []staged
	next  int // due[next:] are still to be taken
	dueAt sim.Step
}

// newNetwork starts one receive goroutine per node of tr.
func newNetwork(n int, tr Transport) *network {
	nw := &network{
		tr:     tr,
		inbox:  make([]inbox, n),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	for id := range nw.inbox {
		nw.wg.Add(1)
		go nw.receive(id)
	}
	return nw
}

// close tears the network down: closing the transport unblocks any Send
// under way, then the receivers stop.
func (nw *network) close() {
	nw.tr.Close()
	close(nw.stop)
	nw.wg.Wait()
}

// receive is node id's reader: decode each incoming frame, stage it and
// acknowledge it. It never blocks on the engine, so transports can always
// drain.
func (nw *network) receive(id int) {
	defer nw.wg.Done()
	stream := nw.tr.Recv(id)
	for {
		select {
		case frame, ok := <-stream:
			if !ok {
				return
			}
			nw.stage(id, frame)
			nw.acked.Add(1)
			select {
			case nw.notify <- struct{}{}:
			default:
			}
		case <-nw.stop:
			return
		}
	}
}

// stage decodes one frame for node id. A failed payload checksum stages
// the intact header as a corrupt copy; any other decode failure fails the
// run, since the network only ever carries its own frames.
func (nw *network) stage(id int, frame []byte) {
	body, err := wire.ParseFrame(frame)
	if err != nil {
		nw.fail(fmt.Errorf("live: node %d received an unparsable frame: %w", id, err))
		return
	}
	env, err := wire.DecodeEnvelope(body)
	corrupt := errors.Is(err, wire.ErrPayloadChecksum)
	switch {
	case err != nil && !corrupt:
		nw.fail(fmt.Errorf("live: node %d received an undecodable envelope: %w", id, err))
		return
	case int(env.To) != id:
		nw.fail(fmt.Errorf("live: node %d received a frame addressed to %d", id, env.To))
		return
	}
	in := &nw.inbox[id]
	in.mu.Lock()
	in.staged = append(in.staged, staged{env: env, corrupt: corrupt})
	in.mu.Unlock()
}

func (nw *network) fail(err error) {
	nw.errMu.Lock()
	if nw.err == nil {
		nw.err = err
	}
	nw.errMu.Unlock()
}

func (nw *network) failed() error {
	nw.errMu.Lock()
	defer nw.errMu.Unlock()
	return nw.err
}

// Send implements sim.Network: encode the copy, flip a real payload bit
// if the fault plan corrupted it, and hand the frame to the transport.
func (nw *network) Send(m sim.Message, seq int64, dup, corrupt bool) error {
	if m.Payload == nil {
		// The engine tolerates nil payloads (kind "?"); the wire cannot
		// carry one. No registry protocol sends them.
		return fmt.Errorf("live: node %d sent a nil payload at step %d", m.From, m.SentAt)
	}
	env := wire.Envelope{
		From: m.From, To: m.To, SentAt: m.SentAt, ArriveAt: m.DeliverAt,
		Seq: seq, Dup: dup, Kind: m.Payload.Kind(), Payload: m.Payload,
	}
	body, err := env.Encode()
	if err != nil {
		return fmt.Errorf("live: node %d encode to %d: %w", m.From, m.To, err)
	}
	if corrupt {
		// The receiver's checksum, not a flag, detects the damage.
		if err := wire.CorruptBody(body, corruptBit(m.From, m.To, m.SentAt, seq)); err != nil {
			return fmt.Errorf("live: node %d corrupt to %d: %w", m.From, m.To, err)
		}
	}
	if err := nw.tr.Send(int(m.From), int(m.To), wire.AppendFrame(nil, body)); err != nil {
		return err
	}
	nw.sent++
	return nil
}

// corruptBit picks which payload bit a corrupt copy gets flipped. Any
// deterministic function of the message coordinates works, since the
// receiver only checks the checksum.
func corruptBit(from, to sim.ProcID, sentAt sim.Step, seq int64) uint64 {
	return uint64(seq)*0x9e3779b97f4a7c15 ^ uint64(sentAt)<<17 ^
		uint64(from)<<9 ^ uint64(to)
}

// Sync implements sim.Network: the ack barrier. It returns once every
// frame sent has been staged, or as soon as a receiver records an error,
// since frames behind a broken stream are never acknowledged.
func (nw *network) Sync(now sim.Step) error {
	for nw.acked.Load() < nw.sent && nw.failed() == nil {
		<-nw.notify
	}
	if err := nw.failed(); err != nil {
		return err
	}
	if acked := nw.acked.Load(); acked > nw.sent {
		return fmt.Errorf("live: %d frames received, %d sent", acked, nw.sent)
	}
	nw.now = now
	return nil
}

// Take implements sim.Network: the next frame due at node to this step,
// in the calendar's bucket order.
func (nw *network) Take(to sim.ProcID) (sim.Payload, bool, error) {
	in := &nw.inbox[to]
	if in.dueAt != nw.now {
		if err := in.collect(to, nw.now); err != nil {
			return nil, false, err
		}
	}
	if in.next == len(in.due) {
		return nil, false, fmt.Errorf("live: node %d received no frame for a message due at step %d", to, nw.now)
	}
	f := &in.due[in.next]
	in.next++
	return f.env.Payload, f.corrupt, nil
}

// collect moves the frames due at step now from staged into due, sorted.
// A frame left over from an earlier step, or staged for one, is out of
// calendar order.
func (in *inbox) collect(to sim.ProcID, now sim.Step) error {
	if in.next < len(in.due) {
		return fmt.Errorf("live: node %d received a frame due at step %d that the calendar did not deliver", to, in.dueAt)
	}
	in.due, in.next, in.dueAt = in.due[:0], 0, now
	in.mu.Lock()
	kept := in.staged[:0]
	for _, f := range in.staged {
		switch {
		case f.env.ArriveAt > now:
			kept = append(kept, f)
		case f.env.ArriveAt < now:
			in.mu.Unlock()
			return fmt.Errorf("live: node %d received a frame due at step %d after the calendar passed it", to, f.env.ArriveAt)
		default:
			in.due = append(in.due, f)
		}
	}
	in.staged = kept
	in.mu.Unlock()
	sort.Slice(in.due, func(i, j int) bool { return in.due[i].less(&in.due[j]) })
	return nil
}
