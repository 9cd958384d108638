package sim

import "fmt"

// Network carries a run's messages over a real transport (RunOver). The
// engine keeps every decision — the calendar, delivery order, fault
// verdicts, crashes, stats and trace — and the network moves the bytes:
// each copy the calendar holds also travels the wire, and delivery hands
// the protocol the payload decoded off the wire instead of the in-memory
// one. The engine calls it from one goroutine, in three places:
//
//   - Send, from the serial commit, once for every message copy put in
//     the calendar, in calendar insertion order;
//   - Sync, once per active step before deliveries: the barrier that
//     returns when every copy sent so far has been received;
//   - Take, from the delivery phase, once for every calendar message of
//     the step, in bucket order.
//
// Any error stops the run, and RunOver returns it.
type Network interface {
	// Send puts one copy of m on the wire. seq is the sender's
	// post-increment send count (the fault plan's roll key), dup marks
	// the second copy of a duplicated delivery, and corrupt marks a copy
	// the fault plan corrupted in transit: the network must damage its
	// payload so the receiver's checksum fails.
	Send(m Message, seq int64, dup, corrupt bool) error
	// Sync waits until every copy sent so far has been received and
	// staged, then opens delivery step now.
	Sync(now Step) error
	// Take returns the next copy due at node to in calendar order: the
	// payload decoded off the wire, and whether its checksum failed.
	Take(to ProcID) (pl Payload, corrupt bool, err error)
}

// send hands one calendar copy to the network, recording the first error.
func (e *engine) send(t Step, p, to ProcID, deliverAt Step, pl Payload, dup, corrupt bool) {
	if e.netErr != nil {
		return
	}
	m := Message{From: p, To: to, SentAt: t, DeliverAt: deliverAt, Payload: pl}
	e.netErr = e.net.Send(m, e.pt.sent[p], dup, corrupt)
}

// take fetches calendar message m's copy off the network and checks it
// against the calendar. It records a failure in netErr.
func (e *engine) take(t Step, m imessage) Payload {
	pl, corrupt, err := e.net.Take(ProcID(m.to))
	switch want := m.ref&refCorruptBit != 0; {
	case err != nil:
		e.netErr = err
	case corrupt != want:
		e.netErr = fmt.Errorf("sim: node %d received a frame at step %d whose checksum verdict (corrupt=%v) disagrees with the calendar's message from %d (corrupt=%v)",
			m.to, t, corrupt, m.from, want)
	case !corrupt && pl == nil:
		e.netErr = fmt.Errorf("sim: node %d received a nil payload at step %d for the message from %d", m.to, t, m.from)
	}
	return pl
}
