package live

import (
	"errors"
	"fmt"
	"sync"
)

// Transport moves framed wire messages between live nodes. Frames are the
// length-prefixed byte strings of internal/live/wire (wire.AppendFrame);
// the transport treats them as opaque and must deliver each frame intact,
// exactly once, to the stream of its addressee. Ordering is NOT required:
// the network's ack barrier plus the envelope sort keys restore the
// calendar's delivery order (both built-in transports are FIFO per link
// anyway).
//
// Send transfers ownership of the frame slice to the transport; callers
// must not reuse it. Implementations must be safe for concurrent Send
// calls from distinct senders.
type Transport interface {
	// Send routes one frame from node from to node to. It may block while
	// the receiver's stream is full; it must return an error rather than
	// block forever once Close has been called.
	Send(from, to int, frame []byte) error
	// Recv returns node id's incoming frame stream. The runtime attaches
	// exactly one reader goroutine per stream.
	Recv(id int) <-chan []byte
	// Close tears the transport down: pending and future Sends unblock
	// with an error (ErrTransportClosed, or the socket's error for a TCP
	// write already under way). Neither built-in transport closes its
	// Recv streams — a blocked sender or reader goroutine may still hold
	// one — so runtime readers must watch a stop signal of their own.
	// Safe to call more than once.
	Close() error
}

// ErrTransportClosed is returned by Send after Close.
var ErrTransportClosed = errors.New("live: transport closed")

// chanBuffer is the per-node stream depth of the channel transport. The
// step barrier bounds the number of unacknowledged frames, and receiver
// goroutines drain continuously, so the buffer only smooths bursts; Send
// blocking on a momentarily full channel is correct, not a deadlock.
const chanBuffer = 256

// ChanTransport is the in-process transport: one buffered channel per
// node. It is the default and the fastest — frames move by reference, no
// serialization beyond the wire encoding itself.
type ChanTransport struct {
	streams []chan []byte

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// NewChanTransport builds a channel transport for n nodes.
func NewChanTransport(n int) *ChanTransport {
	tr := &ChanTransport{
		streams: make([]chan []byte, n),
		done:    make(chan struct{}),
	}
	for i := range tr.streams {
		tr.streams[i] = make(chan []byte, chanBuffer)
	}
	return tr
}

// Send implements Transport.
func (tr *ChanTransport) Send(from, to int, frame []byte) error {
	if to < 0 || to >= len(tr.streams) {
		return fmt.Errorf("live: send to node %d of %d", to, len(tr.streams))
	}
	select {
	case tr.streams[to] <- frame:
		return nil
	case <-tr.done:
		return ErrTransportClosed
	}
}

// Recv implements Transport.
func (tr *ChanTransport) Recv(id int) <-chan []byte { return tr.streams[id] }

// Close implements Transport.
func (tr *ChanTransport) Close() error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.closed {
		return nil
	}
	tr.closed = true
	// Only the done signal closes: closing a stream while a racing Send is
	// blocked on it would panic, and the runtime's readers stop through
	// their own signal anyway.
	close(tr.done)
	return nil
}
