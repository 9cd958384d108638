package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/ugf-sim/ugf/internal/live/wire"
)

// TCPTransport carries frames over loopback TCP sockets: one connection
// per receiving node, dialed once at construction and shared by every
// sender. Frames travel exactly as wire encodes them — the u32 length
// prefix doubles as the stream delimiter — so a packet capture of a live
// run is a sequence of wire frames. Receivers never need to know who
// wrote a frame: the envelope carries From and To, and the runtime
// rejects a frame staged at the wrong node. Per-sender FIFO holds because
// one sender's frames to one receiver are written in order on one stream.
//
// It exists to prove the runtime against a real kernel-mediated byte
// stream (socket buffering, partial reads, concurrent writers on one
// connection); the channel transport remains the default. A transport
// holds 2n sockets: n dialed, n accepted.
type TCPTransport struct {
	conns   []*tcpConn // conns[to] carries every frame addressed to node to
	streams []chan []byte

	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// tcpConn serializes frame writes on one receiver's stream, so frames
// from concurrent senders never interleave.
type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
}

// NewTCPTransport dials one loopback connection per node through a
// single listener, closed once setup is done, and starts each node's
// read loop. The caller must Close it (the runtime does).
func NewTCPTransport(n int) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("live: listen: %w", err)
	}
	defer ln.Close()
	tr := &TCPTransport{
		conns:   make([]*tcpConn, 0, n),
		streams: make([]chan []byte, n),
		done:    make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		out, in, err := connect(ln)
		if err != nil {
			tr.Close()
			return nil, fmt.Errorf("live: connect node %d: %w", i, err)
		}
		tr.conns = append(tr.conns, &tcpConn{c: out})
		tr.streams[i] = make(chan []byte, chanBuffer)
		tr.wg.Add(1)
		go tr.readLoop(i, in)
	}
	return tr, nil
}

// connect dials ln and accepts the connection, returning both ends. The
// kernel completes the handshake against the listen backlog, so dialing
// before accepting does not block; the address check makes sure the
// accepted end is the one just dialed.
func connect(ln net.Listener) (out, in net.Conn, err error) {
	out, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	in, err = ln.Accept()
	if err == nil && in.RemoteAddr().String() != out.LocalAddr().String() {
		in.Close()
		err = fmt.Errorf("accepted %s, dialed from %s", in.RemoteAddr(), out.LocalAddr())
	}
	if err != nil {
		out.Close()
		return nil, nil, err
	}
	return out, in, nil
}

// readLoop moves whole frames from node id's connection into its stream,
// re-attaching the length prefix so the stream carries the same framed
// bytes the channel transport does. A stream that breaks before Close —
// a read error, or a zero or oversize length prefix — forwards the bytes
// it has of the broken frame, which the runtime rejects as unparsable,
// failing the run with the node named instead of losing frames silently.
func (tr *TCPTransport) readLoop(id int, c net.Conn) {
	defer tr.wg.Done()
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		frame, ok := readFrame(br)
		if !ok {
			select {
			case <-tr.done:
				return // Close cut the stream: not a failure
			default:
			}
		}
		select {
		case tr.streams[id] <- frame:
		case <-tr.done:
			return
		}
		if !ok {
			return
		}
	}
}

// readFrame reads one length-prefixed frame. On failure it returns the
// bytes read so far of the broken frame and false.
func readFrame(br *bufio.Reader) ([]byte, bool) {
	var pfx [4]byte
	if n, err := io.ReadFull(br, pfx[:]); err != nil {
		return pfx[:n], false
	}
	size := binary.BigEndian.Uint32(pfx[:])
	if size == 0 || size > wire.MaxFrameSize {
		return pfx[:], false
	}
	frame := make([]byte, 4+size)
	copy(frame, pfx[:])
	if n, err := io.ReadFull(br, frame[4:]); err != nil {
		return frame[:4+n], false
	}
	return frame, true
}

// Send implements Transport: it writes the frame on the receiver's
// shared connection.
func (tr *TCPTransport) Send(from, to int, frame []byte) error {
	if to < 0 || to >= len(tr.conns) {
		return fmt.Errorf("live: send to node %d of %d", to, len(tr.conns))
	}
	select {
	case <-tr.done:
		return ErrTransportClosed
	default:
	}
	tc := tr.conns[to]
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if _, err := tc.c.Write(frame); err != nil {
		return fmt.Errorf("live: write %d→%d: %w", from, to, err)
	}
	return nil
}

// Recv implements Transport.
func (tr *TCPTransport) Recv(id int) <-chan []byte { return tr.streams[id] }

// Close implements Transport. Closing the dialed ends ends every read
// loop; the streams stay open, as on the channel transport.
func (tr *TCPTransport) Close() error {
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return nil
	}
	tr.closed = true
	close(tr.done)
	tr.mu.Unlock()

	var errs []error
	for _, tc := range tr.conns {
		if err := tc.c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	tr.wg.Wait()
	return errors.Join(errs...)
}
