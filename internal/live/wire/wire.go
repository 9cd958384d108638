// Package wire is the live runtime's binary wire format: a compact,
// length-prefixed, versioned envelope that carries one protocol message
// between two live nodes (internal/live), replacing the simulator's
// in-memory payload handles with bytes a real transport can move.
//
// A frame on a stream is a 4-byte big-endian length followed by the body.
// The body layout (all multi-byte integers are unsigned varints unless
// noted) is:
//
//	magic      1 byte  (0xD7)
//	version    1 byte  (Version)
//	flags      1 byte  (bit 0: duplicate copy)
//	from       uvarint (sender process id)
//	to         uvarint (receiver process id)
//	sentAt     uvarint (global send step)
//	arriveAt   uvarint (global delivery step, from the engine's calendar)
//	seq        uvarint (sender's post-increment send counter)
//	kindLen    1 byte  + kind bytes (Payload.Kind())
//	headerCRC  4 bytes big-endian (CRC-32/IEEE of everything above)
//	payloadLen uvarint + payload bytes (registered codec encoding)
//	payloadCRC 4 bytes big-endian (CRC-32/IEEE of the payload bytes)
//
// The checksum is split in two on purpose: the envelope's routing header
// and its payload fail independently. A frame whose header checksum fails
// is unusable and decoding returns an error; a frame whose *payload*
// checksum fails decodes into a valid addressed envelope with a nil
// Payload and ErrPayloadChecksum — the live analogue of the simulator's
// corruption model (faults.go: corruption is detected loss, never a forged
// payload), letting the receiver account the drop at the right step
// without trusting a single corrupted byte of protocol state.
//
// Payload encodings are pluggable per kind (RegisterPayload); the gossip
// protocols register theirs in internal/gossip so decoded payloads are the
// exact concrete types the protocol type switches expect. Decoding never
// panics on arbitrary input — every malformed frame maps to a typed error
// (FuzzWireCodec pins this).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"github.com/ugf-sim/ugf/internal/sim"
)

// Version is the current body-format version; decoders reject others.
const Version = 1

// frameMagic is the body's first byte, a cheap guard against feeding a
// non-wire stream (or a misaligned one) to the decoder.
const frameMagic = 0xD7

// Size limits. MaxFrameSize bounds what ReadFrame will buffer for one
// frame (and hence what a malicious or corrupted length prefix can make a
// receiver allocate); MaxPayloadSize bounds the payload section within it.
const (
	MaxFrameSize   = 1 << 20
	MaxPayloadSize = MaxFrameSize - 64
	maxKindLen     = 255
)

// Typed decode errors. Decoders wrap these with position detail; match
// with errors.Is.
var (
	ErrFrameTooShort   = errors.New("wire: frame truncated")
	ErrFrameTooLarge   = errors.New("wire: frame exceeds size limit")
	ErrBadMagic        = errors.New("wire: bad frame magic")
	ErrBadVersion      = errors.New("wire: unsupported frame version")
	ErrHeaderChecksum  = errors.New("wire: header checksum mismatch")
	ErrPayloadChecksum = errors.New("wire: payload checksum mismatch")
	ErrTrailingBytes   = errors.New("wire: trailing bytes after frame body")
	ErrFieldRange      = errors.New("wire: field out of range")
	ErrUnknownKind     = errors.New("wire: unknown payload kind")
)

// Envelope is one decoded wire message: the routing header the receiver
// acts on, plus the protocol payload.
type Envelope struct {
	From     sim.ProcID
	To       sim.ProcID
	SentAt   sim.Step
	ArriveAt sim.Step
	// Seq is the sender's post-increment send counter — the value the
	// fault plan's hash roll keys on, and part of the key that orders a
	// step's deliveries.
	Seq int64
	// Dup marks the extra copy of a duplicated delivery.
	Dup bool
	// Kind is the payload kind (Payload.Kind() of the original value).
	Kind string
	// Payload is the decoded protocol payload; nil when decoding returned
	// ErrPayloadChecksum.
	Payload sim.Payload
}

// flag bits.
const flagDup = 1 << 0

// Encode serializes the envelope into a frame body (no length prefix; see
// WriteFrame/AppendFrame for framing).
func (e *Envelope) Encode() ([]byte, error) {
	switch {
	case e.From < 0 || int64(e.From) > math.MaxInt32:
		return nil, fmt.Errorf("%w: from=%d", ErrFieldRange, e.From)
	case e.To < 0 || int64(e.To) > math.MaxInt32:
		return nil, fmt.Errorf("%w: to=%d", ErrFieldRange, e.To)
	case e.SentAt < 0 || e.ArriveAt < 0 || e.Seq < 0:
		return nil, fmt.Errorf("%w: negative step or seq", ErrFieldRange)
	case len(e.Kind) > maxKindLen:
		return nil, fmt.Errorf("%w: kind %d bytes", ErrFieldRange, len(e.Kind))
	}
	payload, err := EncodePayload(e.Kind, e.Payload)
	if err != nil {
		return nil, err
	}
	if len(payload) > MaxPayloadSize {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrFrameTooLarge, len(payload))
	}
	var flags byte
	if e.Dup {
		flags |= flagDup
	}
	body := make([]byte, 0, 32+len(e.Kind)+len(payload))
	body = append(body, frameMagic, Version, flags)
	body = binary.AppendUvarint(body, uint64(e.From))
	body = binary.AppendUvarint(body, uint64(e.To))
	body = binary.AppendUvarint(body, uint64(e.SentAt))
	body = binary.AppendUvarint(body, uint64(e.ArriveAt))
	body = binary.AppendUvarint(body, uint64(e.Seq))
	body = append(body, byte(len(e.Kind)))
	body = append(body, e.Kind...)
	body = binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	body = binary.AppendUvarint(body, uint64(len(payload)))
	body = append(body, payload...)
	body = binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(payload))
	return body, nil
}

// reader is a bounds-checked cursor over a frame body.
type reader struct {
	buf []byte
	off int
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, fmt.Errorf("%w: want %d bytes at offset %d of %d", ErrFrameTooShort, n, r.off, len(r.buf))
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: %s varint", ErrFrameTooShort, field)
	}
	r.off += n
	return v, nil
}

// uint63 reads a uvarint that must fit a non-negative int64.
func (r *reader) uint63(field string) (int64, error) {
	v, err := r.uvarint(field)
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("%w: %s=%d", ErrFieldRange, field, v)
	}
	return int64(v), nil
}

// decodeHeader parses the pre-checksum header section into e.
func (e *Envelope) decodeHeader(r *reader) error {
	magic, err := r.byte()
	if err != nil {
		return err
	}
	if magic != frameMagic {
		return fmt.Errorf("%w: 0x%02x", ErrBadMagic, magic)
	}
	ver, err := r.byte()
	if err != nil {
		return err
	}
	if ver != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	e.Dup = flags&flagDup != 0
	from, err := r.uint63("from")
	if err != nil {
		return err
	}
	to, err := r.uint63("to")
	if err != nil {
		return err
	}
	if from > math.MaxInt32 || to > math.MaxInt32 {
		return fmt.Errorf("%w: from=%d to=%d", ErrFieldRange, from, to)
	}
	e.From, e.To = sim.ProcID(from), sim.ProcID(to)
	sentAt, err := r.uint63("sentAt")
	if err != nil {
		return err
	}
	arriveAt, err := r.uint63("arriveAt")
	if err != nil {
		return err
	}
	e.SentAt, e.ArriveAt = sim.Step(sentAt), sim.Step(arriveAt)
	if e.Seq, err = r.uint63("seq"); err != nil {
		return err
	}
	kindLen, err := r.byte()
	if err != nil {
		return err
	}
	kind, err := r.bytes(int(kindLen))
	if err != nil {
		return err
	}
	e.Kind = string(kind)
	return nil
}

// DecodeEnvelope parses a frame body produced by Encode. On
// ErrPayloadChecksum the returned envelope's header fields (From, To,
// steps, Seq, Dup, Kind) are valid and Payload is nil — the caller decides
// how to account the detected corruption. Every other error means the
// frame is unusable and the envelope is zero.
func DecodeEnvelope(body []byte) (Envelope, error) {
	var e Envelope
	if len(body) > MaxFrameSize {
		return e, fmt.Errorf("%w: body %d bytes", ErrFrameTooLarge, len(body))
	}
	r := &reader{buf: body}
	if err := e.decodeHeader(r); err != nil {
		return Envelope{}, err
	}
	headerEnd := r.off
	hcrc, err := r.bytes(4)
	if err != nil {
		return Envelope{}, err
	}
	if got, want := crc32.ChecksumIEEE(body[:headerEnd]), binary.BigEndian.Uint32(hcrc); got != want {
		return Envelope{}, fmt.Errorf("%w: got %08x want %08x", ErrHeaderChecksum, got, want)
	}
	plen, err := r.uint63("payloadLen")
	if err != nil {
		return Envelope{}, err
	}
	if plen > MaxPayloadSize {
		return Envelope{}, fmt.Errorf("%w: payload %d bytes", ErrFrameTooLarge, plen)
	}
	payload, err := r.bytes(int(plen))
	if err != nil {
		return Envelope{}, err
	}
	pcrc, err := r.bytes(4)
	if err != nil {
		return Envelope{}, err
	}
	if r.off != len(body) {
		return Envelope{}, fmt.Errorf("%w: %d bytes", ErrTrailingBytes, len(body)-r.off)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(pcrc); got != want {
		// The header checksum held, so the envelope is addressed; only the
		// payload is untrustworthy. Hand back the header for accounting.
		return e, fmt.Errorf("%w: got %08x want %08x", ErrPayloadChecksum, got, want)
	}
	pl, err := DecodePayload(e.Kind, payload)
	if err != nil {
		return Envelope{}, err
	}
	e.Payload = pl
	return e, nil
}

// CorruptBody flips one payload bit of an encoded body in place — the
// live network's physical corruption primitive. The bit index selects among
// the payload bits (or, for an empty payload, the payload-checksum bits),
// so the damage always lands where only ErrPayloadChecksum can come back:
// the envelope stays addressable and the receiver detects the corruption
// at delivery, exactly the simulator's detected-loss semantics.
func CorruptBody(body []byte, bit uint64) error {
	var e Envelope
	r := &reader{buf: body}
	if err := e.decodeHeader(r); err != nil {
		return err
	}
	if _, err := r.bytes(4); err != nil { // header CRC
		return err
	}
	plen, err := r.uint63("payloadLen")
	if err != nil {
		return err
	}
	start := r.off
	if _, err := r.bytes(int(plen)); err != nil {
		return err
	}
	region := body[start : start+int(plen)]
	if plen == 0 {
		pc, err := r.bytes(4)
		if err != nil {
			return err
		}
		region = pc
	}
	nbits := uint64(len(region)) * 8
	i := bit % nbits
	region[i/8] ^= 1 << (i % 8)
	return nil
}

// WriteFrame writes the 4-byte big-endian length prefix and the body.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrameSize {
		return fmt.Errorf("%w: body %d bytes", ErrFrameTooLarge, len(body))
	}
	var pfx [4]byte
	binary.BigEndian.PutUint32(pfx[:], uint32(len(body)))
	if _, err := w.Write(pfx[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// AppendFrame appends the length prefix and body to dst — the in-process
// transport's allocation-friendly WriteFrame.
func AppendFrame(dst, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

// ReadFrame reads one length-prefixed frame and returns its body. An EOF
// on the prefix boundary returns io.EOF unwrapped, so stream consumers can
// end cleanly; a truncated prefix or body is ErrFrameTooShort.
func ReadFrame(r io.Reader) ([]byte, error) {
	var pfx [4]byte
	if _, err := io.ReadFull(r, pfx[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: length prefix: %v", ErrFrameTooShort, err)
	}
	n := binary.BigEndian.Uint32(pfx[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrFrameTooShort, err)
	}
	return body, nil
}

// ParseFrame splits a framed buffer (length prefix + body, as built by
// AppendFrame) back into its body, rejecting length mismatches.
func ParseFrame(frame []byte) ([]byte, error) {
	if len(frame) < 4 {
		return nil, fmt.Errorf("%w: %d-byte frame", ErrFrameTooShort, len(frame))
	}
	n := binary.BigEndian.Uint32(frame[:4])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, n)
	}
	if int(n) != len(frame)-4 {
		return nil, fmt.Errorf("%w: declared %d bytes, have %d", ErrFrameTooShort, n, len(frame)-4)
	}
	return frame[4:], nil
}

// PayloadCodec encodes and decodes one payload kind. Encode appends the
// encoding of pl to dst; Decode must tolerate arbitrary bytes and return
// an error (never panic) on malformed input. Decode must produce the exact
// concrete type the protocols' type switches expect.
type PayloadCodec struct {
	Kind   string
	Encode func(dst []byte, pl sim.Payload) ([]byte, error)
	Decode func(data []byte) (sim.Payload, error)
}

var registry = struct {
	sync.RWMutex
	codecs map[string]PayloadCodec
}{codecs: make(map[string]PayloadCodec)}

// RegisterPayload installs a payload codec. Kinds are registered once, at
// package init time; duplicate or incomplete registrations are programmer
// errors and panic.
func RegisterPayload(c PayloadCodec) {
	if c.Kind == "" || c.Encode == nil || c.Decode == nil {
		panic("wire: RegisterPayload needs kind, encoder and decoder")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.codecs[c.Kind]; dup {
		panic("wire: payload kind registered twice: " + c.Kind)
	}
	registry.codecs[c.Kind] = c
}

// RegisteredKinds returns the payload kinds with installed codecs, in no
// particular order — the surface behind the live runtime's pre-flight
// check that a protocol's payloads can travel the wire at all.
func RegisteredKinds() []string {
	registry.RLock()
	defer registry.RUnlock()
	kinds := make([]string, 0, len(registry.codecs))
	for k := range registry.codecs {
		kinds = append(kinds, k)
	}
	return kinds
}

func lookup(kind string) (PayloadCodec, bool) {
	registry.RLock()
	defer registry.RUnlock()
	c, ok := registry.codecs[kind]
	return c, ok
}

// EncodePayload encodes a payload of the given kind via its registered
// codec.
func EncodePayload(kind string, pl sim.Payload) ([]byte, error) {
	c, ok := lookup(kind)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
	}
	return c.Encode(nil, pl)
}

// DecodePayload decodes payload bytes of the given kind via its
// registered codec.
func DecodePayload(kind string, data []byte) (sim.Payload, error) {
	c, ok := lookup(kind)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
	}
	return c.Decode(data)
}
